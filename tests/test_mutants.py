"""Seeded defects in the code a certificate rests on.

Each test patches one defect into the program and runs the experiment that
certifies that code at its defaults: the run must fail (pass flag false or
an error).  A certificate that still passes under the defect cannot tell
working code from broken code.
"""

import numpy as np

from depthlab import audit
from depthlab.experiments import ExperimentConfig, run


def test_zero_stacked_outputs_fail_the_audit(tmp_path, monkeypatch):
    """Outputs stuck at zero make every parameter-side ratio 0, which the
    1.1 ||x|| bound alone accepts; the smallest rung's ratio against the
    gradient's slope at theta0 turns the default xavier-audit run false."""
    monkeypatch.setattr(audit, "forward_stacked",
                        lambda net, thetas, x: np.zeros(thetas.shape[:-1]))
    report = run(ExperimentConfig("xavier-audit"), outdir=tmp_path)
    assert not report.error
    assert report.metrics["lhat_theta"] == 0.0 and report.metrics["pass_fraction"] == 1.0
    assert report.metrics["grad_gap"] > report.thresholds["grad_gap_max"]
    assert not report.passed
