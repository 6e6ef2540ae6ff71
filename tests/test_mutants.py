"""Seeded defects in the code a certificate rests on.

Each test patches one defect into the program and runs the experiment that
certifies that code at its defaults: the run must fail (pass flag false or
an error), and a run that fails a check names the check the defect flips
as its ``first_failed``.  A certificate that still passes under the defect
cannot tell working code from broken code.
"""

import numpy as np

from depthlab import audit, boolfn
from depthlab.experiments import ExperimentConfig, run


def bound(report, name):
    """The bound of the report's check ``name``."""
    (check,) = [c for c in report.checks if c["name"] == name]
    return check["bound"]


def test_zero_stacked_outputs_fail_the_audit(tmp_path, monkeypatch):
    """Ladder outputs stuck at zero make every parameter-side ratio 0, which
    the 1.1 ||x|| bound alone accepts; the smallest rung's ratio against
    the gradient's slope at theta0 turns the default xavier-audit run false."""
    monkeypatch.setattr(audit, "_forward_rays",
                        lambda net, x, dirs, steps: np.zeros(steps.shape))
    report = run(ExperimentConfig("xavier-audit"), outdir=tmp_path)
    assert not report.error
    assert report.metrics["lhat_theta"] == 0.0 and report.metrics["pass_fraction"] == 1.0
    assert report.metrics["grad_gap"] > bound(report, "grad_gap")
    assert not report.passed and report.first_failed == "grad_gap"


def test_negated_parity_product_fails_weak_learning(tmp_path, monkeypatch):
    """A negated family product flips every oracle answer, which the learner's
    |answer| cannot see: it still recovers each target.  The returned
    member's answer against its direct row dot (no family product) is off by
    ~2, and the answer gap turns the sq-weak-learn pass flag false."""
    product = boolfn.ParityFamily.product
    monkeypatch.setattr(boolfn.ParityFamily, "product", lambda self, V: -product(self, V))
    report = run(ExperimentConfig("sq-weak-learn", {"targets": 5}), outdir=tmp_path)
    assert not report.error
    assert report.metrics["all_recovered"]
    assert report.metrics["max_answer_gap"] > bound(report, "max_answer_gap")
    assert not report.passed and report.first_failed == "max_answer_gap"
