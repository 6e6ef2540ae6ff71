import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from depthlab.dists import InputDistribution
from depthlab.mlp import forward, hinge, population_hinge_grad


def point_hinge_grad(net, x, y):
    """Hinge subgradient at one point: ``population_hinge_grad`` on the
    one-point support {x} with label y."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    point = InputDistribution("point", x[None, :])
    return population_hinge_grad(net, lambda X: np.full(len(X), float(y)), point)[1]


def central_fd_hinge_grad(net, x, y, h=1e-6):
    """Finite-difference oracle for the hinge subgradient in the parameters."""
    theta = net.flat_params()
    g = np.zeros_like(theta)
    for i in range(theta.shape[0]):
        tp = theta.copy()
        tp[i] += h
        tm = theta.copy()
        tm[i] -= h
        lp = float(hinge(y, forward(net.with_flat_params(tp), x)))
        lm = float(hinge(y, forward(net.with_flat_params(tm), x)))
        g[i] = (lp - lm) / (2 * h)
    return g


def is_smooth_point(net, x, y, kink_tol=1e-4):
    """No pre-activation and no hinge margin within kink_tol of a kink."""
    a = np.atleast_1d(np.asarray(x, dtype=np.float64))[None, :]
    last = len(net.layers) - 1
    for i, (W, b) in enumerate(net.layers):
        a = a @ W.T + b
        if i != last:
            if np.min(np.abs(a)) < kink_tol:
                return False
            a = np.maximum(a, 0.0)
    margin = y * a[0, 0]
    return abs(margin - 1.0) >= kink_tol


_RUN_ONE = """
import json, sys
from depthlab.experiments import ExperimentConfig, run
cfg = ExperimentConfig(sys.argv[1], json.loads(sys.argv[2]))
run(cfg, outdir=sys.argv[3])
print(cfg.run_name())
"""


def blas_threads_env(threads):
    """The environment of a fresh interpreter that imports this checkout's
    ``depthlab`` and runs ``threads`` (a string) OpenBLAS threads."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def report_bytes_by_blas_threads(tmp_path, experiment, params):
    """report.json and series.csv bytes of one run in a fresh interpreter
    with 1 and with 2 OpenBLAS threads, in that order."""
    outputs = []
    for threads in ("1", "2"):
        outdir = tmp_path / f"threads-{threads}"
        name = subprocess.run([sys.executable, "-c", _RUN_ONE, experiment, json.dumps(params),
                               str(outdir)], env=blas_threads_env(threads), check=True,
                              capture_output=True, text=True).stdout.strip()
        outputs.append([(outdir / name / f).read_bytes() for f in ("report.json", "series.csv")])
    return outputs


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
