"""The depthlab names that the benchmark in perfbench/ wraps or calls exist,
and its traced spans still read their arguments.

perfbench's own smoke test finds a missing name or argument too, but it
runs every workload and takes about half a minute; these checks read
perfbench, or trace a few tiny runs, without running it.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

from depthlab.experiments import ExperimentConfig, run

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def worker(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # worker imports its siblings by bare name
    for name in ("worker", "tracing", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module("worker")


def test_every_traced_attribute_is_defined_on_its_owner(worker):
    spans = worker.layer_spans(worker.tracing.Tracer())
    assert spans
    missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in spans
               if attr not in vars(owner)]
    assert not missing


@pytest.mark.parametrize("source", ["worker.py", "workloads.py"])
def test_every_depthlab_attribute_used_resolves(source):
    tree = ast.parse((PERFBENCH / source).read_text())
    modules = {alias.asname or alias.name: importlib.import_module(f"depthlab.{alias.name}")
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "depthlab"
               for alias in node.names}
    assert modules
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules}
    missing = sorted(f"{m}.{attr}" for m, attr in used if not hasattr(modules[m], attr))
    assert not missing


TRACED_RUNS = [
    ("gd-flatline", {"n": 2, "width": 4, "iters": 2}),
    ("kernel-hardness", {"n": 4, "features": 4, "iters": 2}),
    ("sq-weak-learn", {"n": 4, "targets": 1}),
    ("sq-parity-lower-bound", {"n": 9, "tau": 0.125, "seeds": 1}),
]


def test_traced_runs_record_their_spans(worker, tmp_path):
    # a span whose attrs no longer bind the call's arguments fails the run,
    # and a moved call site leaves its span unrecorded.  gd_train's dense
    # steps keep their own gradient passes, so population_hinge_grad's one
    # caller is gd-wave's probe, on the GD run its checked round captured.
    wave = worker.workloads.GdWave(0, True, tmp_path / "gd-wave")
    captured = {"gd_train": []}
    with worker.tracing.patched([(worker.gd, "gd_train",
                                  worker.tracing.recorder(captured["gd_train"]))]):
        wave.check(wave.round(), captured, worker.workloads.Checks())
    tracer = worker.tracing.Tracer()
    with worker.tracing.patched(worker.layer_spans(tracer)):
        reports = [run(ExperimentConfig(e, p), tmp_path) for e, p in TRACED_RUNS]
        wave.probe()
    assert [r.error for r in reports] == [""] * len(TRACED_RUNS)
    recorded = {s.name for s in tracer.spans}
    assert {"kernel.solve", "mlp.population_hinge_grad", "gd.gd_train",
            "sq.adversarial_game"} <= recorded


def test_weak_learning_queries_are_traced(worker, tmp_path):
    # the weak learner's correlation block reaches the wrapped SqOracle.query
    tracer = worker.tracing.Tracer()
    with worker.tracing.patched(worker.layer_spans(tracer)):
        report = run(ExperimentConfig("sq-weak-learn", {"n": 4, "targets": 1}), tmp_path)
    assert report.error == ""
    assert "sq.query" in {s.name for s in tracer.spans}


def test_boolean_certify_checks_read_the_weak_learner(worker, tmp_path):
    # boolean-certify's checks read each captured weak-learning call's
    # args["oracle"].target.table and its result's .table: the checked
    # round, as the worker runs it, must pass them all
    wl = worker.workloads.BooleanCertify(0, True, tmp_path / "boolean-certify")
    wl.outdir.mkdir()
    captured = {attr: [] for _, attr in wl.capture}
    with worker.tracing.patched([(o, a, worker.tracing.recorder(captured[a]))
                                 for o, a in wl.capture]):
        out = wl.round()
    checks = worker.workloads.Checks()
    wl.check(out, captured, checks)
    assert len(captured["correlation_weak_learner"]) == 2
    assert checks.attempted > 2 and checks.failures == []
