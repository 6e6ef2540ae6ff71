import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from depthlab import dists, kernel
from depthlab import experiments as ex
from depthlab.cli import main as cli_main
from depthlab.experiments import (
    Check,
    ConfigError,
    ExperimentConfig,
    derive_seed,
    experiment_ids,
    parse_config_file,
    run,
    sweep,
)


def test_experiment_ids_cover_the_registry():
    assert set(experiment_ids()) == {
        "gd-flatline", "gd-sanity", "telgarsky-separation",
        "sq-parity-lower-bound", "sq-weak-learn", "kernel-hardness",
        "f-family", "lipschitz-approx", "xavier-audit",
    }


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig("spectral-gap", {})


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        ExperimentConfig("gd-flatline", {"banana": 1})


def test_defaults_merged_and_typed():
    cfg = ExperimentConfig("gd-flatline", {"n": "6", "iters": 20.0})
    assert cfg.params["n"] == 6
    assert cfg.params["iters"] == 20 and type(cfg.params["iters"]) is int
    assert cfg.params["eta"] == 0.1


def test_bool_refused_for_float_key():
    # float(True) == 1.0 would silently run with step 1
    with pytest.raises(ConfigError):
        ExperimentConfig("gd-flatline", {"eta": True})
    assert ExperimentConfig("gd-flatline", {"eta": 1}).params["eta"] == 1.0


@pytest.mark.parametrize("experiment,key", [
    ("telgarsky-separation", "count"), ("sq-parity-lower-bound", "seeds"),
    ("sq-weak-learn", "targets"), ("xavier-audit", "trials"),
    ("xavier-audit", "probes"), ("lipschitz-approx", "samples"),
    ("kernel-hardness", "features"), ("kernel-hardness", "iters"),
    ("gd-flatline", "iters"), ("gd-sanity", "iters"),
])
def test_empty_population_rejected(experiment, key):
    for size in (0, -1):
        with pytest.raises(ConfigError):
            ExperimentConfig(experiment, {key: size})


@pytest.mark.parametrize("experiment,extra,threshold", [
    ("gd-sanity", set(), "loss_end_hinge"),
    ("gd-flatline", {"abs_loss_change_hinge", "mean_grad_norm_l2", "log_mean_grad_norm",
                     "final_param_dist_l2"}, "abs_loss_change_hinge"),
])
def test_gd_reports_keep_their_metrics(tmp_path, experiment, extra, threshold):
    cfg = ExperimentConfig(experiment, {"iters": 3})
    rep = run(cfg, tmp_path)
    assert set(rep.metrics) == {"n", "depth", "grid_points", "loss_start_hinge",
                                "loss_end_hinge"} | extra
    assert list(rep.thresholds) == [threshold]
    assert rep.metrics["depth"] == 12  # gd-flatline's depth 0 stands for n = 12
    series = (tmp_path / cfg.run_name() / "series.csv").read_text().splitlines()
    assert series[0] == "iter,loss,grad_norm,param_dist" and len(series) == 1 + 4


# small configs at which every experiment passes
SMALL = {
    "gd-flatline": {"n": 6, "iters": 5}, "gd-sanity": {},
    "telgarsky-separation": {"n": 6, "count": 3, "width": 4},
    "sq-parity-lower-bound": {"n": 9, "seeds": 2, "tau": 0.125},
    "sq-weak-learn": {"n": 6, "targets": 2},
    "kernel-hardness": {"n": 8, "features": 16, "iters": 5}, "f-family": {},
    "lipschitz-approx": {"samples": 2000}, "xavier-audit": {"trials": 5, "probes": 2},
}


@pytest.mark.parametrize("experiment", experiment_ids())
def test_pass_flag_and_thresholds_come_from_the_checks(tmp_path, experiment):
    cfg = ExperimentConfig(experiment, SMALL[experiment])
    rep = run(cfg, tmp_path)
    names = [c["name"] for c in rep.checks]
    assert rep.error == "" and names and len(set(names)) == len(names)
    assert rep.passed == all(c["ok"] for c in rep.checks) and rep.first_failed == ""
    assert rep.thresholds == {c["name"]: c["bound"] for c in rep.checks}
    for c in rep.checks:  # the margin is the slack: >= 0 while a check holds, > 0 for <
        assert c["margin"] is None if c["sense"] == "==" else \
            (c["margin"] > 0 if c["sense"] == "<" else c["margin"] >= 0) == c["ok"]
    doc = json.loads((tmp_path / cfg.run_name() / "report.json").read_text())
    assert doc["checks"] == rep.checks and doc["first_failed"] == ""


@pytest.mark.parametrize("experiment,params,check", [
    ("xavier-audit", {"d": 1, "trials": 10}, "pass_fraction"),  # 0.9 < 0.95
    ("gd-sanity", {"seed": 78}, "loss_end_hinge"),  # 0.637 > 0.5
])
def test_known_failures_name_their_check(tmp_path, experiment, params, check):
    rep = run(ExperimentConfig(experiment, params), tmp_path)
    assert rep.error == "" and not rep.passed and rep.first_failed == check
    (failed,) = [c for c in rep.checks if not c["ok"]]
    assert failed["name"] == check and failed["margin"] < 0


@pytest.mark.parametrize("sense", ["<", "<=", ">=", "=="])
def test_check_senses_and_nan(sense):
    assert not Check("x", math.nan, 1.0, sense).ok
    assert Check("x", 1.0, 1.0, sense).ok == (sense != "<")
    assert Check("x", 0.5, 1.0, sense).ok == (sense in ("<", "<="))


def test_a_body_with_no_checks_fails_the_run(tmp_path, monkeypatch):
    monkeypatch.setitem(ex._BODIES, "xavier-audit", lambda p: ({"trials": 1}, [], [{"a": 1}]))
    rep = run(ExperimentConfig("xavier-audit"), tmp_path)
    assert rep.error == "" and not rep.passed
    assert rep.checks == [] and rep.thresholds == {} and rep.first_failed == ""


def test_derive_seed_stable():
    assert derive_seed(7, "init") == derive_seed(7, "init")
    assert derive_seed(7, "init") != derive_seed(7, "net0")


def test_reports_byte_identical(tmp_path):
    cfg = ExperimentConfig("xavier-audit", {"trials": 5, "probes": 2})
    run(cfg, tmp_path)
    first = (tmp_path / cfg.run_name() / "report.json").read_bytes()
    run(cfg, tmp_path)
    second = (tmp_path / cfg.run_name() / "report.json").read_bytes()
    assert first == second


def test_report_names_claim_and_config(tmp_path):
    cfg = ExperimentConfig("lipschitz-approx", {"samples": 2000})
    rep = run(cfg, tmp_path)
    doc = json.loads((tmp_path / cfg.run_name() / "report.json").read_text())
    assert doc["claim"]["name"] == "lipschitz-approximation"
    assert doc["config"]["samples"] == 2000
    assert doc["thresholds"]
    assert rep.passed
    # wall clock lives outside the deterministic report
    assert "wall_clock_seconds" not in doc
    meta = json.loads((tmp_path / cfg.run_name() / "meta.json").read_text())
    assert meta["wall_clock_seconds"] >= 0


def test_sweep_isolates_failures_and_aggregates(tmp_path):
    cfgs = [
        ExperimentConfig("gd-flatline", {"n": 6, "iters": 5}),
        ExperimentConfig("gd-flatline", {"n": 8, "iters": 5}),
        ExperimentConfig("xavier-audit", {"trials": 2, "probes": 1, "width": 1,
                                          "depth": 2, "threshold": 2.0}),
    ]
    reports = sweep(cfgs, tmp_path)
    assert [r.passed for r in reports] == [True, True, False]
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["runs"] == 3 and summary["passed"] == 2
    assert summary["grad_norm_decay"]["points"] == 2
    csv_lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert sum(line.startswith("gd-flatline,") for line in csv_lines) == 2


def test_sweep_pool_writes_the_serial_summary(tmp_path):
    cfgs = [ExperimentConfig("gd-flatline", {"n": 6, "iters": 5}),
            ExperimentConfig("gd-flatline", {"n": 8, "iters": 5})]
    serial = sweep(cfgs, tmp_path / "serial")
    pooled = sweep(cfgs, tmp_path / "pool", workers=2)
    assert [r.to_dict() for r in pooled] == [r.to_dict() for r in serial]
    for name in ("summary.json", "summary.csv"):
        assert (tmp_path / "pool" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()
    assert "grad_norm_decay" in json.loads((tmp_path / "pool" / "summary.json").read_text())


def test_import_leaves_the_process_pool_out():
    """Only a sweep with workers > 1 imports the process pool."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, depthlab.experiments; print('concurrent.futures.process' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_empty_sweep(tmp_path):
    assert sweep([], tmp_path) == []
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary == {"runs": 0, "passed": 0}


def test_duplicate_configs_identical_reports(tmp_path):
    cfg = ExperimentConfig("xavier-audit", {"trials": 3, "probes": 2})
    r1, r2 = sweep([cfg, cfg], tmp_path)
    assert r1.to_dict() == r2.to_dict()


def test_parse_config_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# flatline run\nexperiment = gd-flatline\nn = 6\neta = 0.2  # step\n"
    )
    cfg = parse_config_file(path)
    assert cfg.experiment == "gd-flatline"
    assert cfg.params["n"] == 6 and cfg.params["eta"] == 0.2


def test_parse_config_requires_experiment(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("n = 6\n")
    with pytest.raises(ConfigError):
        parse_config_file(path)


def sweep_exits_two(tmp_path, text):
    """``lab sweep`` of a directory holding config ``text`` and a valid one
    refuses both: exit 2 and no runs directory."""
    d = tmp_path / "sweep"
    d.mkdir()
    (d / "bad.cfg").write_text(text)
    (d / "good.cfg").write_text("experiment = xavier-audit\ntrials = 2\nprobes = 1\n")
    assert cli_main(["sweep", str(d), "--outdir", str(tmp_path / "sweep-runs")]) == 2
    assert not (tmp_path / "sweep-runs").exists()


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for eid in experiment_ids():
            assert eid in out

    def test_run_pass_exit_zero(self, tmp_path, capsys):
        cfg = tmp_path / "a.cfg"
        cfg.write_text("experiment = xavier-audit\ntrials = 4\nprobes = 2\n")
        code = cli_main(["run", str(cfg), "--outdir", str(tmp_path / "runs")])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True

    def test_run_fail_exit_one(self, tmp_path, capsys):
        cfg = tmp_path / "b.cfg"
        cfg.write_text("experiment = xavier-audit\ntrials = 2\nprobes = 1\n")
        code = cli_main(["run", str(cfg), "--set", "threshold=2.0",
                         "--outdir", str(tmp_path / "runs")])
        assert code == 1

    def test_unknown_id_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("experiment = warp-drive\n")
        assert cli_main(["run", str(cfg), "--outdir", str(tmp_path / "runs")]) == 2

    @pytest.mark.parametrize("value", ["20.5", "true", "Infinity"])
    def test_non_integer_iters_exit_two(self, tmp_path, capsys, value):
        cfg = tmp_path / "d.cfg"
        cfg.write_text(f"experiment = gd-sanity\niters = {value}\n")
        assert cli_main(["run", str(cfg), "--outdir", str(tmp_path / "runs")]) == 2
        assert not (tmp_path / "runs").exists()

    def test_bool_for_float_key_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "f.cfg"
        cfg.write_text("experiment = gd-sanity\niters = 1\neta = true\n")
        assert cli_main(["run", str(cfg), "--outdir", str(tmp_path / "runs")]) == 2
        assert "eta" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("experiment,setting", [
        ("gd-sanity", "eta = NaN"), ("gd-sanity", "eta = Infinity"),
        ("gd-sanity", "eta = -0.1"), ("gd-sanity", "loss_target = NaN"),
        ("kernel-hardness", "B = NaN"), ("kernel-hardness", "B = -1.0"),
        ("sq-weak-learn", "tau = 0"), ("sq-weak-learn", "tau = 1.5"),
        ("sq-parity-lower-bound", "tau = 1.0"), ("sq-parity-lower-bound", "tau = 0.05"),
        ("xavier-audit", "rho = -0.5"), ("lipschitz-approx", "samples = 1"),
        ("gd-flatline", "n = 0"), ("gd-flatline", "width = 0"), ("xavier-audit", "d = 0"),
        ("gd-sanity", "depth = 1"), ("gd-flatline", "n = 1"),
        ("telgarsky-separation", "depth = -3"), ("gd-sanity", "grid = -5"),
        ("sq-parity-lower-bound", "budget = -1"), ("sq-parity-lower-bound", "learners = ,"),
        ("telgarsky-separation", "n = 53"), ("gd-flatline", "n = 53"),
        ("gd-sanity", "n = 60"), ("sq-weak-learn", "n = 21"),
        ("sq-parity-lower-bound", "n = 21"), ("kernel-hardness", "n = 21"),
        ("gd-sanity", "grid = 2"),
    ])
    def test_out_of_range_value_exit_two(self, tmp_path, capsys, experiment, setting):
        cfg = tmp_path / "i.cfg"
        cfg.write_text(f"experiment = {experiment}\n{setting}\n")
        assert cli_main(["run", str(cfg), "--outdir", str(tmp_path / "runs")]) == 2
        assert setting.split()[0] in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()
        sweep_exits_two(tmp_path, cfg.read_text())

    def test_grid_above_the_cap_exit_two(self, tmp_path, capsys):
        # gd-flatline's default grid at n = 48 is 2^52 points: refused before
        # anything is allocated
        cfg = tmp_path / "g.cfg"
        cfg.write_text("experiment = gd-flatline\nn = 48\niters = 1\n")
        tracemalloc.start()
        try:
            code = cli_main(["run", str(cfg), "--outdir", str(tmp_path / "runs")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 2**20
        assert "MAX_GRID_POINTS" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()
        sweep_exits_two(tmp_path, cfg.read_text())
        cap = dists.MAX_GRID_POINTS
        for experiment, params in [("gd-flatline", {"n": 21}),
                                   ("gd-sanity", {"grid": cap + 1})]:
            with pytest.raises(ConfigError, match="MAX_GRID_POINTS"):
                ExperimentConfig(experiment, params)
        for experiment, params in [("gd-flatline", {"n": 12}), ("gd-flatline", {"n": 20}),
                                   ("gd-sanity", {"grid": cap})]:
            ExperimentConfig(experiment, params)

    @pytest.mark.parametrize("settings", [
        ["n = 13", "feature_kind = iid"], ["n = 19", "features = 64"],
        ["n = 10", "feature_kind = iid", f"features = {2**14 + 1}"]])
    def test_kernel_labels_above_the_cap_exit_two(self, tmp_path, capsys, settings):
        # every target is live with iid features (2^13 x 2^13 labels), the
        # 64 parity features are the live targets at n = 19 (2^19 x 64), and
        # 2^14 + 1 iid features at n = 10 outgrow the cap on their own
        cfg = tmp_path / "k.cfg"
        cfg.write_text("experiment = kernel-hardness\n" + "\n".join(settings) + "\n")
        tracemalloc.start()
        try:
            code = cli_main(["run", str(cfg), "--outdir", str(tmp_path / "runs")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and peak < 2**20
        assert "MAX_LABEL_ENTRIES" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()
        sweep_exits_two(tmp_path, cfg.read_text())

    def test_kernel_labels_at_the_cap_are_accepted(self):
        # built, not run: 2^12 live iid targets at n = 12, 64 parity ones at
        # n = 18 and 2^14 iid features at n = 10
        for params, rows in [({"n": 12, "feature_kind": "iid"}, 2**12),
                             ({"n": 18, "features": 64}, 64),
                             ({"n": 10, "feature_kind": "iid", "features": 2**14}, 2**14)]:
            assert ExperimentConfig("kernel-hardness", params).params["n"] == params["n"]
            assert 2 ** params["n"] * rows == kernel.MAX_LABEL_ENTRIES

    def test_set_repairs_a_refused_value(self, tmp_path, capsys):
        cfg = tmp_path / "j.cfg"
        cfg.write_text("experiment = sq-weak-learn\nn = 0\ntargets = 2\n")
        assert cli_main(["run", str(cfg), "--set", "n=6",
                         "--outdir", str(tmp_path / "runs")]) == 0

    def test_pinned_sq_game_series(self, tmp_path):
        # dyadic losses and integer picks: exact on any BLAS
        cfg = ExperimentConfig("sq-parity-lower-bound", {"n": 9, "seeds": 2, "tau": 0.125})
        run(cfg, tmp_path)
        rows = (tmp_path / cfg.run_name() / "series.csv").read_text().splitlines()
        assert rows == [
            "learner,seed,loss,chosen_index,max_inconsistent_per_query",
            "correlation,0,1.0,2,1", "correlation,1,1.0,2,1",
            "random-query,0,1.0,0,2", "random-query,1,1.0,0,3",
            "majority,0,1.0,1,1", "majority,1,1.0,1,1",
        ]

    def test_default_tau_meets_the_adversary_floor(self, tmp_path):
        # 4096^(-1/3) rounds to just above the default tau = 1/16
        cfg = ExperimentConfig("sq-parity-lower-bound", {"seeds": 1, "learners": "majority"})
        assert run(cfg, tmp_path).error == ""

    def test_more_parity_features_than_parities_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "g.cfg"
        cfg.write_text("experiment = kernel-hardness\nn = 4\nfeatures = 17\niters = 1\n")
        assert cli_main(["run", str(cfg), "--outdir", str(tmp_path / "runs")]) == 2
        assert "features" in capsys.readouterr().err
        sweep_exits_two(tmp_path, cfg.read_text())

    @pytest.mark.parametrize("setting", ["d_zset = 20", "d_zset = 0", "n_reduction = 13",
                                         "n_or = 13", "n_or = 2", "k_reduction = 0", "delta = 0"])
    def test_f_family_out_of_range_exit_two(self, tmp_path, capsys, setting):
        cfg = tmp_path / "h.cfg"
        cfg.write_text(f"experiment = f-family\n{setting}\n")
        assert cli_main(["run", str(cfg), "--outdir", str(tmp_path / "runs")]) == 2
        assert setting.split()[0] in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()
        sweep_exits_two(tmp_path, cfg.read_text())

    def test_f_family_runs_at_huge_n_zset(self, tmp_path):
        cfg = tmp_path / "z.cfg"
        cfg.write_text("experiment = f-family\nn_zset = 20000\n")
        assert cli_main(["run", str(cfg), "--outdir", str(tmp_path / "runs")]) == 0
        (report,) = (tmp_path / "runs").glob("*/report.json")
        assert json.loads(report.read_text())["error"] == ""

    def test_empty_population_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "e.cfg"
        cfg.write_text("experiment = telgarsky-separation\ncount = 0\n")
        assert cli_main(["run", str(cfg), "--outdir", str(tmp_path / "runs")]) == 2
        assert "count" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_sweep_refuses_fewer_than_one_worker(self, tmp_path, capsys, workers):
        d = tmp_path / "cfgs"
        d.mkdir()
        (d / "one.cfg").write_text("experiment = xavier-audit\ntrials = 2\nprobes = 1\n")
        assert cli_main(["sweep", str(d), "--workers", workers,
                         "--outdir", str(tmp_path / "runs")]) == 2
        assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_sweep_of_no_config_exit_two(self, tmp_path, capsys):
        # a directory with no config file is an error, not "0/0 passed"
        d = tmp_path / "cfgs"
        d.mkdir()
        (d / "notes.md").write_text("experiment = xavier-audit\n")
        assert cli_main(["sweep", str(d), "--outdir", str(tmp_path / "runs")]) == 2
        captured = capsys.readouterr()
        assert "no .cfg" in captured.err and "passed" not in captured.out
        assert not (tmp_path / "runs").exists()

    def test_sweep_directory(self, tmp_path, capsys):
        d = tmp_path / "cfgs"
        d.mkdir()
        (d / "one.cfg").write_text("experiment = xavier-audit\ntrials = 2\nprobes = 1\n")
        (d / "two.cfg").write_text("experiment = lipschitz-approx\nsamples = 1000\n")
        code = cli_main(["sweep", str(d), "--outdir", str(tmp_path / "runs")])
        assert code == 0
        assert (tmp_path / "runs" / "summary.csv").exists()

    def test_sweep_fail_line_names_the_failed_check(self, tmp_path, capsys):
        d = tmp_path / "cfgs"
        d.mkdir()
        (d / "one.cfg").write_text("experiment = xavier-audit\ntrials = 2\nprobes = 1\n"
                                   "threshold = 2.0\n")
        assert cli_main(["sweep", str(d), "--outdir", str(tmp_path / "runs")]) == 1
        line = capsys.readouterr().out.splitlines()[0]
        assert line.startswith("FAIL  xavier-audit-") and line.endswith("  pass_fraction")


def test_separation_runs_at_n_52(tmp_path):
    # the largest n whose band edges are exact; there the width bound has content
    rep = run(ExperimentConfig("telgarsky-separation", {"n": 52, "count": 3}), tmp_path)
    assert rep.error == "" and rep.passed
    assert rep.metrics["width_based_lower_bound"] > 0.65


def test_certification_csv_record_format(tmp_path):
    cfg = ExperimentConfig("telgarsky-separation", {"n": 6, "count": 3, "width": 4})
    run(cfg, tmp_path)
    header = (tmp_path / cfg.run_name() / "series.csv").read_text().splitlines()[0]
    assert header == "depth,width,pieces,bound,crossings,loss,lower_bound"


def test_boolean_experiments_build_no_sign_distribution(tmp_path, monkeypatch):
    """A family is its own support: the SQ runs and f-family's closed-form
    check read table columns and never build the sign enumeration's
    distribution."""
    def refuse(n):
        raise AssertionError(f"dists.uniform_signs({n}) was built")

    monkeypatch.setattr(dists, "uniform_signs", refuse)
    for e, p in [("sq-parity-lower-bound", {"n": 9, "tau": 0.125, "seeds": 1}),
                 ("sq-weak-learn", {"n": 6, "targets": 2}),
                 ("f-family", {})]:
        rep = run(ExperimentConfig(e, p), tmp_path)
        assert rep.error == "" and rep.passed, (e, rep.error)


def test_sq_experiments_never_build_the_parity_matrix(tmp_path):
    """At n = 14 the parity matrix alone would take 256 MiB; the weak learner
    and the query games stay below 32 MiB of traced memory.  Only after that
    check do the opt-in n = 16 configs run (a matrix there is 4 GiB)."""
    n = 14
    tracemalloc.start()
    try:
        learned = ex._certify_weak_learn(ExperimentConfig("sq-weak-learn", {"n": n}).params,
                                         [(5, 1), (2**n - 1, 2)])
        games = ex._certify_sq_games(
            ExperimentConfig("sq-parity-lower-bound", {"n": n}).params,
            [(name, [0, 1]) for name in ex._LEARNER_FACTORIES])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"peak traced memory {peak / 2**20:.1f} MiB at n = {n}"
    assert all(c.ok for c in [*learned[1], *games[1]])
    for experiment, sets in [("sq-weak-learn", ["n=16", "targets=3"]),
                             ("sq-parity-lower-bound", ["n=16", "seeds=2"])]:
        cfg = tmp_path / f"{experiment}.cfg"
        cfg.write_text(f"experiment = {experiment}\n")
        args = ["run", str(cfg), "--outdir", str(tmp_path / "runs")]
        for setting in sets:
            args += ["--set", setting]
        assert cli_main(args) == 0
    reports = [json.loads(p.read_text()) for p in (tmp_path / "runs").glob("*/report.json")]
    assert len(reports) == 2
    assert all(r["passed"] and r["error"] == "" and r["config"]["n"] == 16 for r in reports)


def test_kernel_hardness_holds_labels_of_live_targets_only(tmp_path):
    """With 64 parity features only 64 of the 4,096 targets at n = 12 move:
    their labels, not a (2^n, 2^n) matrix, are what the solver holds, and
    the run stays below 64 MiB of traced memory.  Only after that check
    does the opt-in n = 16 config run (a label matrix there is 32 GiB)."""
    tracemalloc.start()
    try:
        rep = run(ExperimentConfig("kernel-hardness", {"n": 12, "iters": 2}), tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak traced memory {peak / 2**20:.1f} MiB at n = 12"
    assert rep.error == "" and rep.passed and rep.metrics["fixed_point_targets"] == 4096 - 64
    cfg = tmp_path / "k.cfg"
    cfg.write_text("experiment = kernel-hardness\n")
    assert cli_main(["run", str(cfg), "--outdir", str(tmp_path / "runs"),
                     "--set", "n=16", "--set", "iters=2"]) == 0
    report, = [json.loads(p.read_text()) for p in (tmp_path / "runs").glob("*/report.json")]
    assert report["passed"] and report["error"] == "" and report["config"]["n"] == 16
