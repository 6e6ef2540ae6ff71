import json
from pathlib import Path

import pytest

from depthlab.cli import main as cli_main
from depthlab.experiments import (
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
    ("gd-sanity", set(), "loss_end_hinge_max"),
    ("gd-flatline", {"abs_loss_change_hinge", "mean_grad_norm_l2", "log_mean_grad_norm",
                     "final_param_dist_l2"}, "abs_loss_change_hinge_max"),
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
    ])
    def test_out_of_range_value_exit_two(self, tmp_path, capsys, experiment, setting):
        cfg = tmp_path / "i.cfg"
        cfg.write_text(f"experiment = {experiment}\n{setting}\n")
        assert cli_main(["run", str(cfg), "--outdir", str(tmp_path / "runs")]) == 2
        assert setting.split()[0] in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_default_tau_meets_the_adversary_floor(self, tmp_path):
        # 4096^(-1/3) rounds to just above the default tau = 1/16
        cfg = ExperimentConfig("sq-parity-lower-bound", {"seeds": 1, "learners": "majority"})
        assert run(cfg, tmp_path).error == ""

    def test_more_parity_features_than_parities_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "g.cfg"
        cfg.write_text("experiment = kernel-hardness\nn = 4\nfeatures = 17\niters = 1\n")
        assert cli_main(["run", str(cfg), "--outdir", str(tmp_path / "runs")]) == 2
        assert "features" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["d_zset = 20", "d_zset = 0", "n_reduction = 13",
                                         "n_or = 13", "n_or = 2", "k_reduction = 0", "delta = 0"])
    def test_f_family_out_of_range_exit_two(self, tmp_path, capsys, setting):
        cfg = tmp_path / "h.cfg"
        cfg.write_text(f"experiment = f-family\n{setting}\n")
        assert cli_main(["run", str(cfg), "--outdir", str(tmp_path / "runs")]) == 2
        assert setting.split()[0] in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_empty_population_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "e.cfg"
        cfg.write_text("experiment = telgarsky-separation\ncount = 0\n")
        assert cli_main(["run", str(cfg), "--outdir", str(tmp_path / "runs")]) == 2
        assert "count" in capsys.readouterr().err

    def test_sweep_directory(self, tmp_path, capsys):
        d = tmp_path / "cfgs"
        d.mkdir()
        (d / "one.cfg").write_text("experiment = xavier-audit\ntrials = 2\nprobes = 1\n")
        (d / "two.cfg").write_text("experiment = lipschitz-approx\nsamples = 1000\n")
        code = cli_main(["sweep", str(d), "--outdir", str(tmp_path / "runs")])
        assert code == 0
        assert (tmp_path / "runs" / "summary.csv").exists()


def test_certification_csv_record_format(tmp_path):
    cfg = ExperimentConfig("telgarsky-separation", {"n": 6, "count": 3, "width": 4})
    run(cfg, tmp_path)
    header = (tmp_path / cfg.run_name() / "series.csv").read_text().splitlines()[0]
    assert header == "depth,width,pieces,bound,crossings,loss,lower_bound"
