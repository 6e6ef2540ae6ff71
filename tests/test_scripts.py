"""Smoke tests for the scripts in scripts/ (run_all.py runs every
experiment, so only its argument check is tested)."""

import importlib.util
import sys
from pathlib import Path

import pytest


def load(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_flatline_sweep_quick(tmp_path, capsys):
    load("flatline_sweep").main(["--quick", "--seeds", "1", "--outdir", str(tmp_path)])
    out = capsys.readouterr().out
    assert "/4 runs passed" in out and "log mean grad norm vs n: slope" in out


def test_flatline_sweep_rejects_zero_seeds(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        load("flatline_sweep").main(["--seeds", "0", "--outdir", str(tmp_path)])
    assert exc.value.code == 2 and "--seeds" in capsys.readouterr().err


def test_run_all_rejects_fewer_than_one_worker(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["run_all.py", "--quick", "--workers", "-2",
                                      "--outdir", str(tmp_path / "all")])
    with pytest.raises(SystemExit) as exc:
        load("run_all").main()
    assert exc.value.code == 2 and "--workers" in capsys.readouterr().err
    assert not (tmp_path / "all").exists()


def test_separation_certificates(tmp_path, capsys):
    load("separation_certificates").main(["--count", "2", "--outdir", str(tmp_path)])
    assert capsys.readouterr().out.startswith("PASS: 2 nets at n=14")


@pytest.mark.parametrize("flag, value", [("--n", "53"), ("--count", "0")])
def test_separation_certificates_bad_config_exits_2(tmp_path, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        load("separation_certificates").main([flag, value, "--outdir", str(tmp_path)])
    err = capsys.readouterr().err
    assert exc.value.code == 2 and err.startswith("config error:") and err.count("\n") == 1
