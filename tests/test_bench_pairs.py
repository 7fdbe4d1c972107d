"""The pair driver's refusals, which happen before any benchmark run."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def no_runs(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the driver ran past its refusals")

    monkeypatch.setattr(bench_pairs, "export", fail)
    monkeypatch.setattr(bench_pairs, "run_once", fail)


def test_refuses_an_existing_record(monkeypatch, tmp_path):
    no_runs(monkeypatch)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    record = tmp_path / "BENCH_taken.json"
    record.write_text("{}\n")
    with pytest.raises(SystemExit, match="BENCH_taken.json already exists"):
        bench_pairs.main(["--label", "taken", "--what", "x"])
    assert record.read_text() == "{}\n"


def test_refuses_a_parent_equal_to_the_working_tree(monkeypatch, tmp_path):
    no_runs(monkeypatch)
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    calls = []

    def git(cmd, **kwargs):
        calls.append(cmd[3])
        return subprocess.CompletedProcess(cmd, 0, stdout="abc1234\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", git)
    with pytest.raises(SystemExit, match="the working tree equals abc1234"):
        bench_pairs.main(["--label", "fresh", "--what", "x"])
    assert calls == ["rev-parse", "diff"]
    assert not (tmp_path / "BENCH_fresh.json").exists()
