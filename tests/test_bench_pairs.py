"""The pair driver's refusals, which happen before any benchmark run."""

import hashlib
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


def test_refuses_a_case_whose_log_digests_differ(monkeypatch, tmp_path):
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)

    def git(cmd, **kwargs):
        # rev-parse names the parent; diff --quiet exits 1: the trees differ
        return subprocess.CompletedProcess(cmd, 0 if cmd[3] == "rev-parse" else 1, stdout="abc1234\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", git)
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: dest)
    sides = []

    def run_case(tree, name):
        sides.append(tree)
        return {"wall_s": 1.0, "ru_maxrss_mb": 100.0, "log_sha256": f"{len(sides)}" * 64}

    monkeypatch.setattr(bench_pairs, "run_case", run_case)
    with pytest.raises(SystemExit, match="refinement log digests differ"):
        bench_pairs.main(["--label", "heavy", "--what", "x", "--case", "heavy"])
    assert len(sides) == 2 and sides[1] == sides[0] / "change"
    assert not (tmp_path / "BENCH_heavy.json").exists()


def test_refuses_a_cli_case_whose_output_digests_differ(monkeypatch, tmp_path):
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)

    def git(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 0 if cmd[3] == "rev-parse" else 1, stdout="abc1234\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", git)
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: dest)
    sides = []

    def run_case(tree, name):
        sides.append(tree)
        return {"wall_s": 1.0, "ru_maxrss_mb": 100.0, "exit": 0, "output_sha256": f"{len(sides)}" * 64}

    monkeypatch.setattr(bench_pairs, "run_case", run_case)
    with pytest.raises(SystemExit, match="the output digests differ"):
        bench_pairs.main(["--label", "report", "--what", "x", "--case", "report-1009"])
    assert len(sides) == 2 and sides[1] == sides[0] / "change"
    assert not (tmp_path / "BENCH_report.json").exists()


def test_copies_untracked_files_and_no_ignored_file(monkeypatch, tmp_path):
    # the change side runs from a copy beside the parent's archive: tracked
    # and untracked files are copied, ignored ones and deleted ones are not
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    for name in ("tracked.py", "src/gone.py", ".gitignore", "src/untracked.py", "src/ignored.log"):
        (repo / name).write_text(f"# {name}\n")
    (repo / ".gitignore").write_text("*.log\n")
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    subprocess.run(["git", "-C", str(repo), "add", "tracked.py", "src/gone.py", ".gitignore"], check=True)
    (repo / "src" / "gone.py").unlink()
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    (tmp_path / "out").mkdir()
    tree = bench_pairs.copy_worktree(tmp_path / "out")
    assert tree == tmp_path / "out" / "change"
    copied = sorted(str(f.relative_to(tree)) for f in tree.rglob("*") if f.is_file())
    assert copied == [".gitignore", "src/untracked.py", "tracked.py"]
    assert (tree / "src" / "untracked.py").read_text() == "# src/untracked.py\n"


def test_cli_case_digests_the_printed_output(monkeypatch, capsys):
    # one fresh process on this tree; its digest is that of the command's stdout
    from mschemes.cli import main

    argv = ["smooth", "--n", "12", "--r", "3"]
    monkeypatch.setitem(bench_pairs.CASES, "smooth-12", ("the 3-smooth part of 12", argv))
    result = bench_pairs.run_case(ROOT, "smooth-12")
    assert main(argv) == result["exit"] == 0
    assert result["output_sha256"] == hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert result["wall_s"] > 0 and result["ru_maxrss_mb"] > 0

