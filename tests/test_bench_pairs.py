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


def scratch_repo(tmp_path):
    """A repository with one commit of tracked.py, src/gone.py and a
    .gitignore that ignores *.log."""
    repo = tmp_path / "repo"
    (repo / "src").mkdir(parents=True)
    for name in ("tracked.py", "src/gone.py"):
        (repo / name).write_text(f"# {name}\n")
    (repo / ".gitignore").write_text("*.log\n")
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    subprocess.run(["git", "-C", str(repo), "add", "-A"], check=True)
    subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "c"],
                   check=True)
    return repo


def test_refuses_a_parent_equal_to_the_working_tree(monkeypatch, tmp_path):
    # tree ids decide: an ignored file leaves the trees equal, while a change
    # made only of an untracked file, which `git diff --quiet` misses, does not
    no_runs(monkeypatch)
    repo = scratch_repo(tmp_path)
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    (repo / "src" / "run.log").write_text("ignored\n")
    with pytest.raises(SystemExit, match="the working tree equals"):
        bench_pairs.main(["--label", "fresh", "--what", "x"])
    (repo / "src" / "new.py").write_text("# new\n")
    with pytest.raises(AssertionError, match="ran past its refusals"):
        bench_pairs.main(["--label", "fresh", "--what", "x"])
    assert not (repo / "BENCH_fresh.json").exists()


def fake_sides(monkeypatch, tmp_path):
    """Stub git, export and run_case so each side prints its own output;
    returns the list of trees run_case was called on."""
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "git", lambda *args, **kwargs: "abc1234")
    monkeypatch.setattr(bench_pairs, "worktree_tree", lambda: "def5678")
    monkeypatch.setattr(bench_pairs, "export", lambda treeish, dest, name: dest / name)
    sides = []

    def run_case(tree, name):
        sides.append(tree)
        return {"wall_s": 1.0, "ru_maxrss_mb": 100.0, "exit": 0, "output_sha256": f"{len(sides)}" * 64}

    monkeypatch.setattr(bench_pairs, "run_case", run_case)
    return sides


def refuses_differing_digests(monkeypatch, tmp_path, case):
    sides = fake_sides(monkeypatch, tmp_path)
    with pytest.raises(SystemExit, match="the output digests differ"):
        bench_pairs.main(["--label", case, "--what", "x", "--case", case])
    assert [tree.name for tree in sides] == ["parent", "change"] and sides[0].parent == sides[1].parent
    assert not (tmp_path / f"BENCH_{case}.json").exists()


def test_refuses_a_case_whose_log_digests_differ(monkeypatch, tmp_path):
    # heavy prints the factor command's JSON with its whole refinement log,
    # so its output digest is the digest of that log
    refuses_differing_digests(monkeypatch, tmp_path, "heavy")


def test_refuses_a_cli_case_whose_output_digests_differ(monkeypatch, tmp_path):
    refuses_differing_digests(monkeypatch, tmp_path, "report-1009")


def test_exports_the_working_tree_without_ignored_or_deleted_files(monkeypatch, tmp_path):
    # the change side is the tree id of the working tree: tracked and
    # untracked files are in it, ignored and deleted ones are not, and the
    # repository's index and status are left as they were
    repo = scratch_repo(tmp_path)
    (repo / "tracked.py").write_text("# edited\n")
    (repo / "src" / "gone.py").unlink()
    (repo / "src" / "untracked.py").write_text("# src/untracked.py\n")
    (repo / "src" / "ignored.log").write_text("# src/ignored.log\n")
    monkeypatch.setattr(bench_pairs, "ROOT", repo)

    def status():
        return subprocess.run(["git", "-C", str(repo), "status", "--porcelain"], capture_output=True, text=True,
                              check=True).stdout

    before = status()
    (tmp_path / "out").mkdir()
    tree = bench_pairs.export(bench_pairs.worktree_tree(), tmp_path / "out", "change")
    assert status() == before
    assert tree == tmp_path / "out" / "change"
    exported = sorted(str(f.relative_to(tree)) for f in tree.rglob("*") if f.is_file())
    assert exported == [".gitignore", "src/untracked.py", "tracked.py"]
    assert (tree / "tracked.py").read_text() == "# edited\n"


def test_cli_case_digests_the_printed_output(monkeypatch, capsys):
    # one fresh process on this tree; its digest is that of the command's stdout
    from mschemes.cli import main

    argv = ["smooth", "--n", "12", "--r", "3"]
    monkeypatch.setitem(bench_pairs.CASES, "smooth-12", ("the 3-smooth part of 12", argv, None))
    result = bench_pairs.run_case(ROOT, "smooth-12")
    assert main(argv) == result["exit"] == 0
    assert result["output_sha256"] == hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert result["wall_s"] > 0 and result["ru_maxrss_mb"] > 0


def golden_runs(monkeypatch, wrong=()):
    """Stub run_case to print each case's golden, or another digest for the
    cases in wrong; returns the list of cases run."""
    ran = []

    def run_case(tree, name):
        ran.append(name)
        digest = "0" * 64 if name in wrong else bench_pairs.CASES[name][2]
        return {"wall_s": 1.0, "ru_maxrss_mb": 100.0, "exit": 0, "output_sha256": digest}

    monkeypatch.setattr(bench_pairs, "run_case", run_case)
    return ran


def test_check_goldens_passes_when_every_case_prints_its_golden(monkeypatch):
    ran = golden_runs(monkeypatch)
    bench_pairs.check_goldens()
    assert ran == list(bench_pairs.CASES)
    assert all(len(golden) == 64 for _, _, golden in bench_pairs.CASES.values())


@pytest.mark.parametrize("case", sorted(bench_pairs.CASES))
def test_check_goldens_names_the_case_that_differs(monkeypatch, case):
    ran = golden_runs(monkeypatch, wrong={case})
    with pytest.raises(SystemExit, match=f"differs from its golden: {case}$"):
        bench_pairs.check_goldens()
    assert ran == list(bench_pairs.CASES)
