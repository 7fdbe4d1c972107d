"""Alternating benchmark pairs: a parent revision against the working tree.

    python3 tools/bench_pairs.py --label r_traces --what "one line on the change"
    python3 tools/bench_pairs.py --label x --what "..." --parent HEAD~1 --seed 2 --workload factor-deep
    python3 tools/bench_pairs.py --label x_heavy --what "..." --parent HEAD~1 --case heavy
    python3 tools/bench_pairs.py --label x_1009 --what "..." --parent HEAD~1 --case report-1009

Both sides run from `git archive`s side by side in one temporary directory
(removed at the end, also on failure), since where a tree sits moves
`peak_rss_mb`: the parent's commit at <tmp>/parent, and the tree id of the
working tree at <tmp>/change.  That tree is written through a temporary
index (`git add -A`, then `git write-tree`), so it holds tracked and
untracked files but no ignored or deleted one, and the repository's own
index and `git status` are left as they were.
The driver refuses to start when BENCH_<label>.json already exists (the
records are the benchmark's history) or when the working tree's tree id is
the parent's (once a change is committed, pass --parent HEAD~1).
Each workload gets ten pairs of `perfbench/run.py --trace 0` runs of
BENCHMARK.json's run_seconds each, the parent first in odd pairs and the
change first in even pairs.  A run whose last line does not read
"correct": true stops the driver with nothing written.  The record goes to
BENCH_<label>.json at the repository root:
what, parent, machine, command, protocol and runs[{revision, side,
workload, seed, pair, result, cpu_s}], where result is run.py's last line
and cpu_s the user and system time of the run and its children.  A summary
follows on stdout: per workload and end-to-end metric the two medians, the
parent's quartile spread and how many pairs moved each way.

--case NAME runs one of CASES instead: a `mschemes` CLI command too large
for a benchmark pass, once per side (the parent first), each in a fresh
process with one BLAS thread per usable core.  Its record holds, per side,
the wall seconds of the command, the process's peak RSS (`ru_maxrss`), its
exit code and the sha256 of what it prints (`output_sha256`; for `heavy`
that is the factor command's JSON with its whole refinement log).  The two
digests must be equal: when they differ the driver stops with nothing
written.

The current figures live in the BENCH_*.json records and in ROADMAP.md.
perfbench/README.md is frozen with the benchmark and describes the level
kernel as it was when the benchmark was set up.

Run from the repository root, on an otherwise idle machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
PAIRS = 10
SECONDS = BENCHMARK["run_seconds"]

# --case inputs: (what, argv of the `mschemes` CLI).  The command runs by
# CLI_RUN in a fresh process with the tree's src on the path
CASES = {
    "heavy": ("x^11 - 1 over F_23 at m = 3 (levels over F_23^2, level 3 of dimension 990)",
              ["factor", "--p", "23", "--poly=-1,0,0,0,0,0,0,0,0,0,0,1", "--m", "3"]),
    "report-1009": ("the cyclotomic scheme report at p = 1009, e = 4 (1018081 pairs)",
                    ["scheme-report", "--p", "1009", "--e", "4"]),
    "orbit-z13": ("the orbit scan of Z13 at m = 5", ["orbit-scan", "--catalog", "Z13", "--m", "5"]),
}
CLI_RUN = """\
import contextlib, hashlib, io, json, resource, sys, time
from mschemes.cli import main
out = io.StringIO()
start = time.perf_counter()
with contextlib.redirect_stdout(out):
    code = main({argv!r})
wall = time.perf_counter() - start
print(json.dumps({{"wall_s": wall, "ru_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "exit": code, "output_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}}))
"""


def git(*args, env=None):
    """The stripped stdout of a git command run on the repository."""
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True,
                          env=env).stdout.strip()


def worktree_tree():
    """The tree id of the working tree: HEAD's tree with every tracked and
    untracked change added, written through a temporary index."""
    with tempfile.TemporaryDirectory(prefix="bench-pairs-index-") as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp) / "index")}
        git("read-tree", "HEAD", env=env)
        git("add", "-A", env=env)
        return git("write-tree", env=env)


def export(treeish, dest, name):
    """The files of treeish, a commit or a tree id, unpacked at dest/name."""
    archive = dest / f"{name}.tar"
    git("archive", "--output", str(archive), treeish)
    tree = dest / name
    with tarfile.open(archive) as tar:
        tar.extractall(tree, filter="data")
    archive.unlink()
    return tree


def run_once(tree, workload, seed):
    """run.py's last line and the CPU seconds it took, children included."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=4 * SECONDS + 300)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    if result is None or result.get("correct") is not True:
        sys.exit(f"bench_pairs: {workload} seed {seed} in {tree} did not run correctly "
                 f"(exit {done.returncode}):\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
    cpu = {"user": after.ru_utime - before.ru_utime, "sys": after.ru_stime - before.ru_stime}
    return result, cpu


def run_case(tree, name):
    """The case's record line from one fresh process on tree."""
    cores = str(len(os.sched_getaffinity(0)))
    env = {**os.environ, "PYTHONPATH": str(Path(tree) / "src"),
           "OPENBLAS_NUM_THREADS": cores, "OMP_NUM_THREADS": cores, "MKL_NUM_THREADS": cores}
    done = subprocess.run([sys.executable, "-c", CLI_RUN.format(argv=CASES[name][1])], cwd=tree, env=env,
                          capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"bench_pairs: case {name} in {tree} failed (exit {done.returncode}):\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def compare_case(args, trees, protocol):
    """Run the case once per side; the record's runs, or an exit when the
    two output digests differ."""
    runs = []
    for side in ("parent", "change"):
        result = run_case(trees[side], args.case)
        runs.append({"revision": "committed", "side": side, "case": args.case, "result": result})
        print(f"{args.case} {side}: wall_s {result['wall_s']:.4g}, ru_maxrss_mb {result['ru_maxrss_mb']:.4g}",
              file=sys.stderr, flush=True)
    digests = {r["side"]: r["result"]["output_sha256"] for r in runs}
    if digests["parent"] != digests["change"]:
        sys.exit(f"bench_pairs: case {args.case}: the output digests differ "
                 f"(parent {digests['parent'][:16]}, change {digests['change'][:16]}); nothing written")
    cores = len(os.sched_getaffinity(0))
    return {
        "case": CASES[args.case][0],
        "command": CASES[args.case][1],
        "protocol": (f"one run per side, each a fresh process with {cores} BLAS threads, the parent first; "
                     f"{protocol}; wall_s times the command alone, ru_maxrss_mb is the process peak"),
        "runs": runs,
    }


def compare_workloads(args, trees, protocol):
    """Ten alternating pairs per workload; the record's runs."""
    runs = []
    for workload in args.workload or WORKLOADS:
        for pair in range(1, PAIRS + 1):
            for side in ("parent", "change") if pair % 2 else ("change", "parent"):
                result, cpu = run_once(trees[side], workload, args.seed)
                runs.append({"revision": "committed", "side": side, "workload": workload,
                             "seed": args.seed, "pair": pair, "result": result, "cpu_s": cpu})
                wall = result["metrics"]["wall_s"]["value"]
                print(f"{workload} pair {pair} {side}: wall_s {wall:.4g}", file=sys.stderr, flush=True)
    return {
        "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> --seconds {SECONDS} --trace 0",
        "protocol": (f"{PAIRS} alternating pairs of parent and change per workload at seed {args.seed}; "
                     f"the parent first in odd pairs and the change first in even pairs; {protocol}"),
        "runs": runs,
    }


def machine():
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"{os.cpu_count()} cores ({len(os.sched_getaffinity(0))} usable), {platform.system()} "
            f"{platform.machine()}, Python {platform.python_version()}, numpy {numpy.__version__}, "
            f"{blas.get('name')} {blas.get('version')}")


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def summary(runs):
    """Lines comparing the two sides per workload and end-to-end metric."""
    out = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r
        pairs = [pr for pr in pairs.values() if len(pr) == 2]
        out.append(f"{workload}: {len(pairs)} pairs")
        out.append(f"  {'metric':<22}{'parent':>12}{'change':>12}{'delta':>9}{'parent IQR':>12}"
                   f"{'better':>8}{'worse':>7}")
        rows = [(m["name"], m["better"] == "lower", m["bound"],
                 lambda r, name=m["name"]: r["result"]["metrics"][name]["value"])
                for m in BENCHMARK["end_to_end"]]
        rows.append(("cpu_s", True, None, lambda r: r["cpu_s"]["user"] + r["cpu_s"]["sys"]))
        for name, lower, bound, value in rows:
            par = [value(pr["parent"]) for pr in pairs]
            chg = [value(pr["change"]) for pr in pairs]
            mp, mc = statistics.median(par), statistics.median(chg)
            q1, q3 = quartiles(par)
            sign = 1 if lower else -1
            better = sum(sign * (c - p) < 0 for p, c in zip(par, chg))
            worse = sum(sign * (c - p) > 0 for p, c in zip(par, chg))
            delta = (mc - mp) / mp if mp else 0.0
            flag = "  past its bound" if bound is not None and sign * delta > bound else ""
            out.append(f"  {name:<22}{mp:>12.4g}{mc:>12.4g}{delta:>+9.1%}{(q3 - q1) / mp if mp else 0:>12.1%}"
                       f"{better:>8}{worse:>7}{flag}")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", required=True, help="the record is written to BENCH_<label>.json")
    ap.add_argument("--what", required=True, help="one line on what the change does")
    ap.add_argument("--parent", default="HEAD", help="revision run as the parent (default: HEAD)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="repeat for several (default: every workload of BENCHMARK.json)")
    ap.add_argument("--case", choices=sorted(CASES), help="run this one CLI command per side instead")
    args = ap.parse_args(argv)
    if args.case and args.workload:
        ap.error("--case runs no workload")

    out = ROOT / f"BENCH_{args.label}.json"
    if out.exists():
        sys.exit(f"bench_pairs: {out.name} already exists; choose another --label")
    parent = git("rev-parse", "--short", args.parent)
    change = worktree_tree()
    if git("rev-parse", f"{parent}^{{tree}}") == change:
        sys.exit(f"bench_pairs: the working tree equals {parent}; pass the change's parent as --parent")
    protocol = (f"the parent run from a git archive of {parent} and the change from a git archive of the "
                f"working tree's tree {change[:12]}, side by side in one temporary directory")
    record = {"what": args.what, "parent": parent, "machine": machine()}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: export(treeish, Path(tmp), side) for side, treeish in (("parent", parent), ("change", change))}
        compare = compare_case if args.case else compare_workloads
        record.update(compare(args, trees, protocol))
    out.write_text(json.dumps(record, indent=1) + "\n")
    if not args.case:
        print("\n".join(summary(record["runs"])))
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
