"""mschemes benchmark: one workload per process, a closed loop with one caller.

    python3 perfbench/run.py --workload factor-sweep --seed 1 --seconds 25 --trace 0

The seed makes one pass of inputs (see workloads.py); the loop runs whole
passes, starting another only while it should end within --seconds.
Every output is checked by an independent oracle and by its sha256: a
repeat of a case must reproduce the first digest, and at the default seed
every digest must match golden.json.  The last line of stdout is one JSON
object: correct, attempted, failed and the metrics (end-to-end with
--trace 0, per layer with --trace 1).  Run from the repository root; the
library is imported from ./src.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN = HERE / "golden.json"
OUT = HERE / "out"
DEFAULT_SEED = 1
SETUP_PROBES = 2  # extra fresh processes that time set-up; the run's own makes 3


def pin_blas_threads():
    """At most one BLAS thread per usable core; must run before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= cores:
            os.environ[var] = str(cores)
    return cores


def set_up(workload):
    """Import mschemes and warm its process-wide caches; returns seconds."""
    t0 = time.perf_counter()
    import mschemes  # noqa: F401
    import workloads

    workloads.warm_up(workload)
    return time.perf_counter() - t0


def probe_set_up(workload):
    """Set-up time of a fresh process, as printed by --probe-setup."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--probe-setup"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def blas_info():
    import ctypes
    import glob

    import numpy

    cfg = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": cfg.get("name"), "version": cfg.get("version"), "threads": threads}


def run_record(cores):
    import numpy
    import scipy

    sha = None
    head = HERE.parent / ".git" / "HEAD"
    if head.exists():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = HERE.parent / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.exists() else None
        sha = ref
    return {"git_sha": sha, "nproc": os.cpu_count(), "usable_cores": cores,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_info()}


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Loop:
    """Closed loop over one pass of cases; records latency, digests, failures."""

    def __init__(self, cases, golden, execute):
        self.cases = cases
        self.golden = golden
        self.execute = execute  # case -> (exit code, output text)
        self.first = [None] * len(cases)
        self.latencies = []
        self.pass_times = []
        self.attempted = 0
        self.failures = []

    def one_pass(self):
        import workloads

        total = 0.0
        for i, case in enumerate(self.cases):
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                code, text = self.execute(case)
            except Exception as exc:  # a crash is a failed operation, not a crashed benchmark
                self.failures.append((i, f"{type(exc).__name__}: {exc}"))
                continue
            lat = time.perf_counter() - t0
            total += lat
            self.latencies.append(lat)
            reason = workloads.check(case, code, text)
            h = digest(text)
            if reason is None and self.first[i] is not None and h != self.first[i]:
                reason = "output differs from the first run of this case"
            if reason is None and self.golden is not None and h != self.golden[i]:
                reason = "output differs from golden.json"
            self.first[i] = self.first[i] or h
            if reason is not None:
                self.failures.append((i, reason))
        self.pass_times.append(total)

    def run(self, seconds):
        """Whole passes; another starts only if it should end within seconds."""
        t0 = time.perf_counter()
        self.one_pass()
        while time.perf_counter() - t0 + self.pass_times[-1] <= seconds:
            self.one_pass()

    def pass_digest(self):
        return digest("".join(h or "-" for h in self.first))


def end_to_end(loop, setup_s):
    lat_ms = sorted(v * 1000 for v in loop.latencies)
    q = statistics.quantiles(lat_ms, n=20, method="inclusive") if len(lat_ms) > 1 else lat_ms * 19
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": statistics.median(loop.pass_times), "unit": "s"},
        "throughput_ops_per_s": {"value": len(lat_ms) / sum(loop.pass_times), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms"},
        "latency_p95_ms": {"value": q[18], "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--write-golden", action="store_true",
                    help="record the default seed's output digests in golden.json")
    args = ap.parse_args(argv)

    cores = pin_blas_threads()
    if not (SRC / "mschemes" / "__init__.py").is_file():
        print(f"perfbench: no mschemes package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    if args.probe_setup:
        print(set_up(args.workload))
        return 0

    setups = [probe_set_up(args.workload) for _ in range(SETUP_PROBES)]
    setups.append(set_up(args.workload))
    setup_s = statistics.median(setups)

    cases = workloads.cases_for(args.workload, args.seed)
    golden = None
    if args.seed == DEFAULT_SEED and GOLDEN.exists() and not args.write_golden:
        golden = json.loads(GOLDEN.read_text()).get(args.workload)
        if golden is not None and len(golden) != len(cases):
            golden = [""] * len(cases)  # a different pass: every output mismatches

    loop = Loop(cases, golden, workloads.execute)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "cases_per_pass": len(cases), "setup_samples_s": setups}
    if args.trace:
        from tracer import Tracer

        loop.run(args.seconds / 2)
        untraced = statistics.fmean(loop.pass_times)
        tracer = Tracer()
        traced_loop = Loop(cases, golden, lambda case: tracer.span("bench.op", workloads.execute, case))
        traced_loop.first = loop.first
        tracer.install()
        try:
            for _ in range(len(loop.pass_times)):
                traced_loop.one_pass()
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics(traced_loop.pass_times, untraced)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}.npz")
        record["spans"] = len(tracer.start)
        loop.attempted += traced_loop.attempted
        loop.failures += traced_loop.failures
    else:
        loop.run(args.seconds)
        metrics = end_to_end(loop, setup_s)
        record["latency_samples"] = len(loop.latencies)
    record["pass_s"] = loop.pass_times
    record["output_sha256"] = loop.pass_digest()
    record["failures"] = loop.failures[:20]
    record.update(run_record(cores))

    if args.write_golden:
        if args.seed != DEFAULT_SEED or loop.failures:
            print("perfbench: golden digests come from a clean run at the default seed", file=sys.stderr)
            return 1
        table = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        table[args.workload] = loop.first
        GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")

    print(json.dumps(record, sort_keys=True))
    for key, m in metrics.items():
        print(f"{key:<45} {m['value']:>14.6g} {m['unit']}")
    failed = len(loop.failures)
    print(json.dumps({"correct": failed == 0, "attempted": loop.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
