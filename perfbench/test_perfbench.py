"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import itertools
import json
import sys
from math import comb
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_byte_identical_per_seed(workload):
    a = json.dumps(workloads.cases_for(workload, 7), sort_keys=True)
    b = json.dumps(workloads.cases_for(workload, 7), sort_keys=True)
    assert a == b
    assert a != json.dumps(workloads.cases_for(workload, 8), sort_keys=True)


def _explicit_cosets(p, n):
    """Every c + t*mu_n with mu_n of order n in F_p*, built by enumeration."""
    if n < 3 or (p - 1) % n:
        return set()
    mu = [z for z in range(1, p) if pow(z, n, p) == 1]
    return {frozenset((c + t * z) % p for z in mu) for c in range(p) for t in range(1, p)}


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_coset_rejection_removes_exactly_the_mu_cosets(p):
    for n in range(3, min(p, 6) + 1):
        flagged = {frozenset(s) for s in itertools.combinations(range(p), n) if workloads.is_mu_coset(s, p)}
        assert flagged == _explicit_cosets(p, n)
    for q, deg, sets in workloads.sweep_strata():
        if q == p:
            cosets = _explicit_cosets(p, deg)
            assert len(sets) == comb(p, deg) - len(cosets)
            assert not {frozenset(s) for s in sets} & cosets


def test_quintic_cosets_over_f11_are_the_22_orbits():
    assert len(_explicit_cosets(11, 5)) == 22
    for case in workloads.deep_cases(3):
        assert workloads.is_mu_coset(case["roots"], case["p"])
        assert workloads.roots_of(case["coeffs"], case["p"]) == case["roots"]


def test_self_time_on_a_synthetic_nest():
    tr = Tracer()
    spans = [("root", -1, 0.0, 10.0), ("a", 0, 1.0, 4.0), ("b", 0, 5.0, 9.0), ("c", 2, 6.0, 7.0),
             ("a", 2, 7.5, 8.5)]
    for name, parent, start, end in spans:
        tr.name.append(tr.name_id(name))
        tr.parent.append(parent)
        tr.start.append(start)
        tr.end.append(end)
    s = tr.summary()
    assert s["root"] == (1, 10.0, 3.0)
    assert s["a"] == (2, 4.0, 4.0)
    assert s["b"] == (1, 4.0, 2.0)
    assert s["c"] == (1, 1.0, 1.0)
    assert sum(v[2] for v in s.values()) == 10.0


def test_live_spans_nest_and_self_times_cover_the_root():
    tr = Tracer()

    def leaf():
        return sum(range(1000))

    def mid():
        return tr.span("leaf", leaf) + tr.span("leaf", leaf)

    tr.span("root", tr.span, "mid", mid)
    s = tr.summary()
    assert s["leaf"][0] == 2 and s["mid"][0] == 1
    assert list(tr.parent) == [-1, 0, 1, 1]
    assert abs(sum(v[2] for v in s.values()) - s["root"][1]) < 1e-9


def test_oracle_rejects_planted_wrong_factors():
    p = 11
    f = workloads.poly_from_roots([1, 3, 4], p)
    assert workloads.check_factor(f, workloads.poly_from_roots([3], p), p) is None
    assert workloads.check_factor(f, workloads.poly_from_roots([2], p), p) is not None  # not a root of f
    assert workloads.check_factor(f, workloads.poly_from_roots([1, 3, 4], p), p) is not None  # not proper
    assert workloads.check_factor(f, [1], p) is not None  # constant
    assert workloads.check_factor(f, [3 * 8 % p, 8], p) is not None  # 8(x - 3): not monic
    assert workloads.check_factor(f, [1, 0, 1], p) is not None  # x^2 + 1 has no roots in F_11
    case = {"kind": "factor", "p": p, "m": 3, "coeffs": f}
    text = json.dumps({"status": "factored", "factor": workloads.poly_from_roots([2], p)})
    assert workloads.check(case, 0, text) is not None
    assert workloads.check(case, 2, text) is not None


def test_oracle_accepts_the_library_and_catches_a_tampered_report():
    for case in ({"kind": "factor", "p": 7, "m": 3, "coeffs": workloads.poly_from_roots([0, 2, 5], 7)},
                 {"kind": "scheme-report", "p": 13, "e": 4},
                 {"kind": "orbit-scan", "catalog": "D5", "m": 3}):
        code, text = workloads.execute(case)
        assert workloads.check(case, code, text) is None
    out = json.loads(text)
    out["entries"][0]["colors"][-1] += 1
    assert workloads.check(case, 0, json.dumps(out)) is not None
    case = {"kind": "scheme-report", "p": 13, "e": 4}
    out = json.loads(workloads.execute(case)[1])
    out["deviation"]["rows"][5][3] += 1
    assert workloads.check(case, 0, json.dumps(out)) is not None


def test_burnside_counts_free_cyclic_action():
    assert workloads.burnside_colors([(1, 2, 3, 4, 0)], 3) == [1, 4, 12]


def _fake_cases():
    return [{"kind": "factor", "p": 7, "m": 2, "coeffs": workloads.poly_from_roots([r, r + 1], 7)}
            for r in range(3)]


def _right_answer(case):
    root = workloads.roots_of(case["coeffs"], 7)[0]
    return 0, json.dumps({"status": "factored", "factor": workloads.poly_from_roots([root], 7)})


def test_digest_mismatch_with_golden_counts_as_failure():
    cases = _fake_cases()
    clean = run.Loop(cases, None, _right_answer)
    clean.one_pass()
    assert clean.failures == [] and clean.attempted == 3
    golden = list(clean.first)
    golden[1] = "0" * 64
    loop = run.Loop(cases, golden, _right_answer)
    loop.one_pass()
    assert [i for i, _ in loop.failures] == [1]


def test_digest_mismatch_between_repeats_counts_as_failure():
    calls = []

    def drifting(case):
        calls.append(1)
        code, text = _right_answer(case)
        return code, text + (" " if len(calls) > 3 else "")

    loop = run.Loop(_fake_cases(), None, drifting)
    loop.one_pass()
    loop.one_pass()
    assert loop.attempted == 6 and len(loop.failures) == 3


def test_exception_counts_as_failure():
    def crash(case):
        raise RuntimeError("boom")

    loop = run.Loop(_fake_cases(), None, crash)
    loop.one_pass()
    assert len(loop.failures) == 3 and loop.latencies == []


def _spec():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_metric_names_and_units_match_benchmark_json():
    loop = run.Loop(_fake_cases(), None, _right_answer)
    loop.one_pass()
    e2e = run.end_to_end(loop, 1.0)
    assert {k: v["unit"] for k, v in e2e.items()} == {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    layers = Tracer().layer_metrics([1.0], 1.0)
    assert {k: v["unit"] for k, v in layers.items()} == {m["name"]: m["unit"] for m in _spec()["per_layer"]}


def test_refuses_to_run_without_the_library(tmp_path):
    import shutil
    import subprocess

    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "factor-sweep", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
