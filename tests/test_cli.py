import ast
import builtins
import inspect
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from mschemes import assoc, cli, factor, gf, levels, linalg, mscheme
from mschemes.cli import linnik_p1s, main, smooth_divisor
from mschemes.gf import PreconditionFailed, is_prime


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_factor_x3m1(capsys):
    code, payload = run_cli(capsys, ["factor", "--p", "7", "--poly", "6,0,0,1"])
    assert code == 0
    assert payload["status"] == "factored"
    assert payload["factor"] == [6, 1]  # x - 1


def test_factor_not_split(capsys):
    code, payload = run_cli(capsys, ["factor", "--p", "7", "--poly", "1,0,1"])
    assert code == 3
    assert payload["error"] == "NotSplit"


def test_factor_prime_degree(capsys):
    code, payload = run_cli(capsys, ["factor", "--p", "11", "--poly", "10,0,0,0,0,1", "--r", "2", "--l", "1"])
    assert code == 0
    assert payload["status"] == "factored"


def test_factor_smooth_divisor_too_small_exit_code(capsys):
    # n = 7: the 2-smooth part of n-1 is 2, below sqrt(7) + 1
    argv = ["factor", "--p", "29", "--poly", "28,0,0,0,0,0,0,1", "--r", "2", "--l", "1"]
    code, payload = run_cli(capsys, argv)
    assert code == 4
    assert payload["error"] == "SmoothDivisorTooSmall"


def test_factor_smoothness_bound_below_two(capsys):
    argv = ["factor", "--p", "29", "--poly", "28,0,0,0,0,0,0,1", "--r", "1", "--l", "1"]
    code, payload = run_cli(capsys, argv)
    assert code == 3
    assert payload["error"] == "ValueError"


def test_factor_negative_coefficient_extension(capsys):
    # x^2 - 1 over F_25: -1 is minus the element 1, not the element of index 24
    code, payload = run_cli(capsys, ["factor", "--p", "5", "--d", "2", "--poly=-1,0,1"])
    assert code == 0
    assert payload["factor"] == [4, 1]  # x - 1


# (x-2)(x-3)(x-5) up to m = 3: the longest int64 sum has 15 residue products,
# so p is refused once 15 (p-1)^2 >= 2^63, i.e. p - 1 > 784150157
BOUNDARY_POLY = "--poly=-30,31,-10,1"


def test_factor_prime_below_int64_bound(capsys):
    p = 784150117
    code, payload = run_cli(capsys, ["factor", "--p", str(p), BOUNDARY_POLY, "--m", "3"])
    assert code == 0
    assert payload["factor"] == [p - 2, 1]  # x - 2


def test_factor_prime_beyond_int64_bound_exit_code(capsys):
    for p in (784150261, 4294967311):
        code, payload = run_cli(capsys, ["factor", "--p", str(p), BOUNDARY_POLY, "--m", "3"])
        assert code == 4
        assert payload["error"] == "PrimeTooLarge"


def test_cli_loads_no_scipy():
    # the int64 level kernel at the boundary prime, and orbit colouring
    script = f"""
import sys
from mschemes import cli
assert cli.main(["factor", "--p", "784150117", "{BOUNDARY_POLY}", "--m", "3"]) == 0
assert cli.main(["orbit-scan", "--catalog", "Z7", "--m", "3"]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_module_entry_point_runs_without_warnings():
    # runpy warns when importing the package has already loaded mschemes.cli
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    done = subprocess.run([sys.executable, "-W", "error", "-m", "mschemes.cli", "smooth", "--n", "12", "--r", "3"],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300)
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout)["smooth_divisor"] == 12


def test_factor_stuck_exit_code(capsys):
    # degree-5 stuck-at-m=2 case over F_11
    code, payload = run_cli(capsys, ["factor", "--p", "11", "--poly", "0,1,4,8,8,1", "--m", "2"])
    assert code == 2
    assert payload["status"] == "stuck"
    assert payload["certificate"]["valid"]


def test_scheme_report_13_6(capsys):
    code, payload = run_cli(capsys, ["scheme-report", "--p", "13", "--e", "6"])
    assert code == 0
    assert payload["valencies"][1:] == [2] * 6
    assert payload["indistinguishing"][1:] == [1] * 6  # c(g) = k-1
    assert payload["small_intersection"]["2"] is not None
    assert payload["identity_suite"] == "ok"


def test_scheme_report_verifies_once(capsys, monkeypatch):
    # the report's tensor is the only caller: cyclotomic_scheme checks the
    # valencies from the color counts of row 0
    calls = []
    verify = assoc.verify_scheme

    def counting(s):
        calls.append(s)
        return verify(s)

    monkeypatch.setattr(assoc, "verify_scheme", counting)
    code, _ = run_cli(capsys, ["scheme-report", "--p", "13", "--e", "6"])
    assert code == 0
    assert len(calls) == 1


def test_scheme_report_bad_e(capsys):
    code, payload = run_cli(capsys, ["scheme-report", "--p", "13", "--e", "5"])
    assert code == 3


def test_scheme_report_7_2_antisymmetric_pair(capsys):
    code, payload = run_cli(capsys, ["scheme-report", "--p", "7", "--e", "2"])
    assert code == 0
    assert payload["adjoint"] == [0, 2, 1]  # the two classes are mutual adjoints


def test_orbit_scan_z5(capsys):
    code, payload = run_cli(capsys, ["orbit-scan", "--catalog", "Z5", "--m", "4"])
    assert code == 0
    entry = payload["entries"][0]
    assert entry["homogeneous"] and entry["antisymmetric"]
    assert entry["matching_count"] > 0


def test_orbit_scan_z6(capsys):
    code, payload = run_cli(capsys, ["orbit-scan", "--catalog", "Z6", "--m", "4"])
    assert code == 0
    entry = payload["entries"][0]
    assert not entry["antisymmetric"]


def test_orbit_scan_catalog_sweep(capsys):
    code, payload = run_cli(capsys, ["orbit-scan", "--catalog", "all", "--m", "4"])
    assert code == 0  # zero conjecture-evidence failures
    assert payload["conjecture_failures"] == 0


def test_orbit_scan_custom_gens(capsys):
    code, payload = run_cli(capsys, ["orbit-scan", "--gens", "1,2,3,4,0", "--m", "3"])
    assert code == 0
    assert payload["homogeneous"]


def test_orbit_scan_bad_gens(capsys):
    code, payload = run_cli(capsys, ["orbit-scan", "--gens", "1,1,0", "--m", "2"])
    assert code == 3


def test_orbit_scan_gens_past_int8_points(capsys):
    # a 130-cycle: tuple entries reach 129, past int8.  Z_130 acts freely
    # on V^(s), so Burnside counts perm(130, s) / 130 orbits at level s
    gens = ",".join(str((i + 1) % 130) for i in range(130))
    code, payload = run_cli(capsys, ["orbit-scan", "--gens", gens, "--m", "2"])
    assert code == 0
    assert payload["colors"] == [1, 129] == [math.perm(130, s) // 130 for s in (1, 2)]
    assert payload["homogeneous"] and payload["is_scheme"]


def test_orbit_scan_unknown_group(capsys):
    code, payload = run_cli(capsys, ["orbit-scan", "--catalog", "Z99", "--m", "3"])
    assert code == 3
    assert payload["status"] == "error" and payload["error"] == "UnknownGroup"
    assert "Z99" in payload["message"]


def test_orbit_scan_missing_input(capsys):
    code, payload = run_cli(capsys, ["orbit-scan", "--m", "3"])
    assert code == 3
    assert payload["status"] == "error" and payload["error"] == "MissingInput"


def test_orbit_scan_internal_failure_exit_code(capsys, monkeypatch):
    # a matching search that returns a wrong matching fails the recheck:
    # exit 6 with a JSON error, not a traceback
    search = mscheme._level_matchings

    def with_bad_row(pi, s):
        color, pair, table = search(pi, s)
        return np.append(color, -1), np.append(pair, len(table)), table + [((1,), (2,))]

    monkeypatch.setattr(mscheme, "_level_matchings", with_bad_row)
    code, payload = run_cli(capsys, ["orbit-scan", "--catalog", "Z5", "--m", "3"])
    assert code == 6
    assert payload["status"] == "error" and payload["error"] == "AssertionError"


def test_factor_theorem_contradiction_exit_code(capsys, monkeypatch):
    def contradiction(*args, **kwargs):
        raise assoc.TheoremContradiction("prime-degree refinement must never get stuck")

    monkeypatch.setattr(factor, "prime_degree_factor", contradiction)
    argv = ["factor", "--p", "11", "--poly", "10,0,0,0,0,1", "--r", "2", "--l", "1"]
    code, payload = run_cli(capsys, argv)
    assert code == 6
    assert payload["error"] == "TheoremContradiction"


@pytest.mark.parametrize(
    "source",
    [
        ["--catalog", "Z13", "--m", "5", "--work-cap", "10000"],  # level 4 has 17160 tuples
        ["--gens", "1,2,3,4,0", "--m", "3", "--work-cap", "10"],  # level 2 has 20 tuples
    ],
    ids=["catalog", "gens"],
)
def test_orbit_scan_work_cap(capsys, source):
    code, payload = run_cli(capsys, ["orbit-scan"] + source)
    assert code == 4
    assert payload["error"] == "WorkCapExceeded"


def test_linnik_examples(capsys):
    assert linnik_p1s(8) == 17
    assert linnik_p1s(4) == 5
    assert linnik_p1s(1) == 2
    code, payload = run_cli(capsys, ["linnik", "--s", "8"])
    assert code == 0 and payload["prime"] == 17


def test_linnik_matches_direct_scan():
    for s in range(1, 60):
        direct = None
        n = 1
        while direct is None:
            n += s
            if is_prime(n):
                direct = n
        assert linnik_p1s(s) == direct


def test_smooth_examples(capsys):
    assert smooth_divisor(12, 3) == 12
    assert smooth_divisor(21, 2) == 1
    assert smooth_divisor(1, 5) == 1
    code, payload = run_cli(capsys, ["smooth", "--n", "12", "--r", "3"])
    assert code == 0 and payload["smooth_divisor"] == 12


def test_smooth_matches_factorization_oracle():
    def factorize(n):
        out = {}
        d = 2
        while d * d <= n:
            while n % d == 0:
                out[d] = out.get(d, 0) + 1
                n //= d
            d += 1
        if n > 1:
            out[n] = out.get(n, 0) + 1
        return out

    for n in list(range(1, 300)) + [720, 1024, 9973, 10000]:
        for r in (2, 3, 5):
            expect = 1
            for p, e in factorize(n).items():
                if p <= r:
                    expect *= p**e
            assert smooth_divisor(n, r) == expect


def test_cli_json_deterministic(capsys, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    main(["factor", "--p", "7", "--poly", "6,0,0,1", "--json", str(out1)])
    capsys.readouterr()
    main(["factor", "--p", "7", "--poly", "6,0,0,1", "--json", str(out2)])
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()


def test_factor_past_the_reduction_matrix_cap(capsys):
    # prod_{r=1..63} (x - r) over F_67: level 2 has dim 63 * 62 = 3906 and
    # 125 * 123 = 15375 product-space cells, just past REDUCTION_MATRIX_CAP
    ctx = gf.field_ctx(67, 1)
    f = gf.Poly(ctx, [1])
    for r in range(1, 64):
        f = f * gf.Poly(ctx, [-r, 1])
    poly = ",".join(str(c) for c in f.int_coeffs())
    code, payload = run_cli(capsys, ["factor", "--p", "67", "--poly", poly, "--m", "2"])
    assert code == 4
    assert payload["error"] == "DimCapExceeded"
    assert payload["message"] == ("level 2 reduction matrix has 15375 x 3906 = 60054750 cells, "
                                  f"above the cap {levels.REDUCTION_MATRIX_CAP}")


def test_every_error_class_has_one_family():
    families = (ValueError, PreconditionFailed, AssertionError)
    seen = []
    for module in (gf, factor, levels, linalg, mscheme, assoc, cli):
        for name, cls in vars(module).items():
            if inspect.isclass(cls) and issubclass(cls, BaseException) and cls.__module__ == module.__name__:
                assert sum(issubclass(cls, fam) for fam in families) == 1, f"{module.__name__}.{name}"
                seen.append(cls)
    assert PreconditionFailed in seen and factor.InvalidSystem in seen and len(seen) > 20
    # no bare built-in is raised outside the families: each raise names a
    # package class, ValueError, AssertionError or the CLI's SystemExit
    bare_builtins = {name for name, obj in vars(builtins).items() if inspect.isclass(obj)
                     and issubclass(obj, BaseException)} - {"ValueError", "AssertionError", "SystemExit"}
    bare = []
    for folder, _, names in os.walk(os.path.dirname(factor.__file__)):
        for name in sorted(n for n in names if n.endswith(".py")):
            path = os.path.join(folder, name)
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            for node in ast.walk(tree):
                exc = node.exc if isinstance(node, ast.Raise) else None
                exc = exc.func if isinstance(exc, ast.Call) else exc
                if isinstance(exc, ast.Name) and exc.id in bare_builtins:
                    bare.append(f"{path}:{node.lineno} {exc.id}")
    assert not bare, bare


def test_typed_errors_are_still_their_builtins():
    # each replaces a bare built-in raise, so callers that catch the
    # built-in keep working; the family is ValueError (exit 3)
    ctx = gf.field_ctx(7, 1)
    pi = mscheme.MCollection(3, {1: [0, 0, 0]})
    cases = [(ctx.zero().inverse, gf.DivisionByZero, ZeroDivisionError),
             (lambda: divmod(gf.Poly(ctx, [1, 1]), gf.Poly(ctx, [])), gf.DivisionByZero, ZeroDivisionError),
             (lambda: gf.Poly(ctx, [1]) + 1, gf.NotAPoly, TypeError),
             (lambda: pi.codes_of_color(2, 0), mscheme.NoSuchColor, IndexError),
             (lambda: pi.codes_of_color(1, 1), mscheme.NoSuchColor, IndexError)]
    for call, cls, builtin in cases:
        with pytest.raises(cls) as exc:
            call()
        assert isinstance(exc.value, builtin) and isinstance(exc.value, ValueError)


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so invariants raise explicitly
    found = []
    for folder, _, names in os.walk(os.path.dirname(factor.__file__)):
        for name in sorted(n for n in names if n.endswith(".py")):
            path = os.path.join(folder, name)
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            found += [f"{path}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found


def test_error_family_map():
    caps = (gf.ScanCapExceeded, factor.DimCapExceeded, mscheme.WorkCapExceeded, factor.PrimeTooLarge,
            factor.NotPrimeDegree, factor.SmoothDivisorTooSmall, mscheme.DepthExhausted)
    assert all(issubclass(cls, PreconditionFailed) for cls in caps)
    assert mscheme.PreconditionFailed is PreconditionFailed
    assert issubclass(factor.InvalidSystem, AssertionError)
    # caller input (exit 3); gf.Overflow is also raised inside the pipeline,
    # while iks_factor re-raises a NotAMatching of its own as InvalidSystem
    assert all(issubclass(cls, ValueError) for cls in (factor.TrivialAutomorphism, factor.NotAMatching, gf.Overflow))


def _raise(exc):
    def fail(*args, **kwargs):
        raise exc

    return fail


def test_factor_characteristic_below_degree_exit_code(capsys):
    # x(x+1)(x+theta) splits over F_4, but fibre counts 0..3 do not fit in F_2
    code, payload = run_cli(capsys, ["factor", "--p", "2", "--d", "2", "--poly", "0,2,3,1"])
    assert code == 4
    assert payload["error"] == "PreconditionFailed"


def test_factor_scan_cap_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(factor, "find_nonresidue", _raise(gf.ScanCapExceeded("no nonresidue within scan cap")))
    code, payload = run_cli(capsys, ["factor", "--p", "7", "--poly", "6,0,0,1"])
    assert code == 4
    assert payload["error"] == "ScanCapExceeded"


def test_factor_invalid_system_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(factor.IdealSystem, "_split", _raise(factor.InvalidSystem("split parts must partition")))
    code, payload = run_cli(capsys, ["factor", "--p", "7", "--poly", "6,0,0,1"])
    assert code == 6
    assert payload["error"] == "InvalidSystem"


def test_linnik_scan_cap_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(cli, "LINNIK_SCAN_CONSTANT", 0)
    code, payload = run_cli(capsys, ["linnik", "--s", "8"])
    assert code == 4
    assert payload["error"] == "ScanCapExceeded"


def test_scheme_report_internal_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(assoc, "check_tensor_identities", _raise(AssertionError("identity suite crashed")))
    code, payload = run_cli(capsys, ["scheme-report", "--p", "13", "--e", "6"])
    assert code == 6
    assert payload["status"] == "error" and payload["error"] == "AssertionError"


def test_scheme_report_refuses_oversized_up_front(capsys, monkeypatch):
    # 10^12 pairs would need terabytes; the refusal comes before the
    # primitive-root scan and before any array of the scheme's size
    monkeypatch.setattr(assoc, "least_primitive_root", _raise(AssertionError("ran past the size check")))
    tracemalloc.start()
    try:
        code, payload = run_cli(capsys, ["scheme-report", "--p", "1000003", "--e", "2"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 4
    assert payload["status"] == "error" and payload["error"] == "SchemeTooLarge"
    assert peak < 2**20


def test_scheme_pair_cap_boundary(monkeypatch):
    # 4093 is the largest prime with p^2 <= SCHEME_PAIR_CAP = 2^24; the next, 4099, is past it
    monkeypatch.setattr(assoc, "least_primitive_root", _raise(AssertionError("ran past the size check")))
    assert 4093**2 <= assoc.SCHEME_PAIR_CAP < 4099**2
    with pytest.raises(AssertionError, match="ran past the size check"):
        assoc.cyclotomic_scheme(4093, 4)
    with pytest.raises(assoc.SchemeTooLarge, match="4099"):
        assoc.cyclotomic_scheme(4099, 2)


@pytest.mark.parametrize("p", [1201, 151])
def test_scheme_report_refuses_many_relations_up_front(capsys, monkeypatch, p):
    # e = p - 1 gives p relations: 1201^3 int64 counts would take 12.9 GiB,
    # and 151^3 took 37 s and 2.86 GB in all; the refusal comes before the
    # tensor's counts and before the scheme check
    monkeypatch.setattr(assoc, "_pair_counts", _raise(AssertionError("ran past the relation check")))
    start = time.perf_counter()
    code, payload = run_cli(capsys, ["scheme-report", "--p", str(p), "--e", str(p - 1)])
    assert time.perf_counter() - start < 1
    assert code == 4
    assert payload["status"] == "error" and payload["error"] == "SchemeTooLarge"
    assert str(p**3) in payload["message"]


def test_relation_cube_cap_admits_every_tested_report():
    # criteria 1-3 run every divisor e of p - 1 for p <= 97, so 97 relations
    assert 97**3 <= assoc.RELATION_CUBE_CAP < 151**3


@pytest.mark.parametrize(
    "argv",
    [["linnik", "--s", "0"], ["smooth", "--n", "0", "--r", "3"], ["factor", "--p", "6", "--poly", "1,1"]],
    ids=["linnik", "smooth", "factor"],
)
def test_invalid_input_is_json(capsys, argv):
    code, payload = run_cli(capsys, argv)
    assert code == 3
    assert payload["status"] == "error"


def test_parser_built_once(capsys, monkeypatch):
    built = cli.build_parser()
    monkeypatch.setattr(cli.argparse, "ArgumentParser", _raise(AssertionError("parser rebuilt")))
    assert cli.build_parser() is built
    code, _ = run_cli(capsys, ["smooth", "--n", "12", "--r", "3"])
    assert code == 0
