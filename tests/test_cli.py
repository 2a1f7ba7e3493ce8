"""CLI contract tests: exit codes, output schemas, golden files.

Golden files pin the exact (seeded, phase-pinned) outputs of every
subcommand on every builtin.  Regenerate with REGEN_GOLDEN=1 after an
intentional output change.
"""

import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import itoalg as ia
from itoalg import cli
from itoalg.adsl import parse, serialize
from itoalg.cli import main
from itoalg.core import complex_pairs

from conftest import make_catalog

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN = os.environ.get("REGEN_GOLDEN") == "1"

CLASSICAL = {"newton", "wiener", "poisson", "wiener+poisson"}
NON_FAITHFUL = {"zero_intensity_poisson"}
FAITHFUL = sorted(set(make_catalog()) - NON_FAITHFUL)
# tables outside the catalog that ito_files also writes, by name
EXTRA_TABLES = {
    # a jump of 1e-8 at rate 1e22: 1e22 events per cell at dt = 1, above numpy's Poisson limit
    "oversized_rate": "basis dt dm\ndeath dt\nstate dt = 1\nmul dm dm = 1e-8 dm + 1e6 dt\n",
    # a literal that overflows to inf: a parse error at its token
    "inf_literal": "basis dt dw\ndeath dt\nstate dt = 1\nmul dw dw = 1e400 dt\n",
    # jumps of 0.01 at rate 1e4: 500 events per cell at dt = 0.05, drawn per cell
    "high_rate": "basis dt dm\ndeath dt\nstate dt = 1\nmul dm dm = 0.01 dm + 1 dt\n",
    # two Brownian components with covariance [[1, 0.6], [0.6, 2]]
    "correlated": "basis dt a b\ndeath dt\nstate dt = 1\n"
                  "mul a a = 1 dt\nmul a b = 0.6 dt\nmul b a = 0.6 dt\nmul b b = 2 dt\n",
    "wiener2": serialize(ia.orthogonal_sum(ia.wiener(), ia.wiener())),
    # a jump of 100 at rate 1e-4 beside a Brownian part: the atom hardly ever fires
    "silent_atom": "basis dt dw dm\ndeath dt\nstate dt = 1\n"
                   "mul dw dw = 1 dt\nmul dm dm = 100 dm + 1 dt\n",
    # a 1e-6 associativity defect, which also breaks star anti-multiplicativity
    "assoc_defect": "basis dt dw dm\ndeath dt\nstate dt = 1\nmul dw dw = 1 dt\n"
                    "mul dm dm = 1 dm + 1 dt\nmul dw dm = 1e-6 dm\n",
    # 16 weights: 33 symbols, and a representation of mostly zero entries
    "periodic_wiener16": serialize(ia.periodic_wiener(16, [0.5 + k / 16 for k in range(16)])),
}


@pytest.fixture(scope="module")
def ito_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ito")
    paths = {}
    texts = {name: serialize(alg) for name, alg in make_catalog().items()} | EXTRA_TABLES
    for name, text in texts.items():
        path = tmp / f"{name.replace('+', '_plus_')}.ito"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    return paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*argv, **env):
    """``python -m itoalg.cli *argv`` in a new process that imports this itoalg, with ``env`` set."""
    path = os.pathsep.join(
        [str(Path(ia.__file__).parents[1]), *filter(None, [os.environ.get("PYTHONPATH")])])
    return subprocess.run([sys.executable, "-m", "itoalg.cli", *argv], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path, **env), check=False)


def normalize(obj):
    """Round floats and drop timing fields so goldens are stable."""
    if isinstance(obj, dict):
        return {k: normalize(v) for k, v in sorted(obj.items()) if k != "runtime_ms"}
    if isinstance(obj, list):
        return [normalize(v) for v in obj]
    if isinstance(obj, float):
        rounded = round(obj, 9)
        return 0.0 if rounded == 0 else rounded
    return obj


def _no_constant(token):
    raise ValueError(f"{token} is not a JSON value")


def strict_loads(out: str):
    """``out`` parsed as RFC 8259 JSON, which has no NaN, Infinity or -Infinity token."""
    return json.loads(out, parse_constant=_no_constant)


def check_golden(name: str, payload):
    GOLDEN_DIR.mkdir(exist_ok=True)
    path = GOLDEN_DIR / f"{name}.json"
    data = normalize(payload)
    if REGEN or not path.exists():
        path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        if REGEN:
            return
    expected = json.loads(path.read_text(encoding="utf-8"))
    assert data == expected, f"golden mismatch for {name}"


class TestExitCodes:
    def test_check_ok(self, capsys, ito_files):
        code, out, _ = run_cli(capsys, "check", ito_files["wiener"])
        assert code == 0
        assert "pass" in out

    def test_check_non_faithful_prints_quotient(self, capsys, ito_files):
        code, out, _ = run_cli(capsys, "check", ito_files["zero_intensity_poisson"])
        assert code == 3
        assert "basis dt" in out  # the 1-dim quotient

    def test_check_axiom_failure(self, capsys, tmp_path):
        bad = tmp_path / "bad.ito"
        bad.write_text("basis dt dw\ndeath dt\nstate dt = 1\nmul dw dw = -1 dt\n")
        code, out, err = run_cli(capsys, "check", str(bad))
        assert code == 2
        assert "state_positive" in out

    def test_check_overflowing_gram_fails_positivity(self, capsys, tmp_path):
        # the symmetrized Gram matrix overflows to inf; its NaN eigenvalues
        # must fail state_positive instead of passing silently
        huge = tmp_path / "huge.ito"
        huge.write_text("basis dt x\ndeath dt\nstate dt = 1\nmul x x = 1.7e308 dt\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, _ = run_cli(capsys, "check", str(huge))
        assert code == 2
        assert "FAIL  state_positive" in out

    @pytest.mark.parametrize(
        "argv",
        [("represent",), ("decompose",), ("simulate", "--model", "classical", "--paths", "100")],
    )
    def test_axiom_failure_exits_2_without_traceback(self, capsys, tmp_path, argv):
        bad = tmp_path / "bad.ito"
        bad.write_text("basis dt dw\ndeath dt\nstate dt = 1\nmul dw dw = -1 dt\n")
        code, _, err = run_cli(capsys, argv[0], str(bad), *argv[1:])
        assert code == 2
        assert "FAIL  state_positive" in err

    @pytest.mark.parametrize(
        "argv",
        [("check",), ("check", "--json"), ("represent",), ("decompose",),
         ("norms", "--element", "1 dt"), ("simulate", "--model", "fock"),
         ("simulate", "--model", "classical", "--paths", "100")],
        ids=["check", "check-json", "represent", "decompose", "norms", "fock", "classical"],
    )
    def test_each_failed_axiom_is_reported_once(self, capsys, ito_files, argv):
        code, out, err = run_cli(capsys, argv[0], ito_files["assoc_defect"], *argv[1:])
        assert code == 2
        assert "line 0, col 0" not in err
        for name in ("associativity", "star_antimultiplicative"):
            assert (out + err).count(name) == 1, (name, out, err)

    @pytest.mark.parametrize(
        "target, argv, message",
        [
            (
                "_make_builtin",
                ("catalog", "--name", "hp", "--params", "d=100"),
                "Unable to allocate 15.4 TiB for an array with shape (10201, 10201, 10201)",
            ),
            ("_make_builtin", ("catalog", "--name", "group_levy", "--params", "group=z100000"), ""),
            (
                "classical_paths",
                ("simulate", "wiener", "--model", "classical", "--paths", "1000000000000"),
                "Unable to allocate 7.28 TiB for an array with shape (1000000000000, 1)",
            ),
        ],
        ids=["hp", "group_levy-no-message", "classical"],
    )
    def test_refused_allocation_exits_2_with_one_line(
        self, capsys, monkeypatch, ito_files, target, argv, message
    ):
        # the stand-in raises as numpy does when the machine refuses the
        # allocation; a real request could hang under memory overcommit
        def refuse(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, target, refuse)
        argv = [ito_files.get(a, a) for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {message or 'out of memory'}\n"

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (("simulate", "hp1", "--model", "fock", "--t", "nan"), 2, "error: t/dt must be finite"),
            (("simulate", "hp1", "--model", "fock", "--t", "inf"), 2, "error: t/dt must be finite"),
            (
                ("simulate", "hp1", "--model", "fock", "--t", "1e300", "--dt", "1e-300"),
                2,
                "error: t/dt must be finite",
            ),
            (
                ("simulate", "wiener", "--model", "classical", "--t", "inf", "--dt", "1"),
                2,
                "error: t/dt must be finite",
            ),
            (
                ("simulate", "wiener", "--model", "classical", "--t", "1e300", "--dt", "1e-300",
                 "--paths", "2"),
                2,
                "error: t/dt must be finite",
            ),
            (
                ("simulate", "wiener", "--model", "classical", "--dt", "1e-300"),
                2,
                "error: n_paths * n_steps must not exceed 2**53",
            ),
            (
                ("simulate", "wiener", "--model", "classical", "--t", "1e300", "--dt", "1e299",
                 "--paths", "2"),
                2,
                "error: a path total has variance 1e+300: its var error would overflow",
            ),
            (
                ("simulate", "oversized_rate", "--model", "classical", "--dt", "1", "--paths", "2"),
                2,
                "error: a jump rate gives 1e+22 mean events per cell, above the Poisson sampler's "
                "limit 9.22e+18; take a smaller dt",
            ),
            (
                ("simulate", "wiener", "--model", "classical", "--seed", "-1", "--paths", "10"),
                2,
                "error: seed must be in [0, 2**128)",
            ),
            (
                ("simulate", "wiener", "--model", "classical", "--seed", str(2**128), "--paths", "10"),
                2,
                "error: seed must be in [0, 2**128)",
            ),
            *(
                (("check", "wiener", "--tol", tol), 1,
                 "error: line 0, col 0: tol must be finite and nonnegative")
                for tol in ("nan", "inf", "-1")
            ),
            (("check", "inf_literal"), 1, "error: line 4, col 13: non-finite coefficient"),
            (
                ("norms", "wiener", "--element", "1e400 dw"),
                1,
                "error: line 1, col 1: non-finite coefficient",
            ),
            (
                ("norms", "wiener", "--element", ""),
                1,
                "error: line 1, col 1: empty linear combination (zero is written 0)",
            ),
        ],
        ids=[
            "fock-t-nan", "fock-t-inf", "fock-ratio-overflow", "classical-t-inf",
            "classical-ratio-overflow", "classical-step-budget", "classical-variance-overflow",
            "classical-oversized-rate",
            "classical-seed-negative", "classical-seed-too-large",
            "check-tol-nan", "check-tol-inf", "check-tol-negative", "check-inf-literal",
            "norms-inf-coefficient",
            "norms-empty-element",
        ],
    )
    def test_hostile_numbers_exit_with_one_line(self, capsys, ito_files, argv, code, message):
        argv = [ito_files.get(a, a) for a in argv]
        got, out, err = run_cli(capsys, *argv)
        assert got == code
        assert out == ""
        assert err == message + "\n"

    def test_undecodable_file_is_io_exit(self, capsys, tmp_path):
        f = tmp_path / "binary.ito"
        f.write_bytes(b"basis dt\n\xf0\x28\x8c\x28\n")
        code, out, err = run_cli(capsys, "check", str(f))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot read {f}: ") and err.count("\n") == 1

    def test_check_tol_applies_from_the_parse_on(self, capsys, ito_files):
        # the 1e-6 associativity defect is judged at --tol 1e-3 from the parse on
        f = ito_files["assoc_defect"]
        code, out, err = run_cli(capsys, "check", f, "--tol", "1e-3")
        assert code == 0
        assert err == ""
        assert "FAIL" not in out
        code, out, err = run_cli(capsys, "check", f)
        assert code == 2
        assert err == ""
        assert "FAIL  associativity            residual=1.000e-06" in out.splitlines()

    def test_simulate_fock_fine_grid(self, capsys, ito_files):
        # 1000 slots on hp(3) (hdim 12); one representative slot stands for all
        code, out, _ = run_cli(capsys, "simulate", ito_files["hp3"], "--model", "fock", "--dt", "0.001")
        assert code == 0
        assert "element e+_1:" in out

    def test_simulate_fock_nonpositive_dt(self, capsys, ito_files):
        code, _, err = run_cli(capsys, "simulate", ito_files["hp1"], "--model", "fock", "--dt", "0")
        assert code == 2
        assert "dt must be positive" in err

    def test_parse_error_is_io_exit(self, capsys, tmp_path):
        f = tmp_path / "syntax.ito"
        f.write_text("basis dt\nmul dt dt = oops\n")
        code, _, err = run_cli(capsys, "check", str(f))
        assert code == 1
        assert "error" in err

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "check", "/nonexistent/x.ito")
        assert code == 1

    def test_check_quotient_by_ideal_with_dt_component(self, capsys, tmp_path):
        # the ideal span{dt - f} is not orthogonal to the death; the quotient
        # is still presented on its death and written as text, with the exact
        # identity star and so no star line
        f = tmp_path / "tilted.ito"
        f.write_text("basis dt f\ndeath dt\nstate dt = 1\nstate f = 1\n")
        code, out, err = run_cli(capsys, "check", str(f))
        assert code == 3
        assert "Traceback" not in err
        text = out.split("quotient algebra:\n", 1)[1]
        assert text == "basis dt\ndeath dt\nstate dt = 1\n"
        again = parse(text)
        assert again.ok
        assert again.algebra.same_table(ia.newton())

    def test_check_zero_residual_has_no_sign(self, capsys, ito_files):
        code, out, _ = run_cli(capsys, "check", ito_files["newton"])
        assert code == 0
        assert "-0.000e+00" not in out

    def test_represent_non_faithful(self, capsys, ito_files):
        code, _, err = run_cli(capsys, "represent", ito_files["zero_intensity_poisson"])
        assert code == 3
        assert "quotient" in err

    def test_high_rate_table_samples_within_the_time_bound(self, capsys, ito_files):
        # 10^7 events in 20 steps of 1000 paths, drawn per cell: strict JSON on one line
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "simulate", ito_files["high_rate"], "--model", "classical",
                                 "--dt", "0.05", "--paths", "1000", "--json")
        assert time.perf_counter() - start <= 20
        assert (code, err) == (0, "")
        assert out.count("\n") == 1
        assert strict_loads(out)["kind"] == "classical_paths"

    @pytest.mark.parametrize("dt", ["1", "0.5"])
    @pytest.mark.parametrize("table", ["wiener2", "correlated", "wiener+poisson", "silent_atom"])
    def test_classical_run_of_one_or_two_steps_on_two_paths(self, capsys, ito_files, table, dt):
        # too few cells for a Bartlett draw of the Wishart part: it is summed as drawn;
        # at one step the jump counts lie in the span of the path indicators
        code, out, err = run_cli(capsys, "simulate", ito_files[table], "--model", "classical",
                                 "--dt", dt, "--paths", "2", "--json")
        assert (code, err) == (0, "")
        assert len(strict_loads(out)["estimates"]) == 7

    def test_simulate_classical_noncommutative(self, capsys, ito_files):
        code, _, err = run_cli(
            capsys, "simulate", ito_files["hp1"], "--model", "classical",
            "--t", "1", "--dt", "0.1", "--paths", "100", "--seed", "1",
        )
        assert code == 2
        assert "commutative" in err

    @pytest.mark.parametrize("weight", [1e-10, 1e-12])
    def test_tiny_weight_is_faithful(self, capsys, tmp_path, weight):
        path = tmp_path / "pw.ito"
        path.write_text(serialize(ia.periodic_wiener(1, [weight])), encoding="utf-8")
        for command in ("check", "represent", "decompose"):
            code, _, err = run_cli(capsys, command, str(path))
            assert code == 0, (command, err)

    def test_catalog_unknown_name(self, capsys):
        code, _, err = run_cli(capsys, "catalog", "--name", "nope")
        assert code == 1


def test_parser_keeps_no_state_between_calls(capsys, ito_files):
    # one process runs the four commands on its one parser; each prints what a fresh process prints
    path = ito_files["wiener"]
    argvs = [["represent", path, "--latex"], ["represent", path, "--json"],
             ["simulate", path, "--model", "fock", "--t", "0.5"], ["simulate", path, "--model", "fock"]]
    in_process = [run_cli(capsys, *argv) for argv in argvs]
    for argv, got in zip(argvs, in_process):
        fresh = run_fresh(*argv)
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_classical_sampler_does_not_depend_on_the_hash_seed(ito_files):
    # the streams come from the seed alone: two processes with different string hashing agree
    argv = ("simulate", ito_files["wiener+poisson"], "--model", "classical", "--json")
    reports = []
    for hash_seed in ("1", "2"):
        fresh = run_fresh(*argv, PYTHONHASHSEED=hash_seed)
        assert fresh.returncode == 0, fresh.stderr
        report = json.loads(fresh.stdout)
        del report["runtime_ms"]
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[0]["estimates"]


class TestCatalogCommand:
    def test_listing(self, capsys):
        code, out, _ = run_cli(capsys, "catalog")
        assert code == 0
        for name in ("newton", "wiener", "hp", "group_levy"):
            assert name in out

    def test_emit_matches_serialize(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "--name", "poisson")
        assert code == 0
        assert out == serialize(ia.poisson())

    def test_params_and_output_file(self, capsys, tmp_path):
        dest = tmp_path / "hp2.ito"
        code, _, _ = run_cli(capsys, "catalog", "--name", "hp", "--params", "d=2", "-o", str(dest))
        assert code == 0
        assert dest.read_text() == serialize(ia.hp(2))

    @pytest.mark.parametrize(
        "name, params, code",
        [*((name, None, 3 if name in NON_FAITHFUL else 0) for name in cli._CATALOG),
         ("hp", "d=7", 0)],
        ids=[*cli._CATALOG, "hp-at-capacity"],
    )
    def test_emitted_file_checks(self, capsys, tmp_path, name, params, code):
        # hp(7) has n = 64 = adsl.MAX_BASIS: the coordinate-join axiom check at the format's limit
        dest = tmp_path / "emitted.ito"
        argv = ("catalog", "--name", name, *(("--params", params) if params else ()), "-o", str(dest))
        assert run_cli(capsys, *argv) == (0, "", "")
        got, _, err = run_cli(capsys, "check", str(dest))
        assert (got, err) == (code, "")

    def test_periodic_wiener_param_list(self, capsys):
        code, out, _ = run_cli(
            capsys, "catalog", "--name", "periodic_wiener", "--params", "K=2,rho=2:3"
        )
        assert code == 0
        assert out == serialize(ia.periodic_wiener(2, [2.0, 3.0]))

    def test_periodic_wiener_single_weight(self, capsys):
        code, out, err = run_cli(
            capsys, "catalog", "--name", "periodic_wiener", "--params", "K=1,rho=0.5"
        )
        assert code == 0, err
        result = parse(out)
        assert result.ok and result.algebra.same_table(ia.periodic_wiener(1, [0.5]))

    @pytest.mark.parametrize(
        "params, expected, classical",
        [
            ("of=wiener:poisson", lambda: ia.orthogonal_sum(ia.wiener(), ia.poisson()), 0),
            ("of=hp:wiener", lambda: ia.orthogonal_sum(ia.hp(1), ia.wiener()), 2),
            ("of=wiener:poisson:poisson",
             lambda: ia.orthogonal_sum(ia.orthogonal_sum(ia.wiener(), ia.poisson()), ia.poisson()), 0),
        ],
        ids=["wiener-poisson", "hp-wiener", "wiener-poisson-poisson"],
    )
    def test_orthogonal_sum_param_list(self, capsys, tmp_path, params, expected, classical):
        # the sum samples classically when it is commutative: strict JSON on one line
        dest = tmp_path / "sum.ito"
        assert run_cli(capsys, "catalog", "--name", "orthogonal_sum", "--params", params,
                       "-o", str(dest)) == (0, "", "")
        assert dest.read_text(encoding="utf-8") == serialize(expected())
        assert run_cli(capsys, "check", str(dest))[0] == 0
        code, out, err = run_cli(capsys, "simulate", str(dest), "--model", "classical",
                                 "--paths", "1000", "--json")
        assert code == classical, err
        if code == 0:
            assert err == "" and out.count("\n") == 1
            assert strict_loads(out)["kind"] == "classical_paths"

    @pytest.mark.parametrize(
        "name, params, message",
        [
            ("hp", "d=2.5", "error: invalid literal for int() with base 10: '2.5'"),
            ("group_levy", "group=q3", "error: unknown group 'q3' (use sN or zN)"),
            ("orthogonal_sum", "of=wiener:nope", "error: unknown builtin 'nope'"),
            ("hp", "d=8", "error: a basis of 81 symbols exceeds the format capacity of 64 symbols"),
            ("hp", "d=2,tol=1e-3", "error: unknown parameter 'tol' for hp"),
            ("hp", "D=3", "error: unknown parameter 'D' for hp"),
            ("orthogonal_sum", "tol=1", "error: unknown parameter 'tol' for orthogonal_sum"),
        ],
        ids=["int-param-as-float", "unknown-group", "unknown-summand", "hp-over-capacity",
             "tol-is-no-param", "unknown-param", "sum-takes-no-tol"],
    )
    def test_bad_param_exits_1_with_one_line(self, capsys, tmp_path, name, params, message):
        # a refused builtin writes no file, not even one that check would reject
        dest = tmp_path / "refused.ito"
        code, out, err = run_cli(capsys, "catalog", "--name", name, "--params", params, "-o", str(dest))
        assert code == 1
        assert out == ""
        assert err == message + "\n"
        assert not dest.exists()

    def test_group_levy_param(self, capsys):
        code, out, _ = run_cli(capsys, "catalog", "--name", "group_levy", "--params", "group=z2")
        assert code == 0
        assert out == serialize(ia.group_levy(ia.cyclic_group(2)))

    def test_group_levy_z3_samples_classically(self, capsys, tmp_path):
        # a commutative table whose basis is not self-adjoint: d_g1* = d_g2
        dest = tmp_path / "z3.ito"
        code, _, _ = run_cli(capsys, "catalog", "--name", "group_levy", "--params", "group=z3",
                             "-o", str(dest))
        assert code == 0
        code, out, err = run_cli(capsys, "simulate", str(dest), "--model", "classical",
                                 "--paths", "1000", "--json")
        assert (code, err) == (0, "")
        assert out.count("\n") == 1
        assert strict_loads(out)["kind"] == "classical_paths"


class TestNorms:
    def test_wiener_element(self, capsys, ito_files):
        code, out, _ = run_cli(
            capsys, "norms", ito_files["wiener"], "--element", "1 dt + 2i dw"
        )
        assert code == 0
        lines = dict(line.split(":") for line in out.strip().splitlines())
        assert float(lines["operator"]) == pytest.approx(0.0)
        assert float(lines["plus"]) == pytest.approx(2.0)
        assert float(lines["minus"]) == pytest.approx(2.0)
        assert float(lines["corner"]) == pytest.approx(1.0)

    def test_bad_element(self, capsys, ito_files):
        code, _, err = run_cli(capsys, "norms", ito_files["wiener"], "--element", "1 nope")
        assert code == 1

    def test_seminorm_whose_square_overflows(self, ito_files):
        # l(a.a*) = 1e400 is above the float range; the norm of kdag(a) is 1e200
        fresh = run_fresh("norms", ito_files["hp1"], "--element", "1e200 e-")
        assert (fresh.returncode, fresh.stderr) == (0, "")
        lines = dict(line.split(":") for line in fresh.stdout.strip().splitlines())
        assert lines["minus"].strip() == "1e+200"

    def test_json(self, capsys, ito_files):
        code, out, _ = run_cli(
            capsys, "norms", ito_files["wiener"], "--element", "1 dt + 2i dw", "--json"
        )
        assert code == 0
        norms = strict_loads(out)
        assert norms == pytest.approx({"op": 0.0, "plus": 2.0, "minus": 2.0, "corner": 1.0})


JSON_COMMANDS = [
    ("check",),
    ("represent",),
    ("decompose",),
    ("simulate", "--model", "fock", "--t", "0.5", "--dt", "0.125"),
    ("norms", "--element", "1 dt"),
]


# reals whose words are easy to get wrong: signed zeros, non-finite values (NaN of either
# sign), the smallest subnormal and the largest finite double
SPECIAL_REALS = [0.0, -0.0, float("nan"), -float("nan"), float("inf"), -float("inf"),
                 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
REALS = st.one_of(st.sampled_from(SPECIAL_REALS), st.floats(width=64))
COMPLEX_ARRAYS = hnp.arrays(
    complex, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    elements=st.builds(complex, REALS, REALS))
# strings with a control character, a quote or a % format, which the writer passes through
# byte for byte beside the array text it formats
WRITER_STRINGS = ["\x00ndarray0", "\x00ndarray1", '"\x00ndarray0', "\x00ndarray0\"", "%s", "%%", "x"]


def stdlib_compact(obj) -> str:
    """``obj`` as the stdlib encoder writes it compactly, each ndarray as ``complex_pairs``."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=complex_pairs)


def nonfinite_as_strings(obj):
    """``obj`` with every non-finite float replaced by its ``str``: "nan", "inf" or "-inf"."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else str(obj)
    if isinstance(obj, dict):
        return {key: nonfinite_as_strings(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [nonfinite_as_strings(value) for value in obj]
    return obj


def writer_reference(obj) -> str:
    """The writer's bytes from the stdlib encoder: non-finite floats as strings, arrays as pairs."""
    return json.dumps(nonfinite_as_strings(obj), sort_keys=True, separators=(",", ":"),
                      default=lambda a: nonfinite_as_strings(complex_pairs(a)))


def represent_reference(alg) -> str:
    """The ``represent --json`` line of ``alg``, built from the library and the stdlib encoder."""
    rep = ia.build_representation(alg)
    mats = {lab: complex_pairs(ia.triangular(rep, e)) for lab, e in zip(alg.labels, np.eye(alg.dim))}
    quadruples = [
        {"label": lab, "l": M[0][-1], "k": [row[-1] for row in M[1:-1]], "kdag": M[0][1:-1],
         "i": [row[1:-1] for row in M[1:-1]]}
        for lab, M in mats.items()
    ]
    payload = {"hdim": rep.hdim, "labels": list(alg.labels), "quadruples": quadruples,
               "report": rep.report.to_dict(), "triangular": mats}
    return stdlib_compact(payload) + "\n"


class TestJsonWriter:
    @pytest.fixture
    def emitted(self, capsys, monkeypatch, ito_files):
        """Run a ``--json`` command; return its output and the payload callable it emitted."""

        def run(name, command):
            payloads = []
            emit = cli._emit

            def recording_emit(as_json, payload, lines):
                payloads.append(payload)
                emit(as_json, payload, lines)

            monkeypatch.setattr(cli, "_emit", recording_emit)
            code, out, err = run_cli(capsys, command[0], ito_files[name], *command[1:], "--json")
            assert code == 0, err
            assert out.count("\n") == 1 and out.endswith("\n")
            [payload] = payloads
            return out, payload

        return run

    @pytest.mark.parametrize("name", FAITHFUL)
    @pytest.mark.parametrize(
        "command", JSON_COMMANDS, ids=["check", "represent", "decompose", "simulate-fock", "norms"]
    )
    def test_compact_output_parses_to_the_indented_payload(self, emitted, name, command):
        out, payload = emitted(name, command)
        indented = json.dumps(payload(), indent=2, sort_keys=True, default=complex_pairs)
        assert strict_loads(out) == json.loads(indented)

    @pytest.mark.parametrize("name", [*FAITHFUL, "periodic_wiener16"])
    @pytest.mark.parametrize(
        "command", JSON_COMMANDS, ids=["check", "represent", "decompose", "simulate-fock", "norms"]
    )
    def test_compact_output_is_the_stdlib_encoding(self, emitted, ito_files, name, command):
        out, payload = emitted(name, command)
        assert out == stdlib_compact(payload()) + "\n"
        if command == ("represent",):  # and the library's matrices, byte for byte
            text = Path(ito_files[name]).read_text(encoding="utf-8")
            assert out == represent_reference(parse(text).algebra)

    @settings(max_examples=300, deadline=None)
    @given(a=COMPLEX_ARRAYS)
    def test_array_is_the_stdlib_encoding_of_its_pairs(self, a):
        assert cli._dumps(a) == writer_reference(a)

    @settings(max_examples=150, deadline=None)
    @given(arrays=st.lists(COMPLEX_ARRAYS, min_size=1, max_size=3),
           strings=st.lists(st.sampled_from(WRITER_STRINGS), max_size=4),
           reals=st.lists(REALS, max_size=4))
    def test_payload_is_the_stdlib_encoding(self, arrays, strings, reals):
        # every shape the writer branches on: arrays that share values beside strings that hold
        # control and format characters, lists and tuples, NaN and inf in and out of lists
        zero_d = [np.asarray(a.flat[0]) for a in arrays if a.size]
        obj = {
            "arrays": arrays,
            "strings": strings,
            "views": [a[..., ::-1] if a.ndim else a for a in arrays],
            "keyed": dict(zip(strings, arrays)),
            # represent's quadruples: a list of dicts that hold arrays, 0-d ones among them
            "quadruples": [{"label": s, "l": z, "k": a} for s, z, a in zip(strings, zero_d, arrays)],
            "tuple": (tuple(reals), strings, zero_d),
            # the axiom report's checks: a list of dicts whose keys are not in sorted order
            "checks": [{"residual": x, "name": s} for s, x in zip(strings, [0.5, *reals])],
            "nested": [[0.5, *reals, -1.0], [[2.0], reals], [1, "x", {"z": 1, "a": [2]}]],
            "reals": dict(zip(("a", "b", "c", "d"), reals)),
            "nonfinite": {"nan": float("nan"), "inf": float("inf"), "-inf": -float("inf")},
            "empty": [[], {}, (), {"e": []}, np.zeros((0, 2), complex)],
        }
        assert cli._dumps(obj) == writer_reference(obj)
        assert cli._dumps(list(obj.values())) == writer_reference(list(obj.values()))

    def test_label_spelling_the_placeholder(self, capsys, tmp_path):
        # labels with a control character, a quote or a % format pass through byte for byte
        labels = ("dt", "\x00ndarray0", '"\x00ndarray0', "%s")
        alg = dataclasses.replace(ia.hp(1), labels=labels)
        path = tmp_path / "placeholder.ito"
        path.write_text(serialize(alg), encoding="utf-8")
        code, out, err = run_cli(capsys, "represent", str(path), "--json")
        assert (code, err) == (0, "")
        assert out == represent_reference(parse(serialize(alg)).algebra)
        assert strict_loads(out)["labels"] == list(labels)

    @pytest.mark.parametrize("name", FAITHFUL)
    def test_quadruples_are_slices_of_the_triangular_matrices(self, capsys, ito_files, name):
        code, out, _ = run_cli(capsys, "represent", ito_files[name], "--json")
        assert code == 0
        payload = strict_loads(out)
        assert [q["label"] for q in payload["quadruples"]] == payload["labels"]
        for q in payload["quadruples"]:
            M = payload["triangular"][q["label"]]
            assert len(M) == payload["hdim"] + 2
            assert q["l"] == M[0][-1]
            assert q["k"] == [row[-1] for row in M[1:-1]]
            assert q["kdag"] == M[0][1:-1]
            assert q["i"] == [row[1:-1] for row in M[1:-1]]

    @pytest.mark.parametrize(
        "text, argv, code, nonfinite",
        [
            (
                "basis dt x\ndeath dt\nstate dt = 1\nmul x x = 1.7e308 dt\n",
                ("check",),
                2,
                lambda p: [c["residual"] for c in p["axioms"]["checks"] if not c["passed"]],
            ),
            (
                serialize(ia.poisson()),
                ("simulate", "--model", "fock", "--t", "1e100", "--dt", "1e95"),
                0,
                lambda p: [v for e in p[0]["estimates"] for v in (e["value"], e["target"])
                           if isinstance(v, str)],
            ),
        ],
        ids=["check-overflowing-gram", "fock-overflowing-moment"],
    )
    def test_nonfinite_numbers_are_strings(self, capsys, tmp_path, text, argv, code, nonfinite):
        path = tmp_path / "t.ito"
        path.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got, out, _ = run_cli(capsys, argv[0], str(path), *argv[1:], "--json")
        assert got == code
        assert out.count("\n") == 1
        values = nonfinite(strict_loads(out))
        assert values and set(values) <= {"nan", "inf", "-inf"}
        assert not any(np.isfinite(float(v)) for v in values)

    def test_overflowing_fock_moment_warns_nothing(self, capsys, tmp_path):
        # the overflow is reported as nan/inf in the report, not as numpy warnings
        path = tmp_path / "p.ito"
        path.write_text(serialize(ia.poisson()), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "simulate", str(path), "--model", "fock",
                                     "--t", "1e100", "--dt", "1e95")
        assert code == 0
        assert "nan" in out
        assert err == ""


# Coefficients for random tables: simple, signed, imaginary, overflowing and
# subnormal.  Zero comes first so that shrinking heads for sparse tables.
COEFFICIENTS = ["0", "1", "-1", "2", "0.5", "1i", "1e308", "1e-320"]


@st.composite
def small_tables(draw):
    """`.ito` text of a random table on dt plus one or two more symbols."""
    syms = ["dt"] + ["x", "y"][: draw(st.integers(1, 2))]
    coef = st.sampled_from(COEFFICIENTS)
    lines = ["basis " + " ".join(syms), "death dt", "state dt = 1"]
    for s in syms[1:]:
        value = draw(coef)
        if value != "0":
            lines.append(f"state {s} = {value}")
    for a in syms[1:]:
        for b in syms[1:]:
            coefs = [draw(coef) for _ in syms]
            terms = [f"{c} {s}" for c, s in zip(coefs, syms) if c != "0"]
            if terms:
                lines.append(f"mul {a} {b} = " + " + ".join(terms))
    return "\n".join(lines) + "\n"


RANDOM_TABLE_COMMANDS = [
    ("check",),
    ("represent",),
    ("decompose",),
    ("norms", "--element", "1 dt + 2 x"),
    ("simulate", "--model", "fock", "--t", "0.5", "--dt", "0.1"),
    ("simulate", "--model", "classical", "--dt", "0.25", "--paths", "20"),
]


@settings(max_examples=150, deadline=None)
@given(text=small_tables())
def test_cli_is_total_on_random_tables(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "random.ito"
    path.write_text(text, encoding="utf-8")
    for command in RANDOM_TABLE_COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main([command[0], str(path), *command[1:]])
        assert code in (0, 1, 2, 3), (command, text)


class TestGolden:
    @pytest.mark.parametrize("name", [
        "newton", "wiener", "poisson", "zero_intensity_poisson", "hp1", "hp2", "hp3",
        "thermal_brownian", "periodic_wiener", "group_levy_s3", "thermal_matrix",
        "wiener+poisson",
    ])
    def test_subcommands(self, capsys, ito_files, name):
        path = ito_files[name]
        record = {}

        # the .ito text itself is what `catalog` emits for these parameters
        record["ito"] = Path(path).read_text(encoding="utf-8")

        code, out, err = run_cli(capsys, "check", path, "--json")
        record["check"] = {"exit": code, "json": json.loads(out)}

        code, out, err = run_cli(capsys, "represent", path, "--json")
        record["represent"] = {"exit": code, "json": json.loads(out) if code == 0 else None}

        code, out, err = run_cli(capsys, "decompose", path, "--json")
        record["decompose"] = {"exit": code, "json": json.loads(out) if code == 0 else None}

        code, out, err = run_cli(capsys, "norms", path, "--element", "1 dt")
        record["norms"] = {"exit": code, "text": out if code == 0 else None}

        code, out, err = run_cli(
            capsys, "simulate", path, "--model", "fock", "--t", "0.5", "--dt", "0.125", "--json"
        )
        record["simulate_fock"] = {"exit": code, "json": json.loads(out) if code == 0 else None}

        code, out, err = run_cli(
            capsys, "simulate", path, "--model", "classical",
            "--t", "1.0", "--dt", "0.05", "--paths", "400", "--seed", "20260810", "--json",
        )
        expect_classical = name in CLASSICAL
        record["simulate_classical"] = {
            "exit": code,
            "json": json.loads(out) if code == 0 else None,
        }
        if expect_classical:
            assert code == 0
        else:
            assert code in (2, 3)

        check_golden(name.replace("+", "_plus_"), record)

    @pytest.mark.parametrize("name", FAITHFUL)
    def test_represent_json_carries_the_gns_report(self, capsys, ito_files, name):
        code, out, _ = run_cli(capsys, "represent", ito_files[name], "--json")
        assert code == 0
        report = strict_loads(out)["report"]
        assert (report["passed"], report["tol"]) == (True, 1e-9)
        assert [c["name"] for c in report["checks"]] == [
            "covariance", "kolmogorov", "star_adjoint", "death_unit"]
        assert all(c["passed"] and c["residual"] <= 1e-9 and c["detail"] == "" for c in report["checks"])

    def test_decompose_prints_the_report_summary(self, capsys, ito_files):
        code, out, _ = run_cli(capsys, "decompose", ito_files["wiener+poisson"])
        assert code == 0
        lines = out.splitlines()
        at = lines.index("verification: pass")
        report = ia.decompose(parse(Path(ito_files["wiener+poisson"]).read_text()).algebra).report
        assert lines[at + 1:] == report.summary().splitlines()
        assert [line.split()[1] for line in lines[at + 1:]][:2] == ["preimage", "projector_idempotent"]
        code, out, _ = run_cli(capsys, "decompose", ito_files["wiener+poisson"], "--json")
        checks = strict_loads(out)["report"]["checks"]
        assert [c["name"] for c in checks] == [c.name for c in report.checks]

    def test_latex_output(self, capsys, ito_files):
        code, out, _ = run_cli(capsys, "represent", ito_files["wiener"], "--latex")
        assert code == 0
        assert "pmatrix" in out

    def test_represent_poisson_canonical_pattern(self, capsys, ito_files):
        code, out, _ = run_cli(capsys, "represent", ito_files["poisson"], "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["hdim"] == 1

        def dense(entry):
            return np.array([[re + 1j * im for re, im in row] for row in entry])

        assert np.allclose(dense(payload["triangular"]["dt"]), [[0, 0, 1], [0, 0, 0], [0, 0, 0]])
        assert np.allclose(dense(payload["triangular"]["dm"]), [[0, 1, 0], [0, 1, 1], [0, 0, 0]])
