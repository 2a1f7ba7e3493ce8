"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL lines.
Criterion 7b is expected to fail and is marked xfail(strict): the discrete
slot model reproduces the second vacuum moment of the summed process exactly
(its deviation from |l(a) t|^2 + l(a*.a) t is zero up to rounding), so no 1/N
decay exists to fit.  The first-order discretization error appears in the fourth moment,
which is exercised in tests/test_focksim.py.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

import itoalg as ia
from itoalg.adsl import parse, serialize
from itoalg.core import rel_residual
from itoalg.decomp import decompose
from itoalg.focksim import classical_paths, fit_loglog_slope, ito_product_check, vacuum_moments
from itoalg.gns import build_representation, minkowski_metric, triangular, verify_bstar
from itoalg.ideal import faithfulness_ideal, quotient

from conftest import make_catalog, same_row_span

TOL = 1e-9


@contextmanager
def criterion(tag: str, budget_s: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {tag}: FAIL ({time.perf_counter() - start:.2f}s)")
        raise
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE {tag}: PASS ({elapsed:.2f}s)")
    if budget_s is not None:
        assert elapsed < budget_s, f"runtime budget exceeded: {elapsed:.2f}s >= {budget_s}s"


def faithful(catalog):
    return {k: v for k, v in catalog.items() if k != "zero_intensity_poisson"}


def test_c1_axiom_suite():
    with criterion("1 axiom-suite", budget_s=5.0):
        catalog = make_catalog()  # construction counted into the budget
        assert set(catalog) == {
            "newton", "wiener", "poisson", "zero_intensity_poisson", "hp1", "hp2",
            "hp3", "thermal_brownian", "periodic_wiener", "group_levy_s3",
            "thermal_matrix", "wiener+poisson",
        }
        for name, alg in catalog.items():
            report = ia.verify_axioms(alg)
            assert report.passed, f"{name}\n{report.summary()}"
            assert report.max_residual <= TOL, name


def test_c2_canonical_matrices():
    with criterion("2 canonical-matrices"):
        D_T = np.array([[0, 0, 1], [0, 0, 0], [0, 0, 0]], dtype=complex)
        D_W = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
        D_M = np.array([[0, 1, 0], [0, 1, 1], [0, 0, 0]], dtype=complex)
        w = ia.wiener()
        rep = build_representation(w)
        assert rep.hdim == 1
        assert rel_residual(rep.i_of(w.basis_element("dw")), [[0.0]]) <= TOL
        assert abs(np.linalg.norm(rep.k_of(w.basis_element("dw"))) - 1.0) <= TOL
        assert rel_residual(triangular(rep, w.basis_element("dw")), D_W) <= TOL
        assert rel_residual(triangular(rep, w.basis_element("dt")), D_T) <= TOL

        p = ia.poisson()
        rep_p = build_representation(p)
        assert rep_p.hdim == 1
        assert rel_residual(rep_p.i_of(p.basis_element("dm")), [[1.0]]) <= TOL
        assert abs(np.linalg.norm(rep_p.k_of(p.basis_element("dm"))) - 1.0) <= TOL
        assert rel_residual(triangular(rep_p, p.basis_element("dm")), D_M) <= TOL
        assert rel_residual(triangular(rep_p, p.basis_element("dt")), D_T) <= TOL


def test_c3_homomorphism_oracle():
    with criterion("3 homomorphism-oracle"):
        for name, alg in faithful(make_catalog()).items():
            if alg.dim > 10:
                continue
            rep = build_representation(alg)
            G = minkowski_metric(rep.hdim)
            mats = [triangular(rep, alg.basis_element(i)) for i in range(alg.dim)]
            for i in range(alg.dim):
                for j in range(alg.dim):
                    prod = alg.basis_element(i) * alg.basis_element(j)
                    resid = rel_residual(mats[i] @ mats[j], triangular(rep, prod))
                    assert resid <= TOL, (name, i, j, resid)
                star_resid = rel_residual(
                    triangular(rep, alg.basis_element(i).star()), G @ mats[i].conj().T @ G
                )
                assert star_resid <= TOL, (name, i, star_resid)


def test_c4_faithfulness():
    with criterion("4 faithfulness"):
        zip_alg = ia.zero_intensity_poisson()
        ideal = faithfulness_ideal(zip_alg)
        assert ideal.dim == 1
        v = ideal.matrix[0]
        assert abs(v[0]) <= TOL and abs(abs(v[1]) - 1.0) <= TOL  # span{e}
        quo = quotient(zip_alg, ideal)
        assert quo.algebra.dim == 1
        assert quo.algebra.same_table(ia.newton())
        for name, alg in faithful(make_catalog()).items():
            assert faithfulness_ideal(alg).is_trivial, name


def _assert_same_span(elements, expected_rows):
    got = np.array([e.coeffs for e in elements])
    exp = np.asarray(expected_rows, dtype=complex)
    assert same_row_span(got, exp, TOL)
    # every returned vector reproduces inside the expected span (residual <= tol)
    sol, *_ = np.linalg.lstsq(exp.T, got.T, rcond=None)
    assert rel_residual(sol.T @ exp, got) <= TOL


def test_c5_levy_khinchin():
    with criterion("5 levy-khinchin"):
        s = ia.orthogonal_sum(ia.wiener(), ia.poisson())
        dec = decompose(s)
        _assert_same_span(dec.brownian, [[1, 0, 0], [0, 1, 0]])
        _assert_same_span(dec.levy, [[1, 0, 0], [0, 0, 1]])

        dec_hp = decompose(ia.hp(1))
        assert dec_hp.is_purely_levy() and len(dec_hp.levy) == 4

        dec_tb = decompose(ia.thermal_brownian(2.0, 0.5))
        assert dec_tb.is_purely_brownian() and len(dec_tb.brownian) == 3

        dec_tm = decompose(ia.thermal_matrix(2, (2 / 3, 1 / 3)))
        assert dec_tm.is_purely_levy() and len(dec_tm.levy) == 5

        for dec_i in (dec, dec_hp, dec_tb, dec_tm):
            alg = dec_i.algebra
            for y in dec_i.brownian_zero_mean:
                for z in dec_i.levy_zero_mean:
                    assert rel_residual((y * z).coeffs, np.zeros(alg.dim)) <= TOL
                    assert rel_residual((z * y).coeffs, np.zeros(alg.dim)) <= TOL
                    assert abs(ia.state_of(y.star() * z)) <= TOL
                    assert abs(ia.state_of(z * y.star())) <= TOL
            assert dec_i.report.residuals["intersection_death_only"] == 0.0
            assert dec_i.report.passed, dec_i.report.residuals


def test_c6_bstar_identities():
    with criterion("6 bstar-identities"):
        for name, alg in faithful(make_catalog()).items():
            rep = build_representation(alg)
            report = verify_bstar(rep, count=100, seed=20260810)
            assert report.inputs["samples"] == 100
            assert report.passed, (name, report.residuals)


def test_c7a_toyfock_vacuum_mean():
    with criterion("7a toyfock-vacuum-mean", budget_s=30.0):
        t = 1.0
        for name, alg in faithful(make_catalog()).items():
            rep = build_representation(alg)
            for i in range(alg.dim):
                a = alg.basis_element(i)
                target = ia.state_of(a) * t
                for n_slots in range(2, 65):
                    rpt = vacuum_moments(rep, a, t, n_slots)
                    assert abs(rpt.estimate("mean").value - target) <= 1e-12, (name, i, n_slots)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "second vacuum moment of the summed slot process equals its target "
        "|l(a) t|^2 + l(a*.a) t exactly for every N, also for l(a) != 0 "
        "(the deviation is rounding noise); no 1/N decay exists, so the required "
        "slope cannot be attained.  The first-order error lives in the fourth moment."
    ),
)
def test_c7b_toyfock_second_moment_slope():
    with criterion("7b toyfock-second-moment-slope"):
        p = ia.poisson()
        rep = build_representation(p)
        ns = [4, 8, 16, 32, 64]
        c_bound = 1.0
        for a in (p.basis_element("dm"), p.element_from({"dt": 1.0, "dm": 1.0})):
            devs = [
                abs(vacuum_moments(rep, a, 1.0, n).estimate("second_moment_deviation").value)
                for n in ns
            ]
            assert all(d <= c_bound / n for d, n in zip(devs, ns))
            slope = fit_loglog_slope([1.0 / n for n in ns], devs, floor=0.0)
            assert slope is not None and 0.8 <= slope <= 1.2


def test_c7c_toyfock_corner_slope():
    with criterion("7c toyfock-corner-slope", budget_s=30.0):
        p = ia.poisson()
        rep = build_representation(p)
        a = p.element_from({"dt": 1.0, "dm": 1.0})
        dts = [2.0**-k for k in range(4, 11)]
        rpt = ito_product_check(rep, a, a, dts)
        assert 1.8 <= rpt.slopes["corner"] <= 2.2


def test_c8_monte_carlo():
    with criterion("8 monte-carlo", budget_s=20.0):
        s = ia.orthogonal_sum(ia.wiener(), ia.poisson())
        rpt = classical_paths(s, t=1.0, dt=0.01, n_paths=100_000, seed=20260810)
        var_w = rpt.estimate("var[dw]")
        assert abs(var_w.value - 1.0) <= 3 * var_w.stderr
        var_m = rpt.estimate("var[dm]")
        assert abs(var_m.value - 1.0) <= 3 * var_m.stderr
        mean_m = rpt.estimate("mean[dm]")
        assert abs(mean_m.value) <= 3 * mean_m.stderr
        cross = rpt.estimate("cov[dw,dm]")
        assert abs(cross.value) <= 3 * cross.stderr


def _fuzz_corpus(count: int) -> list[str]:
    rng = np.random.default_rng(20260810)
    catalog = make_catalog()
    texts = [serialize(alg) for alg in catalog.values()]
    pool = [
        "algebra", "basis", "death", "state", "star", "mul", "=", "+", "0", "1",
        "dt", "dw", "dm", "e", "e-", "e+^2", "2i", "1+2i", "-3.5e-2", "x", "#",
        "é", "..", "1e999", "nan",
    ]
    corpus = []
    for case in range(count):
        mode = case % 2
        if mode == 0:
            lines = []
            for _ in range(rng.integers(0, 10)):
                k = int(rng.integers(0, 8))
                lines.append(" ".join(str(rng.choice(pool)) for _ in range(k)))
            corpus.append("\n".join(lines))
        else:
            text = list(texts[int(rng.integers(0, len(texts)))])
            for _ in range(int(rng.integers(1, 8))):
                op = int(rng.integers(0, 3))
                if not text:
                    break
                pos = int(rng.integers(0, len(text)))
                if op == 0:
                    text.pop(pos)
                elif op == 1:
                    text.insert(pos, chr(int(rng.integers(32, 127))))
                else:
                    text[pos] = chr(int(rng.integers(9, 127)))
            corpus.append("".join(text))
    return corpus


def test_c9_parser():
    with criterion("9 parser"):
        for name, alg in make_catalog().items():
            text = serialize(alg)
            result = parse(text)
            assert result.ok, (name, [str(d) for d in result.diagnostics])
            q = result.algebra
            assert q.labels == alg.labels
            assert np.array_equal(q.mult, alg.mult)
            assert np.array_equal(q.star, alg.star)
            assert np.array_equal(q.death, alg.death)
            assert np.array_equal(q.state, alg.state)
        for text in _fuzz_corpus(10_000):
            result = parse(text)  # must never raise
            assert result.ok or result.diagnostics
