import dataclasses
import warnings

import numpy as np
import pytest

import itoalg as ia
from itoalg.core import rel_residual
from itoalg.decomp import decompose, support_projector
from itoalg.focksim import slot_increment
from itoalg.gns import (
    FundamentalRep,
    NonFaithfulError,
    RepresentationError,
    _op_norms,
    _seminorm_rows,
    build_representation,
    minkowski_adjoint,
    minkowski_metric,
    seminorms,
    triangular,
    verify_bstar,
)

from conftest import make_catalog, ref_multiply, ref_star
from test_pipeline import _random_rotation

D_T = np.array([[0, 0, 1], [0, 0, 0], [0, 0, 0]], dtype=complex)
D_W = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex)
D_M = np.array([[0, 1, 0], [0, 1, 1], [0, 0, 0]], dtype=complex)


class TestCanonicalMatrices:
    def test_wiener_matches_pattern(self):
        w = ia.wiener()
        rep = build_representation(w)
        assert rep.hdim == 1
        assert rel_residual(rep.i_of(w.basis_element("dw")), [[0.0]]) <= 1e-12
        assert abs(np.linalg.norm(rep.k_of(w.basis_element("dw"))) - 1.0) <= 1e-12
        assert rep.l_of(w.basis_element("dw")) == pytest.approx(0.0)
        # pinned phase gives the canonical matrices exactly
        assert rel_residual(triangular(rep, w.basis_element("dw")), D_W) <= 1e-9
        assert rel_residual(triangular(rep, w.basis_element("dt")), D_T) <= 1e-9

    def test_poisson_matches_pattern(self):
        p = ia.poisson()
        rep = build_representation(p)
        assert rep.hdim == 1
        assert rel_residual(rep.i_of(p.basis_element("dm")), [[1.0]]) <= 1e-9
        assert abs(np.linalg.norm(rep.k_of(p.basis_element("dm"))) - 1.0) <= 1e-9
        assert rel_residual(triangular(rep, p.basis_element("dm")), D_M) <= 1e-9

    def test_wiener_square_is_death_matrix(self):
        w = ia.wiener()
        rep = build_representation(w)
        Tw = triangular(rep, w.basis_element("dw"))
        assert rel_residual(Tw @ Tw, triangular(rep, w.basis_element("dt"))) <= 1e-12

    def test_hp_frozen_quadruple(self):
        # hand GNS on the 4-element table: only e+ has a k-vector
        h = ia.hp(1)
        rep = build_representation(h)
        assert rep.hdim == 1
        assert rel_residual(rep.i_of(h.basis_element("e")), [[1.0]]) <= 1e-12
        assert rel_residual(rep.i_of(h.basis_element("e-")), [[0.0]]) <= 1e-12
        assert rel_residual(rep.k_of(h.basis_element("e-")), [0.0]) <= 1e-12
        assert abs(abs(rep.k_of(h.basis_element("e+"))[0]) - 1.0) <= 1e-12
        Te = triangular(rep, h.basis_element("e"))
        Tep = triangular(rep, h.basis_element("e+"))
        assert rel_residual(Te @ Tep, Tep) <= 1e-12

    def test_newton_two_by_two(self):
        n = ia.newton()
        rep = build_representation(n)
        assert rep.hdim == 0
        T = triangular(rep, n.death_element())
        assert T.shape == (2, 2)
        assert rel_residual(T, [[0, 1], [0, 0]]) <= 1e-12

    def test_death_minimality(self, faithful_catalog):
        for alg in faithful_catalog.values():
            rep = build_representation(alg)
            T = triangular(rep, alg.death_element())
            expect = np.zeros_like(T)
            expect[0, -1] = 1.0
            assert rel_residual(T, expect) <= 1e-12


class TestKolmogorovOracle:
    @pytest.mark.parametrize(
        "name",
        ["newton", "wiener", "poisson", "hp1", "thermal_brownian", "wiener+poisson"],
    )
    def test_small_algebras_brute_force(self, faithful_catalog, name):
        # dense enumeration over all basis pairs using the reference product,
        # covering every builtin of dimension <= 4
        alg = faithful_catalog[name]
        rep = build_representation(alg)
        n = alg.dim
        basis = np.eye(n, dtype=complex)
        for i in range(n):
            ki = rep.kmat @ basis[i]
            kdag_i = np.conj(rep.kmat @ ref_star(alg, basis[i]))
            for j in range(n):
                prod = ref_multiply(alg, basis[i], basis[j])
                lhs = complex(prod @ alg.state)
                rhs = complex(kdag_i @ (rep.kmat @ basis[j]))
                assert abs(lhs - rhs) <= 1e-10
                kprod = rep.kmat @ prod
                cov = rep.imats[i] @ (rep.kmat @ basis[j])
                assert rel_residual(kprod, cov) <= 1e-10

    def test_adjoint_relations(self, faithful_catalog):
        for alg in faithful_catalog.values():
            rep = build_representation(alg)
            for i in range(alg.dim):
                a = alg.basis_element(i)
                astar = a.star()
                assert rel_residual(rep.kdag_of(a), np.conj(rep.k_of(astar))) <= 1e-10
                assert rel_residual(rep.i_of(astar), rep.i_of(a).conj().T) <= 1e-10

    def test_gram_rank_sets_hdim(self, faithful_catalog):
        for name, alg in faithful_catalog.items():
            rep = build_representation(alg)
            H = ia.gram_matrix(alg)
            rank = np.linalg.matrix_rank((H + H.conj().T) / 2, tol=1e-9)
            assert rep.hdim == rank, name


class TestHomomorphism:
    def test_exhaustive_all_builtins(self, faithful_catalog):
        for name, alg in faithful_catalog.items():
            rep = build_representation(alg)
            mats = [triangular(rep, alg.basis_element(i)) for i in range(alg.dim)]
            G = minkowski_metric(rep.hdim)
            for i in range(alg.dim):
                for j in range(alg.dim):
                    prod = alg.basis_element(i) * alg.basis_element(j)
                    assert rel_residual(mats[i] @ mats[j], triangular(rep, prod)) <= 1e-9, name
                star_i = alg.basis_element(i).star()
                assert rel_residual(
                    triangular(rep, star_i), G @ mats[i].conj().T @ G
                ) <= 1e-9, name

    def test_corner_recovers_state(self, faithful_catalog):
        rng = np.random.default_rng(5)
        for alg in faithful_catalog.values():
            rep = build_representation(alg)
            a = ia.core.random_element(alg, rng)
            T = triangular(rep, a)
            assert T[0, -1] == pytest.approx(ia.state_of(a))
            assert rel_residual(T[:, 0], np.zeros(T.shape[0])) == 0.0
            assert rel_residual(T[-1, :], np.zeros(T.shape[0])) == 0.0


class TestMinkowskiAdjoint:
    def test_swaps_annihilation_creation(self):
        h = ia.hp(1)
        rep = build_representation(h)
        M = triangular(rep, h.basis_element("e-"))
        assert rel_residual(minkowski_adjoint(M), triangular(rep, h.basis_element("e+"))) <= 1e-12

    def test_death_fixed(self):
        w = ia.wiener()
        rep = build_representation(w)
        M = triangular(rep, w.death_element())
        assert rel_residual(minkowski_adjoint(M), M) <= 1e-12

    def test_involution_on_random_matrices(self):
        rng = np.random.default_rng(11)
        for d in (0, 1, 3):
            M = rng.standard_normal((d + 2, d + 2)) + 1j * rng.standard_normal((d + 2, d + 2))
            assert rel_residual(minkowski_adjoint(minkowski_adjoint(M)), M) <= 1e-12


class TestSeminorms:
    def test_death(self, faithful_catalog):
        for alg in faithful_catalog.values():
            rep = build_representation(alg)
            norms = seminorms(rep, alg.death_element())
            assert norms == pytest.approx((0.0, 0.0, 0.0, 1.0), abs=1e-12)

    def test_thermal_brownian_values(self):
        tb = ia.thermal_brownian(2.0, 0.5)
        rep = build_representation(tb)
        norms = seminorms(rep, tb.basis_element("dw"))
        assert norms.plus == pytest.approx(np.sqrt(0.5))
        assert norms.minus == pytest.approx(np.sqrt(2.0))

    def test_hp_exchange_operator_norm(self):
        h = ia.hp(1)
        rep = build_representation(h)
        assert seminorms(rep, h.basis_element("e")).op == pytest.approx(1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0, -np.inf)])
    def test_nonfinite_coefficient_reads_nan(self, value):
        rep = build_representation(ia.hp(1))
        assert all(np.isnan(seminorms(rep, [value, 0, 0, 0])))

    def test_seminorm_above_the_float_range_reads_inf(self):
        tb = ia.thermal_brownian(2.0, 0.5)
        norms = seminorms(build_representation(tb), 1.5e308 * tb.basis_element("dw").coeffs)
        # minus = 1.5e308 * sqrt(2) overflows; plus = 1.5e308 * sqrt(0.5) does not
        assert norms.minus == np.inf
        assert norms.plus == pytest.approx(1.5e308 * np.sqrt(0.5))


FAITHFUL_NAMES = [name for name in make_catalog() if name != "zero_intensity_poisson"]


def _random_rows(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """Gaussian complex rows, each scaled by a power of ten in [1e-30, 1e30]."""
    z = rng.standard_normal((count, 2, n))
    return (z[:, 0] + 1j * z[:, 1]) * 10.0 ** rng.uniform(-30, 30, (count, 1))


class TestOperatorSeminorm:
    """The op seminorm is the largest singular value of i(a), read from one Hermitian eigensolve."""

    @pytest.mark.parametrize("name", FAITHFUL_NAMES)
    def test_op_is_the_largest_singular_value(self, name):
        # 200 random rows on the table and on one rotation of it, against a batched SVD of i(a)
        alg = make_catalog()[name]
        rng = np.random.default_rng(FAITHFUL_NAMES.index(name))
        for table in (alg, _random_rotation(alg, rng)[0]):
            rep = build_representation(table)
            X = _random_rows(rng, 200, table.dim)
            op = _seminorm_rows(rep, X).op
            want = np.linalg.svd(np.tensordot(X, rep.imats, 1), compute_uv=False).max(axis=-1, initial=0.0)
            assert np.all(np.abs(op - want) <= 8 * rep.hdim * np.finfo(float).eps * want), name

    @pytest.mark.parametrize("build", [ia.wiener, lambda: ia.periodic_wiener(2, (2.0, 3.0))],
                             ids=["wiener", "periodic_wiener"])
    def test_zero_block_is_exactly_zero(self, build):
        alg = build()
        op = _seminorm_rows(alg.gns, _random_rows(np.random.default_rng(5), 200, alg.dim)).op
        assert np.all(op == 0.0) and not np.any(np.signbit(op))

    def test_non_finite_row_stays_nan(self):
        alg = ia.hp(2)
        X = _random_rows(np.random.default_rng(6), 4, alg.dim)
        X[1, 2] = np.nan
        X[3, 0] = complex(0, np.inf)
        op = _seminorm_rows(alg.gns, X).op
        assert np.isnan(op[[1, 3]]).all() and np.isfinite(op[[0, 2]]).all()

    def test_zero_and_non_finite_blocks_are_not_eigensolved(self, monkeypatch):
        # a stack of zero, NaN, inf and ordinary blocks: +0.0, NaN, NaN and the largest singular
        # value, with only the ordinary blocks eigensolved
        rng = np.random.default_rng(9)
        J = np.zeros((6, 3, 3), dtype=complex)
        J[[1, 4]] = rng.standard_normal((2, 3, 3)) + 1j * rng.standard_normal((2, 3, 3))
        J[2, 0, 1], J[3, 2, 2] = np.nan, complex(0, -np.inf)
        want = np.linalg.svd(J[[1, 4]], compute_uv=False).max(axis=-1)
        solved = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: solved.append(len(a)) or eigvalsh(a))
        op = _op_norms(J)
        assert sum(solved) == 2
        assert op[0] == op[5] == 0.0 and not np.signbit(op[[0, 5]]).any()
        assert np.isnan(op[[2, 3]]).all()
        assert np.all(np.abs(op[[1, 4]] - want) <= 8 * np.finfo(float).eps * want)

    def test_block_that_overflows_reads_nan(self):
        # i blocks of 1.5e308 sum past the float range: op is NaN, and no eigensolve fails
        h = ia.hp(3)
        mats = h.gns.mats.copy()
        mats[1:, 1:-1, 1:-1] = 1.5e308
        rep = FundamentalRep(algebra=h, mats=mats, eigenvalues=h.gns.eigenvalues.copy())
        with np.errstate(all="ignore"):   # the product overflows, and inf * 0 is NaN
            assert np.isnan(seminorms(rep, np.ones(h.dim)).op)

    def test_block_that_overflows_warns_nothing(self):
        # every caller of the seminorms gets the NaN without a RuntimeWarning
        h = ia.hp(3)
        mats = h.gns.mats.copy()
        mats[1:, 1:-1, 1:-1] = 1.5e308
        rep = FundamentalRep(algebra=h, mats=mats, eigenvalues=h.gns.eigenvalues.copy())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            norms = seminorms(rep, np.ones(h.dim))
        assert np.isnan(norms.op) and np.isfinite([norms.plus, norms.minus, norms.corner]).all()

    def test_block_above_the_square_root_of_the_float_range(self):
        # |i(e)| = 2^600: its Gram, 2^1200, overflows unless the block is scaled first
        h = ia.hp(1)
        mats = h.gns.mats.copy()
        mats[3, 1:-1, 1:-1] *= 2.0 ** 600
        rep = FundamentalRep(algebra=h, mats=mats, eigenvalues=h.gns.eigenvalues.copy())
        assert seminorms(rep, h.basis_element("e")).op == 2.0 ** 600


class TestBStar:
    def test_builtins_pass(self, faithful_catalog):
        for name, alg in faithful_catalog.items():
            rep = build_representation(alg)
            report = verify_bstar(rep, count=100, seed=42)
            assert report.passed, (name, report.residuals)

    def test_corner_equality_is_identity(self):
        # both sides of the corner equality reduce to l(a.a*)
        p = ia.poisson()
        rep = build_representation(p)
        rng = np.random.default_rng(9)
        a = ia.core.random_element(p, rng)
        norms = seminorms(rep, a)
        lhs = seminorms(rep, a * a.star()).corner
        assert lhs == pytest.approx(norms.minus * seminorms(rep, a.star()).plus, rel=1e-10)

    def test_overflowing_sample_fails(self):
        # RuntimeWarnings are errors in this suite: the overflow must give a failing entry, quietly
        report = verify_bstar(build_representation(ia.hp(1)), samples=[[1e308] * 4])
        assert not report.passed
        assert np.isnan(report.residuals["cstar_equality"])

    def test_nan_sample_fails(self):
        rep = build_representation(ia.poisson())
        report = verify_bstar(rep, samples=[[1.0, 2.0], [np.nan, 0.0]])
        assert not report.passed

    @pytest.mark.parametrize("kwargs", [{"count": 0}, {"count": -1}, {"samples": []}],
                             ids=["count-0", "count-negative", "no-samples"])
    def test_no_sample_is_an_error(self, kwargs):
        with pytest.raises(ia.AlgebraError, match="at least one sample"):
            verify_bstar(build_representation(ia.wiener()), **kwargs)

    def test_death_trivial_case(self):
        w = ia.wiener()
        rep = build_representation(w)
        d = w.death_element()
        assert seminorms(rep, d * d.star()).op == 0.0
        assert seminorms(rep, d).op ** 2 == 0.0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 1: the floor of 1 in core.cutoff is absolute, so the Gram eigenvalue "
    "1e-10 of this faithful table is cut as noise and hdim is 1"))
def test_tiny_weight_keeps_its_hdim():
    assert build_representation(ia.periodic_wiener(1, [1e-10])).hdim == 2


@pytest.mark.parametrize("build", [ia.newton, ia.zero_intensity_poisson])
def test_zero_hdim_runs_the_general_code(build):
    """H = 0 is one instance of C + H + C: every stage returns its empty shapes and zero residuals."""
    alg = build()
    rep, n = alg.gns, alg.dim
    assert rep.hdim == 0
    assert (rep.kmat.shape, rep.kdmat.shape, rep.imats.shape) == ((0, n), (n, 0), (n, 0, 0))
    assert support_projector(rep).shape == (0, 0)
    x = alg.basis_element(n - 1)
    assert slot_increment(rep, x, 0.1).shape == (1, 1)
    assert seminorms(rep, x).op == 0
    assert verify_bstar(rep).passed
    if rep.kernel.size == 0:   # faithful: the decomposition is defined
        residuals = decompose(alg).report.residuals
        assert residuals and all(v == 0 for v in residuals.values()), residuals


STACK_CASES = {
    **make_catalog(),
    "rot_group_levy_s3": _random_rotation(ia.group_levy(ia.symmetric_group(3)), np.random.default_rng(3))[0],
}


class TestStack:
    """``FundamentalRep.mats`` is the one copy of the representation."""

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(FundamentalRep)] == ["algebra", "mats", "eigenvalues"]

    @pytest.mark.parametrize("name", sorted(STACK_CASES))
    def test_triangular_of_a_basis_element_is_its_entry(self, name):
        rep = STACK_CASES[name].gns   # faithful or not
        n, d = rep.algebra.dim, rep.hdim
        assert rep.mats.shape == (n, d + 2, d + 2)
        for i, e in enumerate(np.eye(n)):
            assert triangular(rep, e).tobytes() == rep.mats[i].tobytes(), i   # the sign of zeros too
        parts = rep.mats.view(np.float64)
        assert not np.any((parts == 0) & np.signbit(parts)), "the stack holds -0.0"

    @pytest.mark.parametrize("name", sorted(STACK_CASES))
    def test_stack_entries_hold_the_quadruple(self, name):
        alg = STACK_CASES[name]
        rep = alg.gns
        assert np.array_equal(rep.mats[:, 0, -1], alg.state)
        assert not np.any(rep.mats[:, :, 0]) and not np.any(rep.mats[:, -1, :])
        # kdag(a) = k(a*)^dag
        assert rel_residual(rep.kdmat, np.conj(alg.star @ rep.kmat.T)) <= 1e-12

    def test_views_share_the_stack_and_are_read_only(self):
        rep = build_representation(ia.orthogonal_sum(ia.thermal_brownian(2.0, 0.5), ia.poisson()))
        d = rep.hdim
        assert d == 3 and not rep.mats.flags.writeable
        views = {"kmat": rep.kmat, "kdmat": rep.kdmat, "imats": rep.imats}
        blocks = {"kmat": rep.mats[:, 1:-1, -1].T, "kdmat": rep.mats[:, 0, 1:-1], "imats": rep.mats[:, 1:-1, 1:-1]}
        for name, view in views.items():
            assert np.shares_memory(view, rep.mats), name
            assert not view.flags.writeable, name
            assert np.array_equal(view, blocks[name]), name
            with pytest.raises(ValueError):
                view[...] = 0

    def test_accessors_are_slices_of_triangular(self):
        alg = STACK_CASES["rot_group_levy_s3"]
        rep = alg.gns
        a = ia.core.random_element(alg, np.random.default_rng(2))
        M = triangular(rep, a)
        assert rep.l_of(a) == M[0, -1]
        assert np.array_equal(rep.k_of(a), M[1:-1, -1])
        assert np.array_equal(rep.kdag_of(a), M[0, 1:-1])
        assert np.array_equal(rep.i_of(a), M[1:-1, 1:-1])
        assert rel_residual(rep.k_of(a), rep.kmat @ a.coeffs) <= 1e-12
        assert rel_residual(rep.l_of(a), a.coeffs @ alg.state) <= 1e-12


class TestErrors:
    def test_non_faithful_rejected(self):
        with pytest.raises(NonFaithfulError, match="quotient"):
            build_representation(ia.zero_intensity_poisson())

    def test_axiom_violation_rejected(self):
        w = ia.wiener()
        mult = np.array(w.mult)
        mult[1, 1, 0] = -1.0
        bad = ia.ItoAlgebra(labels=w.labels, mult=mult, star=w.star, death=w.death, state=w.state)
        with pytest.raises(ia.AlgebraError):
            build_representation(bad)

    def test_nan_quadruple_fails_validation(self):
        rep = build_representation(ia.wiener())
        nan = dataclasses.replace(rep, mats=np.full_like(rep.mats, np.nan))
        assert rep.report.passed
        assert [c.name for c in nan.report.failures()] == [
            "covariance", "kolmogorov", "star_adjoint", "death_unit"]
