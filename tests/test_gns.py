import dataclasses

import numpy as np
import pytest

import itoalg as ia
from itoalg.core import rel_residual
from itoalg.gns import (
    NonFaithfulError,
    RepresentationError,
    _validate,
    build_representation,
    minkowski_adjoint,
    minkowski_metric,
    seminorms,
    triangular,
    verify_bstar,
)

from conftest import ref_multiply, ref_star

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
        rep = build_representation(ia.newton())
        assert rep.hdim == 0
        T = triangular(rep, ia.newton().death_element())
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


class TestBStar:
    def test_builtins_pass(self, faithful_catalog):
        for name, alg in faithful_catalog.items():
            rep = build_representation(alg)
            report = verify_bstar(rep, count=100, seed=42, tol=1e-8)
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

    def test_death_trivial_case(self):
        w = ia.wiener()
        rep = build_representation(w)
        d = w.death_element()
        assert seminorms(rep, d * d.star()).op == 0.0
        assert seminorms(rep, d).op ** 2 == 0.0


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
        nan = dataclasses.replace(
            rep,
            kmat=np.full_like(rep.kmat, np.nan),
            kdmat=np.full_like(rep.kdmat, np.nan),
            imats=np.full_like(rep.imats, np.nan),
        )
        with pytest.raises(RepresentationError):
            _validate(nan)
