import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import itoalg as ia
from itoalg import cli
from itoalg.core import AlgebraError


class TestConstructorValidation:
    def test_hp_requires_positive_mode_count(self):
        with pytest.raises(AlgebraError):
            ia.hp(0)

    def test_thermal_brownian_weights(self):
        with pytest.raises(AlgebraError):
            ia.thermal_brownian(0.0, 0.0)
        with pytest.raises(AlgebraError):
            ia.thermal_brownian(1.0, -0.1)

    def test_periodic_wiener_weights(self):
        with pytest.raises(AlgebraError):
            ia.periodic_wiener(0, [])
        with pytest.raises(AlgebraError):
            ia.periodic_wiener(2, [1.0])
        with pytest.raises(AlgebraError):
            ia.periodic_wiener(1, [-2.0])

    def test_thermal_matrix_weights(self):
        with pytest.raises(AlgebraError):
            ia.thermal_matrix(2, [1.0])
        with pytest.raises(AlgebraError):
            ia.thermal_matrix(1, [0.0])

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: ia.thermal_brownian(np.inf, 0.5), "rho_plus must be a positive finite real"),
            (lambda: ia.thermal_brownian(np.nan, 0.5), "rho_plus must be a positive finite real"),
            (lambda: ia.thermal_brownian(1.0, np.inf), "rho_minus must be a nonnegative finite real"),
            (lambda: ia.thermal_brownian(1.0, np.nan), "rho_minus must be a nonnegative finite real"),
            (lambda: ia.periodic_wiener(2, [1.0, np.inf]), "rho must contain K positive finite reals"),
            (lambda: ia.periodic_wiener(1, [np.nan]), "rho must contain K positive finite reals"),
            (lambda: ia.periodic_wiener(1, [1e-310]), "rho must have finite inverses"),
            (lambda: ia.thermal_matrix(2, [1.0, np.inf]), "rho must contain n positive finite reals"),
            (lambda: ia.thermal_matrix(1, [np.nan]), "rho must contain n positive finite reals"),
        ],
        ids=["tb-plus-inf", "tb-plus-nan", "tb-minus-inf", "tb-minus-nan", "pw-inf", "pw-nan",
             "pw-subnormal", "tm-inf", "tm-nan"],
    )
    def test_non_finite_weights_are_named(self, build, message):
        # rejected by the constructor, not reported as failing axioms
        with pytest.raises(AlgebraError, match=message):
            build()

    def test_group_levy_rejects_bad_lambda(self):
        g = ia.cyclic_group(2)
        # violates the self-inverse convolution
        with pytest.raises(AlgebraError, match="self-inverse"):
            ia.group_levy(g, [2.0, 0.0])
        # violates star symmetry
        g3 = ia.cyclic_group(3)
        with pytest.raises(AlgebraError, match="star symmetry"):
            ia.group_levy(g3, [1.0, 1.0, 0.0])

    def test_group_levy_rejects_nan_lambda(self):
        # NaN fails the first weight check, not only the final axiom check
        with pytest.raises(AlgebraError, match="star symmetry"):
            ia.group_levy(ia.cyclic_group(2), [1.0, np.nan])

    def test_bad_cayley_table(self):
        with pytest.raises(AlgebraError):
            ia.FiniteGroup(("a", "b"), np.array([[0, 0], [0, 0]]))

    @pytest.mark.parametrize(
        "table, message",
        [
            ([[0, 0], [1, 1]], "rows/columns must be permutations"),  # columns Latin, rows not
            ([[0, 1], [0, 1]], "rows/columns must be permutations"),  # rows Latin, columns not
            # x o y = -x - y mod 3 is a Latin square, but (x o y) o z = x + y - z
            (np.negative(np.add.outer(range(3), range(3))) % 3, "not associative"),
        ],
    )
    def test_cayley_table_rejections(self, table, message):
        names = tuple(f"g{i}" for i in range(len(table)))
        with pytest.raises(AlgebraError, match=message):
            ia.FiniteGroup(names, np.array(table))


class TestTables:
    def test_newton(self):
        n = ia.newton()
        d = n.death_element()
        assert (d * d).is_zero()
        assert ia.verify_axioms(n).passed
        from itoalg.ideal import faithfulness_ideal

        assert faithfulness_ideal(n).is_trivial

    def test_hp2_off_mode_product_vanishes(self):
        h = ia.hp(2)
        e1 = h.basis_element("e-^1")
        p2 = h.basis_element("e+_2")
        assert (e1 * p2).is_zero()
        assert (e1 * h.basis_element("e+_1")).allclose(h.death_element())

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_hp_axioms(self, d):
        assert ia.verify_axioms(ia.hp(d)).passed

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_hp_is_the_triangular_matrix_unit_algebra(self, d):
        # the matrix units of C + C^d + C, rows and columns ordered -, 1..d, +:
        # dt = E_-+, e-^i = E_-i, e+_j = E_j+, e^i_j = E_ij, with star G E^T G
        # for the metric G that swaps - and +
        size = d + 2
        minus, plus = 0, d + 1

        def unit(a, b):
            M = np.zeros((size, size))
            M[a, b] = 1.0
            return M

        one = d == 1
        units = {"dt": unit(minus, plus)}
        for i in range(1, d + 1):
            units["e-" if one else f"e-^{i}"] = unit(minus, i)
            units["e+" if one else f"e+_{i}"] = unit(i, plus)
            for j in range(1, d + 1):
                units["e" if one else f"e^{i}_{j}"] = unit(i, j)
        h = ia.hp(d)
        assert sorted(h.labels) == sorted(units)
        B = np.array([units[lab] for lab in h.labels])
        G = np.eye(size)[[plus, *range(1, d + 1), minus]]
        # coefficients on the orthonormal matrix units are Frobenius products
        mult = np.einsum("aij,bjk,cik->abc", B, B, B)
        star = np.einsum("aij,cij->ac", G @ B.transpose(0, 2, 1) @ G, B)
        assert np.max(np.abs(h.mult - mult)) <= 1e-12
        assert np.max(np.abs(h.star - star)) <= 1e-12

    def test_hp_exchange_composition(self):
        h = ia.hp(2)
        e12 = h.basis_element("e^1_2")
        e21 = h.basis_element("e^2_1")
        assert (e12 * e21).allclose(h.basis_element("e^1_1"))
        assert (e12 * e12).is_zero()
        assert e12.star().allclose(e21)

    def test_periodic_wiener_products(self):
        pw = ia.periodic_wiener(2, (2.0, 3.0))
        d1, dm1 = pw.basis_element("d1"), pw.basis_element("d-1")
        assert (d1 * dm1).allclose(2.0 * pw.death_element())
        assert (dm1 * d1).allclose(0.5 * pw.death_element())
        assert d1.star().allclose(dm1)
        assert (d1 * d1).is_zero()

    def test_periodic_wiener_second_order_nilpotent(self):
        pw = ia.periodic_wiener(3, (2.0, 3.0, 5.0))
        death = pw.death_element()
        for i in range(1, pw.dim):
            for j in range(1, pw.dim):
                w = pw.basis_element(i) * pw.basis_element(j)
                assert w.allclose(ia.state_of(w) * death)

    def test_periodic_wiener_commutative_iff_unit_weights(self):
        assert ia.commutant_check(ia.periodic_wiener(1, [1.0]))
        assert not ia.commutant_check(ia.periodic_wiener(1, [2.0]))

    def test_thermal_matrix_trivial_case(self):
        tm = ia.thermal_matrix(1, [1.0])
        x = tm.basis_element("x11")
        assert (x * x).allclose(x + tm.death_element())  # unital line, Poisson type

    def test_thermal_matrix_gram_strictly_positive(self):
        tm = ia.thermal_matrix(2, (2 / 3, 1 / 3))
        H = ia.gram_matrix(tm)
        zero_mean = H[1:, 1:]
        eigs = np.linalg.eigvalsh((zero_mean + zero_mean.conj().T) / 2)
        assert eigs[0] > 1e-12
        assert sorted(np.round(eigs, 12)) == sorted(
            np.round([2 / 3, 1 / 3, 2 / 3, 1 / 3], 12)
        )

    def test_group_levy_table(self):
        g = ia.cyclic_group(2)
        alg = ia.group_levy(g)
        d0, d1 = alg.basis_element("d_g0"), alg.basis_element("d_g1")
        # d_g . d_h = lam(gh) dt + d_(gh), delta weight at the identity
        assert (d1 * d1).allclose(alg.death_element() + d0)
        assert (d0 * d1).allclose(d1)

    def test_group_levy_commutativity(self):
        assert ia.commutant_check(ia.group_levy(ia.cyclic_group(2)))
        assert ia.commutant_check(ia.group_levy(ia.cyclic_group(3)))
        assert not ia.commutant_check(ia.group_levy(ia.symmetric_group(3)))

    def test_group_levy_z1_is_poisson(self):
        alg = ia.group_levy(ia.cyclic_group(1))
        assert np.allclose(alg.mult, ia.poisson().mult)


class TestThermalBrownian:
    def test_vacuum_pair_matches_hp_subalgebra(self):
        tb = ia.thermal_brownian(1.0, 0.0)
        h = ia.hp(1)
        sub = ia.subalgebra(
            h, [h.basis_element("dt"), h.basis_element("e-"), h.basis_element("e+")]
        )
        assert np.allclose(tb.mult, sub.mult)
        assert np.allclose(tb.star, sub.star)
        assert np.allclose(tb.state, sub.state)

    def test_commutative_iff_equal_weights(self):
        assert ia.commutant_check(ia.thermal_brownian(1.0, 1.0))
        assert not ia.commutant_check(ia.thermal_brownian(2.0, 0.5))


class TestOrthogonalSum:
    def test_wiener_plus_poisson_is_commutative(self):
        s = ia.orthogonal_sum(ia.wiener(), ia.poisson())
        assert s.dim == 3
        assert ia.commutant_check(s)
        assert (s.basis_element("dw") * s.basis_element("dm")).is_zero()

    def test_sum_with_newton_is_identity(self):
        for alg in (ia.wiener(), ia.hp(1)):
            s = ia.orthogonal_sum(alg, ia.newton())
            assert s.same_table(alg)
            assert s.labels == alg.labels

    def test_label_collision_handled(self):
        s = ia.orthogonal_sum(ia.wiener(), ia.wiener())
        assert len(set(s.labels)) == 3

    def test_decompose_recovers_summands(self):
        s = ia.orthogonal_sum(ia.wiener(), ia.poisson())
        dec = ia.decompose(s)
        assert len(dec.brownian) == 2 and len(dec.levy) == 2

    def test_sum_carries_the_larger_tolerance(self):
        loose = dataclasses.replace(ia.wiener(), tol=1e-6)
        assert ia.orthogonal_sum(loose, ia.poisson()).tol == 1e-6
        assert ia.orthogonal_sum(ia.poisson(), loose).tol == 1e-6
        with pytest.raises(TypeError):
            ia.orthogonal_sum(loose, ia.poisson(), tol=1e-3)


@pytest.mark.parametrize("name", list(cli._CATALOG))
def test_catalog_builtin_is_made_at_the_default_tolerance(name):
    assert cli._make_builtin(name, None).tol == ia.ItoAlgebra.tol


@settings(max_examples=20, deadline=None)
@given(
    rhos=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=3),
)
def test_periodic_wiener_gram_psd_random_weights(rhos):
    alg = ia.periodic_wiener(len(rhos), rhos)
    report = ia.verify_axioms(alg)
    assert report.passed


@settings(max_examples=10, deadline=None)
@given(n=st.integers(1, 3), seed=st.integers(0, 2**31 - 1))
def test_thermal_matrix_random_weights(n, seed):
    rng = np.random.default_rng(seed)
    rho = rng.uniform(0.1, 5.0, n)
    alg = ia.thermal_matrix(n, rho)
    assert ia.verify_axioms(alg).passed
