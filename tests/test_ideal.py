import numpy as np
import pytest

import itoalg as ia
from itoalg.adsl import parse, serialize
from itoalg.core import AlgebraError
from itoalg.ideal import faithfulness_ideal, quotient


class TestFaithfulnessIdeal:
    def test_wiener_and_hp_trivial(self):
        # Hand-checked: for wiener the rows l(x) = x_0 and l(dw.x) = x_1
        # already force x = 0; hp(1) likewise has no null direction.
        assert faithfulness_ideal(ia.wiener()).is_trivial
        assert faithfulness_ideal(ia.hp(1)).is_trivial

    def test_zero_intensity_poisson_span_e(self):
        alg = ia.zero_intensity_poisson()
        ideal = faithfulness_ideal(alg)
        assert ideal.dim == 1
        v = ideal.matrix[0]
        assert abs(v[0]) <= 1e-12
        assert abs(abs(v[1]) - 1.0) <= 1e-12
        # pinned phase: leading component real positive
        assert v[1].real == pytest.approx(1.0)

    def test_all_other_builtins_trivial(self, faithful_catalog):
        for name, alg in faithful_catalog.items():
            assert faithfulness_ideal(alg).is_trivial, name

    def test_ideal_is_star_closed(self):
        alg = ia.zero_intensity_poisson()
        ideal = faithfulness_ideal(alg)
        for e in ideal.elements:
            assert ideal.contains(e.star().coeffs)

    def test_defining_property(self):
        # direct check of the membership conditions for the returned span
        alg = ia.zero_intensity_poisson()
        ideal = faithfulness_ideal(alg)
        y = ideal.elements[0]
        assert ia.state_of(y) == pytest.approx(0.0)
        for i in range(alg.dim):
            a = alg.basis_element(i)
            assert ia.state_of(a * y) == pytest.approx(0.0)
            assert ia.state_of(y * a) == pytest.approx(0.0)
            for j in range(alg.dim):
                c = alg.basis_element(j)
                assert ia.state_of(a * y * c) == pytest.approx(0.0)


class TestQuotient:
    def test_zero_intensity_quotient_is_newton(self):
        alg = ia.zero_intensity_poisson()
        quo = quotient(alg, faithfulness_ideal(alg))
        assert quo.algebra.dim == 1
        assert quo.algebra.same_table(ia.newton())
        assert quo.algebra.labels == ("dt",)

    def test_empty_ideal_is_identity(self):
        alg = ia.hp(1)
        quo = quotient(alg, faithfulness_ideal(alg))
        assert quo.algebra is alg or np.array_equal(quo.algebra.mult, alg.mult)
        assert np.array_equal(quo.matrix, np.eye(alg.dim))

    def test_sum_with_zero_intensity_recovers_wiener(self):
        alg = ia.orthogonal_sum(ia.wiener(), ia.zero_intensity_poisson())
        ideal = faithfulness_ideal(alg)
        assert ideal.dim == 1
        quo = quotient(alg, ideal)
        assert quo.algebra.same_table(ia.wiener())
        assert quo.algebra.labels == ("dt", "dw")

    def test_quotient_is_faithful(self):
        alg = ia.zero_intensity_poisson()
        quo = quotient(alg, faithfulness_ideal(alg))
        assert faithfulness_ideal(quo.algebra).is_trivial

    def test_quotient_map_is_star_homomorphism(self):
        alg = ia.orthogonal_sum(ia.wiener(), ia.zero_intensity_poisson())
        quo = quotient(alg, faithfulness_ideal(alg))
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = ia.core.random_element(alg, rng)
            b = ia.core.random_element(alg, rng)
            assert quo.map(a * b).allclose(quo.map(a) * quo.map(b))
            assert quo.map(a.star()).allclose(quo.map(a).star())
            assert ia.state_of(quo.map(a)) == pytest.approx(ia.state_of(a))

    def test_death_survives(self):
        alg = ia.zero_intensity_poisson()
        quo = quotient(alg, faithfulness_ideal(alg))
        d = quo.algebra.death
        assert float(np.max(np.abs(d))) > 0
        assert complex(d @ quo.algebra.state) == pytest.approx(1.0)

    def test_sheared_ideal_keeps_death_as_basis_element(self):
        # on the basis (dt, e + dt) the ideal span{e} has a dt component
        alg = ia.zero_intensity_poisson()
        dt, e = alg.basis_element("dt"), alg.basis_element("e")
        sheared = ia.subalgebra(alg, [dt, e + dt], labels=("dt", "f"))
        ideal = faithfulness_ideal(sheared)
        assert ideal.dim == 1 and abs(ideal.matrix[0, 0]) > 0.5
        quo = quotient(sheared, ideal)
        assert np.array_equal(quo.algebra.death, [1.0])
        assert quo.algebra.same_table(ia.newton())
        again = parse(serialize(quo.algebra))
        assert again.ok and again.algebra.same_table(ia.newton())

    def test_presentation_is_death_then_basis_vectors(self):
        alg = ia.orthogonal_sum(ia.wiener(), ia.zero_intensity_poisson())
        quo = quotient(alg, faithfulness_ideal(alg))
        assert np.array_equal(quo.complement, np.eye(alg.dim)[:2])
        assert np.allclose(quo.matrix @ quo.complement.T, np.eye(2))

    def test_rejects_death_in_ideal(self):
        w = ia.wiener()
        from itoalg.ideal import IdealBasis

        with pytest.raises(AlgebraError, match="death"):
            quotient(w, IdealBasis(w, np.array([[1.0, 0.0]], dtype=complex)))

    def test_rejects_non_ideal_span(self):
        w = ia.wiener()
        from itoalg.ideal import IdealBasis

        fake = IdealBasis(w, np.array([[0.0, 1.0]], dtype=complex))  # span{dw}
        with pytest.raises(AlgebraError):
            quotient(w, fake)

    def test_rejects_dependent_rows(self):
        alg = ia.zero_intensity_poisson()
        from itoalg.ideal import IdealBasis

        dup = IdealBasis(alg, np.array([[0, 1], [0, 1]], dtype=complex))
        with pytest.raises(AlgebraError):
            quotient(alg, dup)
