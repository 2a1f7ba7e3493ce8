import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import itoalg as ia
from itoalg.adsl import parse, serialize
from itoalg.core import AlgebraError
from itoalg.gns import RepresentationError
from itoalg.ideal import IdealBasis, faithfulness_ideal, quotient

from conftest import make_catalog, ref_faithfulness_ideal
from test_cli import small_tables
from test_pipeline import _death_shear, _random_rotation


def _same_span(rows: np.ndarray, ref: np.ndarray) -> bool:
    """Equal dimension and equal orthoprojectors; both inputs have orthonormal rows."""
    if rows.shape != ref.shape:
        return False
    return np.allclose(rows.T @ rows.conj(), ref.T @ ref.conj(), atol=1e-8)


def _oracle_cases() -> dict[str, ia.ItoAlgebra]:
    """The catalog, and two random rotations and death shears of each entry."""
    cases = {}
    for name, alg in make_catalog().items():
        cases[name] = alg
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            cases[f"{name}/rotation{seed}"] = _random_rotation(alg, rng)[0]
            cases[f"{name}/shear{seed}"] = _death_shear(alg, rng)
    return cases


ORACLE_CASES = _oracle_cases()


def _passes_axioms(text: str) -> bool:
    result = parse(text)
    return result.ok and result.algebra.axioms.passed


class TestFaithfulnessIdeal:
    @pytest.mark.parametrize("name", list(ORACLE_CASES))
    def test_matches_triple_product_oracle(self, name):
        alg = ORACLE_CASES[name]
        assert _same_span(faithfulness_ideal(alg).matrix, ref_faithfulness_ideal(alg))

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
    @given(text=small_tables().filter(_passes_axioms))
    def test_matches_oracle_on_random_tables(self, text):
        alg = parse(text).algebra
        assert _same_span(faithfulness_ideal(alg).matrix, ref_faithfulness_ideal(alg)), text

    @pytest.mark.parametrize("weight", [1e-10, 1e-12])
    def test_tiny_weight_is_faithful(self, weight):
        # the triple-product system has entries up to 1/weight, and its rank
        # cut dropped the state row; the quadruple map's entries scale as the
        # square root of the Gram spectrum, so the state row stays above it
        assert faithfulness_ideal(ia.periodic_wiener(1, [weight])).is_trivial

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 1: the floor of 1 in core.cutoff is absolute, so the weights 1e-12 "
        "and 2e-12 are cut as noise and the faithful table gets an ideal of dimension 2"))
    def test_tiny_thermal_weights_are_faithful(self):
        assert faithfulness_ideal(ia.thermal_brownian(1e-12, 2e-12)).dim == 0

    def test_inconsistent_covariance_raises(self):
        # k(x) = 0 but k(y . x) = k(y) != 0: only a table failing the axioms does this
        mult = np.zeros((3, 3, 3))
        mult[2, 2, 0] = 1.0  # y . y = dt
        mult[2, 1, 2] = 1.0  # y . x = y
        alg = ia.ItoAlgebra(("dt", "x", "y"), mult, np.eye(3), 0, np.array([1.0, 0.0, 0.0]))
        assert not alg.axioms.passed
        with pytest.raises(RepresentationError, match="axioms fail"):
            faithfulness_ideal(alg)

    @pytest.mark.parametrize("entries", [{(1, 1, 0): np.nan}, {(1, 1, 0): 1e308, (1, 1, 1): 1e308}],
                             ids=["nan", "overflow"])
    @pytest.mark.parametrize("stage", [faithfulness_ideal, lambda alg: alg.gns], ids=["ideal", "gns"])
    def test_no_gns_for_a_table_whose_axioms_fail(self, entries, stage):
        # wiener with dw . dw = nan dt, or = 1e308 dt + 1e308 dw
        mult = np.array(ia.wiener().mult)
        for key, value in entries.items():
            mult[key] = value
        alg = ia.ItoAlgebra(("dt", "dw"), mult, np.eye(2), 0, np.array([1.0, 0.0]))
        failed = [c.name for c in alg.axioms.failures()]
        assert failed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RepresentationError, match="^axioms fail: ") as info:
                stage(alg)
        assert [part.split(" (")[0] for part in str(info.value).split(": ", 1)[1].split(", ")] == failed
        assert "gns" not in vars(alg)

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

    def test_contains_on_trivial_ideal(self):
        ideal = faithfulness_ideal(ia.wiener())
        assert ideal.dim == 0
        assert ideal.contains(np.zeros(2))
        assert ideal.contains(np.array([1e-12, 0.0]))
        assert not ideal.contains(np.array([0.0, 1e-6]))
        assert not IdealBasis(ideal.algebra, np.zeros((0, 2))).contains(np.array([np.nan, 0.0]))

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

    @pytest.mark.parametrize(
        "text, label, message",
        [
            ("basis dt f\ndeath dt\nstate dt = 1\nstate f = 1\n", "f",
             "state does not vanish on the proposed ideal"),
            (serialize(ia.hp(1)), "e-", "span is not star-closed"),
        ],
        ids=["state", "star"],
    )
    def test_a_proposed_ideal_that_is_not_one_is_refused(self, text, label, message):
        alg = parse(text).algebra
        ideal = IdealBasis(alg, alg.basis_element(label).coeffs[np.newaxis])
        with pytest.raises(AlgebraError, match=f"^{message}$"):
            quotient(alg, ideal)

    def test_rejects_dependent_rows(self):
        alg = ia.zero_intensity_poisson()
        from itoalg.ideal import IdealBasis

        dup = IdealBasis(alg, np.array([[0, 1], [0, 1]], dtype=complex))
        with pytest.raises(AlgebraError):
            quotient(alg, dup)
