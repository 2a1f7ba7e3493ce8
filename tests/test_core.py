import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import itoalg as ia
from itoalg.core import AlgebraError, cutoff, gram_schmidt, null_space, numerical_rank, rel_residual

from conftest import make_catalog, ref_multiply, ref_star


def vec(alg, **terms):
    return alg.element_from(terms)


class TestMultiplicationTables:
    def test_wiener_table(self):
        w = ia.wiener()
        dt, dw = w.basis_element("dt"), w.basis_element("dw")
        assert (dw * dw).allclose(dt)
        assert (dw * dt).is_zero()
        assert (dt * dw).is_zero()

    def test_poisson_table(self):
        p = ia.poisson()
        dt, dm = p.basis_element("dt"), p.basis_element("dm")
        assert (dm * dm).allclose(dm + dt)

    def test_death_annihilates_everywhere(self, catalog):
        rng = np.random.default_rng(0)
        for alg in catalog.values():
            d = alg.death_element()
            a = ia.core.random_element(alg, rng)
            assert (a * d).is_zero()
            assert (d * a).is_zero()

    def test_hp_table(self):
        h = ia.hp(1)
        dt = h.basis_element("dt")
        em, ep, e = h.basis_element("e-"), h.basis_element("e+"), h.basis_element("e")
        assert (em * ep).allclose(dt)
        assert (em * e).allclose(em)
        assert (e * ep).allclose(ep)
        assert (e * e).allclose(e)
        # every other ordered pair multiplies to zero
        nonzero = {("e-", "e+"), ("e-", "e"), ("e", "e+"), ("e", "e")}
        for s1 in h.labels:
            for s2 in h.labels:
                if (s1, s2) not in nonzero:
                    assert (h.basis_element(s1) * h.basis_element(s2)).is_zero()

    def test_dimension_mismatch(self):
        w, p = ia.wiener(), ia.hp(1)
        with pytest.raises(AlgebraError):
            ia.multiply(w.basis_element(0), p.basis_element(0))


class TestStarAndState:
    def test_death_self_adjoint(self, catalog):
        for alg in catalog.values():
            d = alg.death_element()
            assert d.star().allclose(d)

    def test_hp_star_swaps_creation_annihilation(self):
        h = ia.hp(1)
        assert h.basis_element("e-").star().allclose(h.basis_element("e+"))
        assert h.basis_element("e+").star().allclose(h.basis_element("e-"))

    def test_star_antilinear(self):
        w = ia.wiener()
        a = 1j * w.basis_element("dw")
        assert a.star().allclose(-1j * w.basis_element("dw"))

    def test_state_values(self):
        w, p = ia.wiener(), ia.poisson()
        assert w.death_element().state() == pytest.approx(1.0)
        assert w.basis_element("dw").state() == pytest.approx(0.0)
        dm = p.basis_element("dm")
        assert (dm.star() * dm).state() == pytest.approx(1.0)


class TestVerifyAxioms:
    def test_builtins_pass(self, catalog):
        for name, alg in catalog.items():
            report = ia.verify_axioms(alg)
            assert report.passed, f"{name}: {report.summary()}"
            assert report.max_residual <= 1e-9

    @pytest.mark.parametrize("name", ["wiener", "hp1"])
    def test_against_loop_oracle(self, catalog, name):
        # brute force over all basis triples with the reference product
        alg = catalog[name]
        n = alg.dim
        basis = np.eye(n, dtype=complex)
        for i in range(n):
            for j in range(n):
                ij = ref_multiply(alg, basis[i], basis[j])
                for k in range(n):
                    jk = ref_multiply(alg, basis[j], basis[k])
                    lhs = ref_multiply(alg, ij, basis[k])
                    rhs = ref_multiply(alg, basis[i], jk)
                    assert rel_residual(lhs, rhs) <= 1e-12
                anti = ref_star(alg, ij)
                other = ref_multiply(alg, ref_star(alg, basis[j]), ref_star(alg, basis[i]))
                assert rel_residual(anti, other) <= 1e-12
        assert ia.verify_axioms(alg).passed

    def test_tampered_wiener_fails_positivity(self):
        w = ia.wiener()
        mult = np.array(w.mult)
        mult[1, 1, 0] = -1.0
        bad = ia.ItoAlgebra(
            labels=w.labels, mult=mult, star=w.star, death=w.death, state=w.state
        )
        report = ia.verify_axioms(bad)
        assert not report.passed
        failing = {c.name for c in report.failures()}
        assert failing == {"state_positive"}
        check = next(c for c in report.checks if c.name == "state_positive")
        assert "-1.000e+00" in check.detail

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 2: rel_residual divides by max(1, |data|), so the associator of a "
        "table of scale s falls like s**2 and passes at s = 1e-5 (residual 7.5e-11)"))
    def test_small_non_associative_table_fails(self):
        # hp(1) on the basis dt, s e-, s e+, s e with e-.e and e.e+ scaled by 1.5: the star
        # stays antimultiplicative, and (e-.e).e - e-.(e.e) = 0.75 s**2 e-
        s = 1e-5
        text = (
            "basis dt e- e+ e\ndeath dt\nstate dt = 1\nstar e- = 1 e+\nstar e+ = 1 e-\n"
            f"mul e- e+ = {s * s!r} dt\nmul e- e = {1.5 * s!r} e-\nmul e e+ = {1.5 * s!r} e+\n"
            f"mul e e = {s!r} e\n"
        )
        report = ia.verify_axioms(ia.parse(text).algebra)
        assert {c.name for c in report.failures()} == {"associativity"}

    def test_report_is_computed_once_and_kept(self):
        alg = ia.parse(ia.serialize(ia.wiener())).algebra
        assert ia.verify_axioms(alg) is ia.verify_axioms(alg) is alg.axioms

    def test_report_shape(self, catalog):
        report = ia.verify_axioms(catalog["wiener"])
        d = report.to_dict()
        assert d["passed"] is True
        assert {c["name"] for c in d["checks"]} >= {"associativity", "state_positive"}


def _stage_reports() -> dict:
    """The report of each stage on wiener + poisson: axioms, representation, decomposition, B*."""
    alg = ia.orthogonal_sum(ia.wiener(), ia.poisson())
    rep = ia.build_representation(alg)
    return {"axioms": alg.axioms, "gns": rep.report, "decompose": ia.decompose(alg).report,
            "bstar": ia.verify_bstar(rep, count=10, seed=1)}


STAGE_REPORTS = _stage_reports()


def _with_residual(report: ia.Report, index: int, residual: float) -> ia.Report:
    checks = list(report.checks)
    checks[index] = dataclasses.replace(checks[index], residual=residual)
    return dataclasses.replace(report, checks=tuple(checks))


class TestOneReport:
    """Every stage is judged by one ``core.Report``: ``residual <= tol``, a NaN failing."""

    @pytest.mark.parametrize("stage", sorted(STAGE_REPORTS))
    def test_every_stage_returns_the_one_report(self, stage):
        report = STAGE_REPORTS[stage]
        assert type(report) is ia.Report and report.passed and report.tol == 1e-9
        assert report.checks and all(type(c) is ia.Check for c in report.checks)
        assert report.residuals == {c.name: c.residual for c in report.checks}

    @pytest.mark.parametrize("index", [0, -1])
    @pytest.mark.parametrize("stage", sorted(STAGE_REPORTS))
    def test_a_nan_residual_fails(self, stage, index):
        bad = _with_residual(STAGE_REPORTS[stage], index, float("nan"))
        assert not bad.passed
        assert bad.failures() == [bad.checks[index]]
        assert np.isnan(bad.max_residual)

    @pytest.mark.parametrize("stage", sorted(STAGE_REPORTS))
    def test_the_verdict_is_residual_at_most_tol(self, stage):
        report = STAGE_REPORTS[stage]
        assert _with_residual(report, 0, report.tol).passed
        for residual in (np.nextafter(report.tol, 1.0), np.inf):
            bad = _with_residual(report, 0, residual)
            assert bad.failures() == [bad.checks[0]]

    @pytest.mark.parametrize("failing", [(), (0,), (0, -1)], ids=["none", "first", "first-last"])
    @pytest.mark.parametrize("stage", sorted(STAGE_REPORTS))
    def test_dict_and_summary_agree_with_the_verdict(self, stage, failing):
        report = STAGE_REPORTS[stage]
        for index in failing:
            report = _with_residual(report, index, float("nan"))
        d = report.to_dict()
        assert (d["passed"], d["tol"]) == (report.passed, report.tol)
        assert [c["name"] for c in d["checks"]] == [c.name for c in report.checks]
        assert [c["residual"] for c in d["checks"]] == [c.residual for c in report.checks]
        failed = [c.name for c in report.failures()]
        assert [c["name"] for c in d["checks"] if not c["passed"]] == failed
        lines = report.summary().splitlines()
        assert len(lines) == len(report.checks)
        assert [line.split()[1] for line in lines if line.startswith("FAIL")] == failed
        assert all(line.startswith(("pass  ", "FAIL  ")) for line in lines)

    @pytest.mark.parametrize("failing", [(), (0,), (0, -1)], ids=["none", "first", "first-last"])
    @pytest.mark.parametrize("stage", sorted(STAGE_REPORTS))
    def test_require_raises_for_the_failed_checks(self, stage, failing):
        report = STAGE_REPORTS[stage]
        for index in failing:
            report = _with_residual(report, index, float("nan"))
        if not failing:
            assert report.require(AlgebraError, "stage fails") is report
            return
        with pytest.raises(AlgebraError) as info:
            report.require(AlgebraError, "stage fails")
        named = ", ".join(f"{c.name} (residual nan)" for c in report.failures())
        assert str(info.value) == f"stage fails: {named}"

    def test_inputs_are_spread_into_the_dict(self):
        d = STAGE_REPORTS["bstar"].to_dict()
        assert (d["samples"], d["seed"]) == (10, 1)
        assert set(d) == {"passed", "tol", "checks", "samples", "seed"}
        assert set(STAGE_REPORTS["axioms"].to_dict()) == {"passed", "tol", "checks"}


class TestCommutant:
    def test_examples(self, catalog):
        assert ia.commutant_check(catalog["wiener"])
        assert not ia.commutant_check(catalog["hp1"])
        assert not ia.commutant_check(catalog["thermal_brownian"])
        # dw.dw* = 2 dt while dw*.dw = 0.5 dt
        tb = catalog["thermal_brownian"]
        dw, dws = tb.basis_element("dw"), tb.basis_element("dw*")
        assert (dw * dws).allclose(2.0 * tb.death_element())
        assert (dws * dw).allclose(0.5 * tb.death_element())


_CACHED = make_catalog()
NAMES = sorted(_CACHED)
seeds = st.integers(0, 2**31 - 1)


class TestAlgebraProperties:
    @settings(max_examples=25, deadline=None)
    @given(name=st.sampled_from(NAMES), seed=seeds)
    def test_associativity_random(self, name, seed):
        alg = _CACHED[name]
        rng = np.random.default_rng(seed)
        a, b, c = (ia.core.random_element(alg, rng) for _ in range(3))
        lhs, rhs = (a * b) * c, a * (b * c)
        assert rel_residual(lhs.coeffs, rhs.coeffs) <= alg.tol

    @settings(max_examples=25, deadline=None)
    @given(name=st.sampled_from(NAMES), seed=seeds)
    def test_star_properties(self, name, seed):
        alg = _CACHED[name]
        rng = np.random.default_rng(seed)
        a, b = ia.core.random_element(alg, rng), ia.core.random_element(alg, rng)
        assert (a * b).star().allclose(b.star() * a.star())
        assert a.star().star().allclose(a)
        assert ia.state_of(a.star()) == pytest.approx(np.conj(ia.state_of(a)))

    @settings(max_examples=25, deadline=None)
    @given(name=st.sampled_from(NAMES), seed=seeds)
    def test_state_positivity_random(self, name, seed):
        alg = _CACHED[name]
        rng = np.random.default_rng(seed)
        a = ia.core.random_element(alg, rng)
        val = ia.state_of(a.star() * a)
        scale = max(1.0, float(np.max(np.abs(a.coeffs))) ** 2)
        assert val.real >= -alg.tol * scale
        assert abs(val.imag) <= alg.tol * scale

    @settings(max_examples=25, deadline=None)
    @given(name=st.sampled_from(NAMES), seed=seeds)
    def test_bilinearity(self, name, seed):
        alg = _CACHED[name]
        rng = np.random.default_rng(seed)
        a, b, c = (ia.core.random_element(alg, rng) for _ in range(3))
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        lhs = (alpha * a + b) * c
        rhs = alpha * (a * c) + (b * c)
        assert rel_residual(lhs.coeffs, rhs.coeffs) <= 1e-12 * max(
            1.0, float(np.max(np.abs(rhs.coeffs)))
        )


class TestSubalgebra:
    def test_vacuum_brownian_span_of_hp(self):
        h = ia.hp(1)
        sub = ia.subalgebra(
            h,
            [h.basis_element("dt"), h.basis_element("e-"), h.basis_element("e+")],
            labels=("dt", "e-", "e+"),
        )
        assert ia.verify_axioms(sub).passed
        # matches the thermal Brownian pair at rho_plus=1, rho_minus=0
        tb = ia.thermal_brownian(1.0, 0.0)
        assert np.allclose(sub.mult, tb.mult)
        assert np.allclose(sub.star, tb.star)

    def test_not_closed_raises(self):
        h = ia.hp(1)
        with pytest.raises(AlgebraError):
            ia.subalgebra(h, [h.basis_element("dt"), h.basis_element("e-"), h.basis_element("e")])

    def test_no_vector_raises(self):
        with pytest.raises(AlgebraError, match="at least one spanning vector"):
            ia.subalgebra(ia.wiener(), [])

    def test_non_finite_vector_raises(self):
        with pytest.raises(AlgebraError, match="must be finite"):
            ia.subalgebra(ia.wiener(), [[1.0, 0.0], [0.0, np.nan]])

    def test_label_count_is_named(self):
        with pytest.raises(AlgebraError, match="expected 2 labels, one per spanning vector, got 1"):
            ia.subalgebra(ia.wiener(), np.eye(2), labels=["a"])


class TestNumericalRank:
    def test_cut_sits_at_tol_times_top_value(self):
        # values just above and just below the cutoff tol * s_max
        assert numerical_rank([100.0, 1.01e-7, 0.99e-7], 1e-9) == 2

    def test_floor_of_one_below_unit_scale(self):
        # s_max < 1: the cutoff stays at tol, so 5e-10 is dropped even
        # though it is far above tol * s_max
        assert numerical_rank([0.5, 2e-9, 5e-10], 1e-9) == 2
        assert numerical_rank([1e-12, 1e-13], 1e-9) == 0

    def test_empty_and_negative_spectra(self):
        assert numerical_rank([], 1e-9) == 0
        # a PSD eigenvalue spectrum with rounding below zero
        assert numerical_rank([-1e-17, 0.0, 3.0], 1e-9) == 1

    def test_cutoff_of_empty_values_is_tol(self):
        assert cutoff([], 1e-9) == 1e-9
        assert cutoff(np.zeros((0, 3)), 1e-9) == 1e-9

    def test_nan_or_negative_values_leave_the_floor(self):
        assert cutoff([np.nan, 5.0], 1e-9) == 1e-9
        assert cutoff([-3.0, -1e-17], 1e-9) == 1e-9
        # a NaN in a spectrum counts as no value above the cut
        assert numerical_rank([np.nan, 5.0, 1e-12], 1e-9) == 1

    def test_cutoff_of_a_scalar_norm(self):
        # gram_schmidt's keep rule: a row's own norm sets its cut
        assert cutoff(250.0, 1e-6) == 1e-6 * 250.0
        assert cutoff(np.float64(0.25), 1e-6) == 1e-6
        assert cutoff(np.linalg.norm([3.0, 4.0j]), 0.1) == 0.1 * 5.0

    def test_matrix_rank_counts_singular_values_above_the_cutoff(self):
        rng = np.random.default_rng(0)
        # at top singular value 100 the cutoff is 1e-7: 1e-6 is kept and 1e-12 dropped
        u, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
        v, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        m = u[:, :5] @ np.diag([100.0, 3.0, 0.5, 1e-6, 1e-12]) @ v.T
        svals = np.linalg.svd(m, compute_uv=False)
        assert numerical_rank(m, 1e-9) == int(np.sum(svals > cutoff(svals, 1e-9))) == 4
        assert numerical_rank(m.T, 1e-9) == 4
        assert numerical_rank(np.zeros((3, 0)), 1e-9) == 0


def _with_spectrum(rng, shape, svals) -> np.ndarray:
    """A complex matrix of ``shape`` with the singular values ``svals`` (padded with zeros)."""
    m, n = shape
    k = min(m, n)
    u, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    s = np.zeros(k)
    s[: len(svals)] = svals
    return (u[:, :k] * s) @ v[:, :k].conj().T


def _full_svd_null(matrix, tol):
    """The rank and null-space projector from a full SVD of ``matrix`` itself."""
    _, svals, vh = np.linalg.svd(matrix)
    rank = int(np.sum(svals > cutoff(svals, tol)))
    null = vh[rank:].conj()
    return rank, null.T @ null.conj()


# Each spectrum straddles its cut tol * max(1, s_max) with a gap of 10^3 or more on both sides.
SPECTRA = {
    "large": [100.0, 7.0, 1.0, 1e-11, 0.0],   # cut 1e-7
    "below_one": [0.5, 0.02, 3e-13],          # cut 1e-9, the floor
    "full": [4.0, 2.0, 1.5],
    "noise": [3e-12, 1e-13],
}
SHAPES = {"tall": (40, 5), "square": (6, 6), "wide": (5, 40)}


class TestRankRoute:
    """``null_space`` reads a tall matrix through its R factor; both agree with a full SVD."""

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("spectrum", sorted(SPECTRA))
    def test_agrees_with_a_full_svd(self, shape, spectrum):
        m = _with_spectrum(np.random.default_rng(0), SHAPES[shape], SPECTRA[spectrum])
        rank, proj = _full_svd_null(m, 1e-9)
        assert rank == sum(s > cutoff(SPECTRA[spectrum], 1e-9) for s in SPECTRA[spectrum])
        assert numerical_rank(m, 1e-9) == rank
        null = null_space(m, 1e-9)
        assert null.shape == (m.shape[1] - rank, m.shape[1])
        assert rel_residual(null.T @ null.conj(), proj) <= 1e-12
        assert rel_residual(null.conj() @ null.T, np.eye(len(null))) <= 1e-12

    @pytest.mark.parametrize("shape", [(7, 3), (3, 7), (4, 4), (0, 3), (3, 0), (0, 0)])
    def test_zero_and_empty_matrices(self, shape):
        m = np.zeros(shape, dtype=complex)
        rank, proj = _full_svd_null(m, 1e-9)
        assert numerical_rank(m, 1e-9) == rank == 0
        null = null_space(m, 1e-9)
        assert null.shape == (shape[1], shape[1])
        assert rel_residual(null.T @ null.conj(), proj) <= 1e-12

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_matrix_is_refused_before_any_factorization(self, monkeypatch, shape, bad):
        m = _with_spectrum(np.random.default_rng(3), SHAPES[shape], [2.0, 1.0])
        m[1, 2] = bad
        for name in ("svd", "qr"):
            monkeypatch.setattr(np.linalg, name, lambda *a, **k: pytest.fail("factorized"))
        for decide in (numerical_rank, null_space):
            with pytest.raises(AlgebraError, match="finite"):
                decide(m, 1e-9)
        with pytest.raises(AlgebraError, match="finite"):
            numerical_rank(np.full((6, 2), np.inf), 1e-9)

    def test_no_command_forms_a_tall_u(self, monkeypatch, tmp_path, capsys):
        """No matrix whose SVD forms U in ``check``, ``represent`` or ``decompose`` has more rows than columns.

        A values-only SVD (``compute_uv=False``) forms no U, whatever the shape.
        """
        from itoalg import cli

        path = tmp_path / "pw16.ito"
        path.write_text(ia.serialize(ia.periodic_wiener(16, [0.5 + k / 16 for k in range(16)])))
        shapes, svd = [], np.linalg.svd

        def spy(a, full_matrices=True, compute_uv=True, hermitian=False):
            if compute_uv:
                shapes.append(np.shape(a))
            return svd(a, full_matrices, compute_uv, hermitian)

        monkeypatch.setattr(np.linalg, "svd", spy)
        for command in ("check", "represent", "decompose"):
            assert cli.main([command, str(path)]) == 0
        capsys.readouterr()
        assert shapes and all(rows <= cols for rows, cols in shapes), shapes
        assert (33, 33) in shapes   # the kernel's R factor


class TestGramSchmidt:
    @pytest.mark.parametrize("cut", [0.0, 1e-300, 1e-9])
    def test_stops_at_full_rank(self, cut):
        # three orthonormal rows of C^3, their sum and a repeat: the later rows' orthogonal
        # parts are rounding noise, which a cut of 0 or 1e-300 would keep
        q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)) + 1j)
        rows = np.vstack([q.T, q.T.sum(0), q.T[0]])
        kept, ortho = gram_schmidt(rows, cut)
        assert kept == [0, 1, 2]
        assert ortho.shape == (3, 3) == (len(kept), rows.shape[1])
        assert rel_residual(ortho @ ortho.conj().T, np.eye(3)) <= 1e-12


class TestNonBasisDeath:
    def test_rotated_wiener_full_stack(self):
        # basis u0 = dt + dw, u1 = dt - dw: the death is the coefficient
        # vector (1/2, 1/2), not a basis element
        w = ia.wiener()
        u0 = w.element_from({"dt": 1.0, "dw": 1.0})
        u1 = w.element_from({"dt": 1.0, "dw": -1.0})
        rot = ia.subalgebra(w, [u0, u1], labels=("u0", "u1"))
        assert np.allclose(rot.death, [0.5, 0.5])
        assert ia.verify_axioms(rot).passed
        rep = ia.build_representation(rot)
        assert rep.hdim == 1
        dec = ia.decompose(rot)
        assert dec.is_purely_brownian()
        d = rot.death_element()
        assert (rot.basis_element(0) * d).is_zero()
        assert ia.state_of(d) == pytest.approx(1.0)


class TestImmutability:
    def test_arrays_read_only(self):
        w = ia.wiener()
        with pytest.raises(ValueError):
            w.mult[0, 0, 0] = 5.0
        a = w.basis_element("dw")
        with pytest.raises(ValueError):
            a.coeffs[0] = 1.0


# the parts of a coefficient whose text is pinned: signed zeros, infinities, nan, extremes, 1/3
EDGE_PARTS = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-300, -1e-300, 1 / 3, -1 / 3]


class TestElementShape:
    @pytest.mark.parametrize("shape", [(2, 1), (1, 2), (1,), ()])
    def test_shape_is_checked_before_any_reshape(self, shape):
        # an element takes a (dim,) vector, as triangular and coeffs_of do: (2, 1) is no vector
        w = ia.wiener()
        with pytest.raises(AlgebraError, match="expected 2") as caught:
            ia.Element(w, np.ones(shape))
        with pytest.raises(AlgebraError) as also:
            ia.triangular(w.gns, np.ones(shape))
        assert str(caught.value) == str(also.value)


class TestElementRepr:
    def test_pinned_text(self):
        w = ia.wiener()
        assert repr(ia.Element(w, [0, complex(np.nan, np.inf)])) == "(nan+infj)*dw"
        assert repr(ia.Element(w, [1, complex(-0.0, 1e300)])) == "(1+0j)*dt + (-0+1e+300j)*dw"
        assert repr(ia.Element(w, [-0.0, complex(1 / 3, -0.0)])) == "(0.333333-0j)*dw"
        assert repr(ia.Element(w, [complex(0.0, -0.0), 0])) == "0"

    @pytest.mark.parametrize("real", EDGE_PARTS)
    def test_edge_parts_print_as_python_complexes(self, real):
        # a zero coefficient (either sign of either part) is left out; any other prints with .6g
        w = ia.wiener()
        for imag in EDGE_PARTS:
            z = complex(real, imag)
            want = "(1+0j)*dt" + ("" if z == 0 else f" + ({z:.6g})*dw")
            assert repr(ia.Element(w, [1, z])) == want, z


def _sum_of_elements(p):
    return ia.wiener().basis_element("dw") + p.basis_element("dm")


def _seminorms(p):
    return ia.seminorms(ia.build_representation(ia.wiener()), p.basis_element("dm"))


def _triangular(p):
    return ia.triangular(ia.build_representation(ia.wiener()), p.basis_element("dm"))


def _quotient_map(p):
    z = ia.zero_intensity_poisson()
    return ia.quotient(z, ia.faithfulness_ideal(z)).map(p.basis_element("dm"))


def _subalgebra(p):
    return ia.subalgebra(ia.wiener(), [p.basis_element("dt"), p.basis_element("dm")])


class TestOneAlgebraObject:
    @pytest.mark.parametrize(
        "entry", [_sum_of_elements, _seminorms, _triangular, _quotient_map, _subalgebra],
        ids=lambda f: f.__name__.lstrip("_"),
    )
    def test_an_element_of_another_algebra_object_raises(self, entry):
        # every operand has dimension 2: only the algebra object tells them apart
        with pytest.raises(AlgebraError, match="algebra object"):
            entry(ia.poisson())

    @pytest.mark.parametrize("entry", [
        lambda rep, v: ia.verify_bstar(rep, samples=[v, [4, 5, 6]]),
        lambda rep, v: ia.verify_bstar(rep, samples=[v]),
        ia.triangular,
        ia.seminorms,
        lambda rep, v: ia.quotient(rep.algebra, ia.faithfulness_ideal(rep.algebra)).map(v),
    ], ids=["verify_bstar_pair", "verify_bstar_one", "triangular", "seminorms", "quotient_map"])
    def test_a_vector_of_another_length_raises(self, entry):
        # six numbers are not three coefficient vectors of wiener
        with pytest.raises(AlgebraError, match="coefficient vector has length 3, expected 2"):
            entry(ia.build_representation(ia.wiener()), [1, 2, 3])

    def test_a_column_is_not_a_vector(self):
        with pytest.raises(AlgebraError, match=r"has shape \(2, 1\), expected 2"):
            ia.triangular(ia.build_representation(ia.wiener()), np.ones((2, 1)))

    def test_an_equal_copy_is_another_object(self):
        w = ia.wiener()
        with pytest.raises(AlgebraError):
            w.basis_element("dw") + dataclasses.replace(w).basis_element("dw")

    def test_every_decision_follows_the_objects_tol(self):
        for t, loose in ((1e-9, False), (1e-3, True)):
            w = dataclasses.replace(ia.wiener(), tol=t)
            small = 5e-4 * w.basis_element("dw")
            assert small.is_zero() is loose
            assert (w.death_element() + small).allclose(w.death_element()) is loose
            z = dataclasses.replace(ia.zero_intensity_poisson(), tol=t)
            assert ia.faithfulness_ideal(z).contains(np.array([5e-4, 1.0])) is loose
            assert ia.verify_bstar(ia.build_representation(w), count=3).tol == t
