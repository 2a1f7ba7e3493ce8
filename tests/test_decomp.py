import numpy as np
import pytest

import itoalg as ia
from itoalg.core import rel_residual
from itoalg.decomp import decompose, support_projector
from itoalg.gns import build_representation

from conftest import make_catalog, ref_brownian_space, same_row_span
from test_pipeline import _random_rotation


def span_matrix(elements):
    return np.array([e.coeffs for e in elements])


class TestSupportProjector:
    def test_wiener_full(self):
        rep = build_representation(ia.wiener())
        P = support_projector(rep)
        assert rel_residual(P, [[1.0]]) <= 1e-12

    def test_hp_zero(self):
        rep = build_representation(ia.hp(1))
        P = support_projector(rep)
        assert rel_residual(P, [[0.0]]) <= 1e-12

    def test_sum_projects_onto_wiener_direction(self):
        s = ia.orthogonal_sum(ia.wiener(), ia.poisson())
        rep = build_representation(s)
        P = support_projector(rep)
        kw = rep.k_of(s.basis_element("dw"))
        km = rep.k_of(s.basis_element("dm"))
        assert rel_residual(P @ kw, kw) <= 1e-12
        assert rel_residual(P @ km, np.zeros(2)) <= 1e-12
        assert rel_residual(P @ P, P) <= 1e-12
        assert rel_residual(P, P.conj().T) <= 1e-12


class TestDecomposeExamples:
    def test_wiener_plus_poisson(self):
        s = ia.orthogonal_sum(ia.wiener(), ia.poisson())
        dec = decompose(s)
        dt = [1, 0, 0]
        assert same_row_span(span_matrix(dec.brownian), [dt, [0, 1, 0]], 1e-9)
        assert same_row_span(span_matrix(dec.levy), [dt, [0, 0, 1]], 1e-9)
        assert dec.report.passed

    def test_hp_is_purely_levy(self):
        dec = decompose(ia.hp(1))
        assert dec.is_purely_levy()
        assert len(dec.levy) == ia.hp(1).dim  # death + all zero-mean directions
        assert dec.report.passed

    def test_thermal_brownian_is_purely_brownian(self):
        dec = decompose(ia.thermal_brownian(2.0, 0.5))
        assert dec.is_purely_brownian()
        assert len(dec.brownian) == 3
        assert dec.report.passed

    def test_thermal_matrix_is_purely_levy(self):
        dec = decompose(ia.thermal_matrix(2, (2 / 3, 1 / 3)))
        assert dec.is_purely_levy()
        assert dec.report.passed

    def test_periodic_wiener_is_purely_brownian(self):
        dec = decompose(ia.periodic_wiener(2, (2.0, 3.0)))
        assert dec.is_purely_brownian()
        assert dec.report.passed

    def test_group_levy_is_purely_levy(self):
        dec = decompose(ia.group_levy(ia.cyclic_group(2)))
        assert dec.is_purely_levy()
        assert dec.report.passed

    def test_vacuum_brownian_subalgebra_of_hp(self):
        h = ia.hp(1)
        sub = ia.subalgebra(
            h,
            [h.basis_element("dt"), h.basis_element("e-"), h.basis_element("e+")],
            labels=("dt", "e-", "e+"),
        )
        dec = decompose(sub)
        assert dec.is_purely_brownian()
        assert len(dec.brownian) == 3


class TestDecomposeInvariants:
    @pytest.mark.parametrize(
        "name",
        [
            "wiener",
            "poisson",
            "hp1",
            "hp2",
            "thermal_brownian",
            "periodic_wiener",
            "group_levy_s3",
            "thermal_matrix",
            "wiener+poisson",
        ],
    )
    def test_reports_pass(self, faithful_catalog, name):
        dec = decompose(faithful_catalog[name])
        assert dec.report.passed, (name, dec.report.residuals)

    def test_orthogonality_both_pairings(self):
        s = ia.orthogonal_sum(ia.wiener(), ia.poisson())
        dec = decompose(s)
        for y in dec.brownian_zero_mean:
            for z in dec.levy_zero_mean:
                assert abs(ia.state_of(y.star() * z)) <= 1e-9
                assert abs(ia.state_of(z * y.star())) <= 1e-9

    def test_reconstruction(self):
        s = ia.orthogonal_sum(ia.wiener(), ia.poisson())
        dec = decompose(s)
        Y = span_matrix(dec.brownian_zero_mean) if dec.brownian_zero_mean else np.zeros((0, s.dim))
        Z = span_matrix(dec.levy_zero_mean) if dec.levy_zero_mean else np.zeros((0, s.dim))
        span_all = np.vstack([[s.death], Y, Z])
        for i in range(s.dim):
            e = np.zeros(s.dim)
            e[i] = 1.0
            sol, *_ = np.linalg.lstsq(span_all.T, e.astype(complex), rcond=None)
            assert rel_residual(sol @ span_all, e) <= 1e-9

    def test_cross_products_vanish(self, faithful_catalog):
        for name, alg in faithful_catalog.items():
            dec = decompose(alg)
            for y in dec.brownian_zero_mean:
                for z in dec.levy_zero_mean:
                    assert (y * z).is_zero(), name
                    assert (z * y).is_zero(), name

    def test_idempotence_on_pure_algebras(self):
        # a purely Brownian algebra decomposes as (itself, death line) and
        # a purely Levy algebra as (death line, itself)
        tb = ia.thermal_brownian(1.0, 0.25)
        dec = decompose(tb)
        assert dec.is_purely_brownian() and len(dec.brownian) == tb.dim
        tm = ia.thermal_matrix(2, (0.5, 0.5))
        dec2 = decompose(tm)
        assert dec2.is_purely_levy() and len(dec2.levy) == tm.dim

    def test_idempotence_on_extracted_components(self):
        # restricting a mixed algebra to either component and decomposing
        # again returns that component whole
        s = ia.orthogonal_sum(ia.wiener(), ia.poisson())
        dec = decompose(s)
        brown = ia.subalgebra(s, dec.brownian, labels=("dt", "dw"))
        dec_b = decompose(brown)
        assert dec_b.is_purely_brownian() and len(dec_b.brownian) == brown.dim
        levy = ia.subalgebra(s, dec.levy, labels=("dt", "dm"))
        dec_c = decompose(levy)
        assert dec_c.is_purely_levy() and len(dec_c.levy) == levy.dim

    def test_pi_kills_products(self):
        s = ia.orthogonal_sum(ia.wiener(), ia.poisson())
        dec = decompose(s)
        rep = dec.rep
        P = dec.projector
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = ia.core.random_element(s, rng)
            b = ia.core.random_element(s, rng)
            x = a - ia.state_of(a) * s.death_element()
            xp = b - ia.state_of(b) * s.death_element()
            kprod = rep.k_of(x * xp)
            assert rel_residual(P @ kprod, np.zeros_like(kprod)) <= 1e-9

    def test_brownian_products_land_in_death_line(self, faithful_catalog):
        for name, alg in faithful_catalog.items():
            dec = decompose(alg)
            d = alg.death_element()
            for y in dec.brownian_zero_mean:
                for y2 in dec.brownian_zero_mean:
                    w = y * y2
                    assert w.allclose(ia.state_of(w) * d), name

    def test_mixed_basis_recovery(self):
        # change basis to u = dw + dm, v = dw - dm: the component directions
        # are no longer basis-aligned, so the preimage solve has to find them
        s = ia.orthogonal_sum(ia.wiener(), ia.poisson())
        u = s.element_from({"dw": 1.0, "dm": 1.0})
        v = s.element_from({"dw": 1.0, "dm": -1.0})
        mixed = ia.subalgebra(s, [s.death_element(), u, v], labels=("dt", "u", "v"))
        dec = decompose(mixed)
        assert dec.report.passed
        # in the (dt, u, v) coordinates dw = (u + v)/2 and dm = (u - v)/2
        assert same_row_span(span_matrix(dec.brownian), [[1, 0, 0], [0, 0.5, 0.5]], 1e-9)
        assert same_row_span(span_matrix(dec.levy), [[1, 0, 0], [0, 0.5, -0.5]], 1e-9)

    def test_non_faithful_rejected(self):
        with pytest.raises(ia.NonFaithfulError):
            decompose(ia.zero_intensity_poisson())

    def test_json_export_shape(self):
        dec = decompose(ia.wiener())
        d = dec.to_dict()
        assert set(d) >= {"labels", "hdim", "projector", "brownian", "levy", "report"}
        assert d["report"]["passed"] is True


TARGET_CASES = {
    "wiener+poisson": lambda: ia.orthogonal_sum(ia.wiener(), ia.poisson()),
    "thermal_brownian+poisson": lambda: ia.orthogonal_sum(ia.thermal_brownian(2.0, 0.5), ia.poisson()),
    "periodic_wiener3": lambda: ia.periodic_wiener(3, (0.5, 1.0, 2.0)),
    "thermal_matrix2": lambda: ia.thermal_matrix(2, (2.0 / 3.0, 1.0 / 3.0)),
    "hp2": lambda: ia.hp(2),
    "rot_wiener+poisson": lambda: _random_rotation(
        ia.orthogonal_sum(ia.wiener(), ia.poisson()), np.random.default_rng(6))[0],
    "rot_thermal_brownian+poisson": lambda: _random_rotation(
        ia.orthogonal_sum(ia.thermal_brownian(2.0, 0.5), ia.poisson()), np.random.default_rng(7))[0],
}


@pytest.mark.parametrize("name", sorted(TARGET_CASES))
def test_preimage_system_is_the_quadruple_system_reordered(monkeypatch, name):
    """The block-wise preimage system of ``decompose`` against the (l, k, kdag, vec i) one.

    That system stacked the quadruple map a -> (l, k, kdag, vec i) and the
    targets (0, P k(x), kdag(x) P, 0) of the zero-mean parts x; the new one
    flattens the blocks [[kdag, l], [i, k]] column by column.  Both must hold
    the same numbers, reordered.
    """
    alg = TARGET_CASES[name]()
    rep = build_representation(alg)   # built once per algebra, before the solve is recorded
    solved = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda a, b, **kw: solved.append((a, b)) or lstsq(a, b, **kw))
    decompose(alg)
    (B, targets_t), = solved

    n, d = alg.dim, rep.hdim
    P = support_projector(rep)
    X = np.eye(n, dtype=complex) - np.outer(alg.state, alg.death)
    quadruple_map = np.vstack([alg.state[None], rep.kmat, rep.kdmat.T, rep.imats.reshape(n, d * d).T])
    quadruple_targets = np.hstack(
        [np.zeros((n, 1)), X @ rep.kmat.T @ P.T, X @ rep.kdmat @ P, np.zeros((n, d * d))]
    )

    def position(r, c):
        """Index in (l, k, kdag, vec i) of row r, column c of the block [[kdag, l], [i, k]]."""
        if r == 0:
            return 0 if c == d else 1 + d + c
        return r if c == d else 1 + 2 * d + (r - 1) * d + c

    order = [position(r, c) for c in range(d + 1) for r in range(d + 1)]
    assert sorted(order) == list(range((d + 1) ** 2))
    np.testing.assert_array_equal(B, quadruple_map[order])
    np.testing.assert_array_equal(targets_t.T, quadruple_targets[:, order])


# The Brownian zero-mean dimension of each faithful catalog table, and of two larger ones
BROWNIAN_DIMS = {"newton": 0, "wiener": 1, "poisson": 0, "hp1": 0, "hp2": 0, "hp3": 0,
                 "thermal_brownian": 2, "periodic_wiener": 4, "group_levy_s3": 0,
                 "thermal_matrix": 0, "wiener+poisson": 1}
BROWNIAN_CASES = {
    **{name: (alg, BROWNIAN_DIMS[name]) for name, alg in make_catalog().items() if name in BROWNIAN_DIMS},
    "periodic_wiener8": (ia.periodic_wiener(8, [0.5 + k / 8 for k in range(8)]), 16),
    "thermal_matrix3": (ia.thermal_matrix(3, (0.5, 0.3, 0.2)), 0),
}


@pytest.mark.parametrize("rotated", [False, True], ids=["builtin", "rotated"])
@pytest.mark.parametrize("name", sorted(BROWNIAN_CASES))
def test_brownian_part_is_the_table_only_space(name, rotated):
    """decompose's Brownian zero-mean span is B0, read off the table alone (``ref_brownian_space``)."""
    alg, dim = BROWNIAN_CASES[name]
    if rotated:
        alg = _random_rotation(alg, np.random.default_rng(4))[0]
    B0 = ref_brownian_space(alg)
    assert len(B0) == dim
    Y = span_matrix(decompose(alg).brownian_zero_mean).reshape(-1, alg.dim)
    assert same_row_span(Y, B0)


def _rescaled_rotation(s: float) -> ia.ItoAlgebra:
    """wiener + poisson on a random basis (seed 1), its zero-mean elements scaled by s."""
    rot = _random_rotation(ia.orthogonal_sum(ia.wiener(), ia.poisson()), np.random.default_rng(1))[0]
    return ia.subalgebra(rot, np.diag([1.0, s, s]), labels=rot.labels)


def test_rescaled_rotation_passes_at_1e3():
    assert decompose(_rescaled_rotation(1e3)).report.passed


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 2: cross_products and orthogonality compare with rel_residuals(., 0), whose "
    "floor of 1 makes them absolute, so the rounding of entries of size 1e4 fails them"))
def test_rescaled_rotation_passes_at_1e4():
    report = decompose(_rescaled_rotation(1e4)).report
    assert report.passed, report.failures()
