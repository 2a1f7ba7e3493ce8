import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import itoalg as ia
from itoalg import focksim
from itoalg.core import AlgebraError, Element, multiply, rel_residual, row_products
from itoalg.decomp import decompose
from itoalg.focksim import (
    CHUNK_BUDGET,
    SimulationError,
    UnsupportedModelError,
    _corner_products,
    _partition_sum,
    classical_paths,
    fit_loglog_slope,
    ito_product_check,
    slot_increment,
    vacuum_moments,
)
from itoalg.gns import FundamentalRep, build_representation, triangular

from conftest import ref_classical_paths, ref_ito_product_check
from test_pipeline import _random_rotation


def dense_moment(rep, word, t, n_slots):
    """Oracle: <vac| X(w_1) ... X(w_m) |vac> on the full Kronecker product of slot spaces."""
    d = rep.hdim
    psi = np.zeros((1 + d) ** n_slots, dtype=complex)
    psi[0] = 1.0
    for x in reversed(word):
        M = slot_increment(rep, x, t / n_slots)
        lam = 0
        for j in range(n_slots):
            op = np.eye(1)
            for k in range(n_slots):
                op = np.kron(op, M if k == j else np.eye(1 + d))
            lam = lam + op
        psi = lam @ psi
    return complex(psi[0])


def dense_moments(rep, a, t, n_slots):
    """Oracle mean, second and fourth moment: the words (a), (a*, a) and (a*, a, a*, a)."""
    s = a.star()
    return tuple(dense_moment(rep, w, t, n_slots) for w in ((a,), (s, a), (s, a, s, a)))


def set_partitions(items):
    """Every set partition of ``items``: the first item alone or joined to a block of the rest."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]


def table_moment(alg, word, t):
    """Oracle: sum over set partitions of t^|pi| prod_B l(w_b1 ... w_bk), from the table alone.

    Block products come from ``core.row_products`` and the state; no
    representation is built.  Also returns the sum of the terms' moduli.
    """
    total, size = 0j, 0.0
    for part in set_partitions(list(range(len(word)))):
        term = t ** len(part)
        for block in part:
            prod = word[block[0]]
            for b in block[1:]:
                prod = row_products(alg, prod, word[b])[0]
            term *= complex(prod @ alg.state)
        total, size = total + term, size + abs(term)
    return total, size


def fock_route(rep, word, t, n_slots):
    """The partition sum over slot increments with weight N!/(N-k)!, as vacuum_moments uses it."""
    mats = [slot_increment(rep, x, t / n_slots)[np.newaxis] for x in word]
    value = _corner_products(mats, (0, 0), n_slots)[0]
    weights = [math.perm(n_slots, k) / n_slots**k for k in range(len(word) + 1)]
    return _partition_sum(value, weights, tuple(range(len(word))))


def target_route(rep, word, t):
    """The partition sum over triangular matrices with weight t^k, as vacuum_moments uses it."""
    mats = [triangular(rep, x)[np.newaxis] for x in word]
    value = _corner_products(mats, (0, -1), t)[0]
    return _partition_sum(value, [1] * (len(word) + 1), tuple(range(len(word))))


class TestSlotIncrement:
    def test_death_slot_is_corner_only(self):
        p = ia.poisson()
        rep = build_representation(p)
        si = slot_increment(rep, p.death_element(), 0.25)
        expect = np.zeros((2, 2))
        expect[0, 0] = 0.25
        assert rel_residual(si, expect) <= 1e-12
        assert si[0, 0] == pytest.approx(0.25)

    def test_wiener_scaling(self):
        w = ia.wiener()
        rep = build_representation(w)
        si = slot_increment(rep, w.basis_element("dw"), 0.01)
        assert abs(si[0, 1]) == pytest.approx(0.1)
        assert abs(si[1, 0]) == pytest.approx(0.1)
        assert si[0, 0] == 0 and si[1, 1] == 0

    def test_infinite_dt_is_refused(self):
        w = ia.wiener()
        with pytest.raises(AlgebraError, match="dt=inf is not finite"):
            slot_increment(build_representation(w), w.basis_element("dw"), float("inf"))

    def test_adjoint_covariance(self):
        h = ia.hp(1)
        rep = build_representation(h)
        si_minus = slot_increment(rep, h.basis_element("e-"), 0.5)
        si_plus = slot_increment(rep, h.basis_element("e+"), 0.5)
        assert rel_residual(si_minus.conj().T, si_plus) <= 1e-12

    def test_adjoint_covariance_random(self, faithful_catalog):
        rng = np.random.default_rng(4)
        for alg in faithful_catalog.values():
            rep = build_representation(alg)
            a = ia.core.random_element(alg, rng)
            lhs = slot_increment(rep, a, 0.1).conj().T
            rhs = slot_increment(rep, a.star(), 0.1)
            assert rel_residual(lhs, rhs) <= 1e-10

    @pytest.mark.parametrize("rotated", [False, True], ids=["catalog", "rotated"])
    def test_blocks_come_from_the_accessors(self, faithful_catalog, rotated):
        rng = np.random.default_rng(12)
        dt = 0.3
        for name, alg in faithful_catalog.items():
            if rotated:
                alg = _random_rotation(alg, rng)[0]
            rep = build_representation(alg)
            a = ia.core.random_element(alg, rng)
            root = np.sqrt(dt)
            expect = np.block([
                [np.array([[rep.l_of(a) * dt]]), rep.kdag_of(a)[None, :] * root],
                [rep.k_of(a)[:, None] * root, rep.i_of(a)],
            ])
            np.testing.assert_array_equal(slot_increment(rep, a, dt), expect, err_msg=name)

    def test_linearity(self):
        w = ia.wiener()
        rep = build_representation(w)
        a, b = w.basis_element("dt"), w.basis_element("dw")
        lhs = slot_increment(rep, a + 2 * b, 0.3)
        rhs = slot_increment(rep, a, 0.3) + 2 * slot_increment(rep, b, 0.3)
        assert rel_residual(lhs, rhs) <= 1e-12


class TestItoProductCheck:
    DTS = [2.0**-k for k in range(4, 11)]

    def test_wiener_corner_exact(self):
        w = ia.wiener()
        rep = build_representation(w)
        dw = w.basis_element("dw")
        rpt = ito_product_check(rep, dw, dw, self.DTS)
        for est in rpt.estimates:
            # l(dw) = 0 kills the corner and both field-block mismatches;
            # only the exchange block records its dt-order term
            if est.name.startswith("exchange"):
                assert est.value == pytest.approx(est.target, abs=1e-14)
            else:
                assert est.value == pytest.approx(0.0, abs=1e-14)
        assert "corner" not in rpt.slopes
        assert rpt.slopes["exchange"] == pytest.approx(1.0, abs=1e-6)

    def test_hp_exchange_idempotent(self):
        h = ia.hp(1)
        rep = build_representation(h)
        e = h.basis_element("e")
        rpt = ito_product_check(rep, e, e, self.DTS)
        assert all(est.value == pytest.approx(0.0, abs=1e-14) for est in rpt.estimates)
        assert rpt.slopes == {}  # every block matches exactly

    def test_poisson_slopes_for_shifted_element(self):
        p = ia.poisson()
        rep = build_representation(p)
        a = p.basis_element("dt") + p.basis_element("dm")
        rpt = ito_product_check(rep, a, a, self.DTS)
        assert 1.8 <= rpt.slopes["corner"] <= 2.2
        assert rpt.slopes["creation"] == pytest.approx(1.5, abs=1e-6)
        assert rpt.slopes["annihilation"] == pytest.approx(1.5, abs=1e-6)
        assert rpt.slopes["exchange"] == pytest.approx(1.0, abs=1e-6)

    def test_poisson_zero_mean_has_zero_corner(self):
        p = ia.poisson()
        rep = build_representation(p)
        dm = p.basis_element("dm")
        rpt = ito_product_check(rep, dm, dm, self.DTS)
        assert rpt.estimates[0].value == pytest.approx(0.0, abs=1e-14)

    def test_requires_decreasing_dts(self):
        p = ia.poisson()
        rep = build_representation(p)
        dm = p.basis_element("dm")
        with pytest.raises(ia.AlgebraError):
            ito_product_check(rep, dm, dm, [0.1, 0.2])

    def test_nan_representation_raises(self):
        w = ia.wiener()
        rep = build_representation(w)
        nan = dataclasses.replace(rep, mats=np.full_like(rep.mats, np.nan))
        dw = w.basis_element("dw")
        with pytest.raises(SimulationError):
            ito_product_check(nan, dw, dw, self.DTS)

    @pytest.mark.parametrize("dts", [[math.inf, 1.0], [math.nan], [1e300, 1.0], [1e200, 1.0]])
    @pytest.mark.parametrize("name", ["wiener", "poisson"])
    def test_dt_out_of_range_is_an_algebra_error(self, dts, name):
        # dw dw on the Wiener table (l = 0, a 0 * inf closed form) and dt + dm on
        # the Poisson table (l = 1, an overflowing one) at a dt too large or not finite
        alg = ia.wiener() if name == "wiener" else ia.poisson()
        rep = build_representation(alg)
        a = alg.basis_element(alg.labels[1]) + (name == "poisson") * alg.death_element()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(AlgebraError, match=re.escape(f"dt={dts[0]}")) as err:
                ito_product_check(rep, a, a.star(), dts)
        assert not isinstance(err.value, SimulationError)

    @staticmethod
    def _pairs(alg, rng):
        """Each basis element with its adjoint, two random pairs, a random element with its adjoint."""
        basis = [alg.basis_element(i) for i in range(alg.dim)]
        rand = [ia.core.random_element(alg, rng) for _ in range(3)]
        pairs = [(rand[0], rand[1]), (rand[1], rand[0]), (rand[2], rand[2].star())]
        return [(x, x.star()) for x in basis] + pairs

    @pytest.mark.parametrize("rotated", [False, True], ids=["catalog", "rotated"])
    def test_matches_the_per_dt_reference(self, faithful_catalog, rotated):
        """The stacked kernel against the per-dt loop: the faithful catalog, and 5 of it rotated."""
        rng = np.random.default_rng(30)
        tables = list(faithful_catalog.items())
        if rotated:
            picks = ("hp2", "thermal_brownian", "periodic_wiener", "group_levy_s3", "wiener+poisson")
            tables = [(name, _random_rotation(faithful_catalog[name], rng)[0]) for name in picks]
        for name, alg in tables:
            rep = build_representation(alg)
            for a, b in self._pairs(alg, rng):
                got = ito_product_check(rep, a, b, self.DTS)
                ref = ref_ito_product_check(rep, a, b, self.DTS)
                assert [e.name for e in got.estimates] == [e.name for e in ref.estimates], name
                for field in ("value", "target"):
                    lhs = [getattr(e, field) for e in got.estimates]
                    rhs = [getattr(e, field) for e in ref.estimates]
                    assert rel_residual(lhs, rhs) <= 1e-12, (name, field)
                assert got.slopes.keys() == ref.slopes.keys(), name
                for block, slope in ref.slopes.items():
                    assert got.slopes[block] == pytest.approx(slope, abs=1e-9), (name, block)
                assert got.inputs == ref.inputs

    @pytest.mark.parametrize("entry, block", [
        ((0, -1), "corner"), ((1, -1), "creation"), ((0, 1), "annihilation"),
    ])
    def test_one_failing_block_raises_the_reference_message(self, entry, block):
        # dw dw = dt on the Wiener table, with one entry of triangular(dt) moved by eps:
        # the block's mismatch deviates by eps dt (corner) or eps sqrt(dt) (fields),
        # which passes the tolerance at every dt but the first
        w = ia.wiener()
        rep = build_representation(w)
        dt0 = self.DTS[0]
        eps = 1.2 * w.tol / (dt0 if block == "corner" else math.sqrt(dt0))
        mats = rep.mats.copy()
        mats[0][entry] += eps
        bent = dataclasses.replace(rep, mats=mats)
        dw = w.basis_element("dw")
        with pytest.raises(SimulationError) as ref:
            ref_ito_product_check(bent, dw, dw, self.DTS)
        assert str(ref.value) == f"{block} mismatch deviates from its closed form at dt={dt0}"
        with pytest.raises(SimulationError) as got:
            ito_product_check(bent, dw, dw, self.DTS)
        assert str(got.value) == str(ref.value)
        # the same eps is inside the tolerance from the second dt on
        ito_product_check(bent, dw, dw, self.DTS[1:])
        ref_ito_product_check(bent, dw, dw, self.DTS[1:])

    def test_the_first_failing_dt_comes_before_an_earlier_block(self):
        # a = c dt + dm on a Poisson table whose dm.dm carries an extra eps dm.  The
        # tolerance scale max(1, c dt) shrinks with dt, so the exchange block (off by
        # eps) fails from dt = 2^-5 on and the field blocks (off by eps sqrt(dt)) only
        # at 2^-9 and 2^-10: dt order reports the exchange block, block order would not.
        # The intact table's matrices are attached to the bent table, whose elements they take
        p = ia.poisson()
        c, dm = 1024.0, p.labels.index("dm")
        mult = p.mult.copy()
        mult[dm, dm, dm] += 1.5 * p.tol * math.sqrt(c)
        bent = dataclasses.replace(p, mult=mult)
        intact = build_representation(p)
        rep = FundamentalRep(bent, intact.mats, intact.eigenvalues)
        a = c * bent.death_element() + bent.basis_element("dm")
        for dts, block, dt in ((self.DTS, "exchange", 2**-5), (self.DTS[-2:], "creation", 2**-9)):
            message = f"{block} mismatch deviates from its closed form at dt={dt}"
            for check in (ref_ito_product_check, ito_product_check):
                with pytest.raises(SimulationError, match=re.escape(message) + "$"):
                    check(rep, a, a, dts)

    def test_perturbed_representations_fail_like_the_reference(self):
        # one block of every non-death triangular matrix moved by about tol, and
        # a = c death + random with |l(a)| up to 1e3, so the tolerance scale
        # max(1, |Ma|, |Mb|) shrinks with dt: checks pass or fail at various (dt, block)
        rng = np.random.default_rng(31)
        blocks = [(0, -1), (slice(1, -1), -1), (0, slice(1, -1)), (slice(1, -1), slice(1, -1))]
        outcomes = set()
        for alg in (ia.poisson(), ia.hp(1), ia.thermal_brownian(2.0, 0.5)):
            rep = build_representation(alg)
            for _ in range(60):
                mask = np.zeros(rep.mats.shape[1:], dtype=bool)
                mask[blocks[rng.integers(4)]] = True
                noise = (rng.standard_normal(rep.mats.shape)
                         + 1j * rng.standard_normal(rep.mats.shape)) * mask
                noise[0] = 0.0
                size = alg.tol * 10 ** rng.uniform(-1, 1)
                bent = dataclasses.replace(rep, mats=rep.mats + size * noise)
                a = 10 ** rng.uniform(0, 3) * alg.death_element() + ia.core.random_element(alg, rng)
                messages = []
                for check in (ref_ito_product_check, ito_product_check):
                    try:
                        check(bent, a, a.star(), self.DTS)
                        messages.append(None)
                    except SimulationError as exc:
                        messages.append(str(exc))
                assert messages[0] == messages[1]
                outcomes.add(messages[0])
        assert None in outcomes
        assert "corner of the product is not l(a.b) dt + l(a)l(b) dt^2" in outcomes
        assert any(m is not None and not m.endswith(f"dt={self.DTS[0]}") for m in outcomes)


class TestFitLoglogSlope:
    def test_power_laws_match_polyfit(self):
        xs = np.geomspace(0.1, 1e-4, 9)
        for power in (1.0, 1.5, 2.0):
            ys = 3.0 * xs**power * (1 + 1e-3 * np.sin(np.arange(9)))
            ys[[2, 6]] = 1e-15  # below the floor: left out of the fit
            keep = ys > 1e-13
            want = np.polyfit(np.log(xs[keep]), np.log(ys[keep]), 1)[0]
            assert fit_loglog_slope(xs, ys) == pytest.approx(want, abs=1e-12)

    def test_no_spread_in_x_gives_none(self, capfd):
        assert fit_loglog_slope([1.0, 1.0], [1.0, 2.0]) is None
        # the mean of three equal log(0.03) rounds off it: the spread is judged on the xs
        assert fit_loglog_slope([0.03] * 3, [1.0, 2.0, 3.0]) is None
        assert fit_loglog_slope([0.03] * 3, [[1.0, 2.0, 3.0], [3.0, 2.0, 1.0]]) == [None, None]
        assert fit_loglog_slope([0.1, 0.2, 0.1], [1.0, 1e-20, 3.0]) is None  # kept xs equal
        assert fit_loglog_slope([0.1, 0.2], [1.0, 0.0]) is None  # one point kept
        assert capfd.readouterr().err == ""

    def test_a_stack_gives_the_rows_slopes(self):
        rng = np.random.default_rng(5)
        xs = np.geomspace(1.0, 1e-3, 6)
        ys = np.exp(rng.standard_normal((5, 6))) * xs ** rng.uniform(0.5, 2.5, (5, 1))
        ys[1, 1:] = 0.0  # one point kept
        ys[3, ::2] = 1e-14
        rows = [fit_loglog_slope(xs, y) for y in ys]
        assert rows[1] is None and all(r is not None for r in rows[:1] + rows[2:])
        assert fit_loglog_slope(xs, ys) == rows


class TestVacuumMoments:
    def test_infinite_t_is_refused(self):
        w = ia.wiener()
        with pytest.raises(AlgebraError, match="t=inf is not finite"):
            vacuum_moments(build_representation(w), w.basis_element("dw"), float("inf"), 3)

    def test_death_deterministic(self):
        w = ia.wiener()
        rep = build_representation(w)
        for N in (1, 2, 7, 64):
            rpt = vacuum_moments(rep, w.death_element(), 2.0, N)
            assert rpt.estimate("mean").value == pytest.approx(2.0, abs=1e-12)
            assert rpt.estimate("second_moment").value == pytest.approx(4.0, abs=1e-12)

    def test_wiener_second_moment_exact_every_n(self):
        w = ia.wiener()
        rep = build_representation(w)
        for N in (2, 4, 8, 16, 32, 64):
            rpt = vacuum_moments(rep, w.basis_element("dw"), 1.0, N)
            assert rpt.estimate("second_moment").value == pytest.approx(1.0, abs=1e-13)

    def test_poisson_second_moment_exact_every_n(self):
        # the slot model reproduces |l(a) t|^2 + l(a*.a) t exactly; only the
        # fourth moment carries discretization error
        p = ia.poisson()
        rep = build_representation(p)
        for N in (2, 8, 64):
            rpt = vacuum_moments(rep, p.basis_element("dm"), 1.0, N)
            assert rpt.estimate("second_moment").value == pytest.approx(1.0, abs=1e-13)
            assert abs(rpt.estimate("second_moment_deviation").value) <= 1e-13

    def test_mean_identity_exact_all_builtins(self, faithful_catalog):
        for alg in faithful_catalog.values():
            rep = build_representation(alg)
            for i in range(alg.dim):
                a = alg.basis_element(i)
                target = ia.state_of(a) * 1.3
                for N in (2, 5, 64):
                    rpt = vacuum_moments(rep, a, 1.3, N)
                    assert abs(rpt.estimate("mean").value - target) <= 1e-12

    @pytest.mark.parametrize("n_slots", [2, 3, 4])
    def test_matches_dense_oracle_poisson(self, n_slots):
        p = ia.poisson()
        rep = build_representation(p)
        a = p.element_from({"dt": 0.5, "dm": 1.0})
        mean, second, fourth = dense_moments(rep, a, 1.0, n_slots)
        rpt = vacuum_moments(rep, a, 1.0, n_slots)
        assert rpt.estimate("mean").value == pytest.approx(mean, abs=1e-12)
        assert rpt.estimate("second_moment").value == pytest.approx(second, abs=1e-12)
        assert rpt.estimate("fourth_moment").value == pytest.approx(fourth, abs=1e-12)

    @pytest.mark.parametrize("n_slots", [2, 3])
    def test_matches_dense_oracle_hp(self, n_slots):
        h = ia.hp(1)
        rep = build_representation(h)
        rng = np.random.default_rng(8)
        a = ia.core.random_element(h, rng)
        mean, second, fourth = dense_moments(rep, a, 0.7, n_slots)
        rpt = vacuum_moments(rep, a, 0.7, n_slots)
        assert rpt.estimate("mean").value == pytest.approx(mean, abs=1e-10)
        assert rpt.estimate("second_moment").value == pytest.approx(second, abs=1e-10)
        assert rpt.estimate("fourth_moment").value == pytest.approx(fourth, abs=1e-10)

    def test_fourth_moment_poisson_closed_form(self):
        # compensated Poisson at t=1 has E[m^4] = 3t^2 + t = 4; the N-slot
        # model gives 4 - 2/N (classical moment identity as the oracle)
        p = ia.poisson()
        rep = build_representation(p)
        for N in (2, 4, 8, 32):
            rpt = vacuum_moments(rep, p.basis_element("dm"), 1.0, N)
            assert rpt.estimate("fourth_moment").value == pytest.approx(4.0 - 2.0 / N, abs=1e-12)
            assert rpt.estimate("fourth_moment").target == pytest.approx(4.0, abs=1e-12)

    def test_fourth_moment_wiener_closed_form(self):
        # E[w^4] = 3 t^2 at t = 1
        w = ia.wiener()
        rep = build_representation(w)
        for N in (2, 8, 32):
            rpt = vacuum_moments(rep, w.basis_element("dw"), 1.0, N)
            assert rpt.estimate("fourth_moment").value == pytest.approx(3.0 - 2.0 / N, abs=1e-12)
            assert rpt.estimate("fourth_moment").target == pytest.approx(3.0, abs=1e-12)

    def test_fourth_moment_converges_at_first_order(self):
        p = ia.poisson()
        rep = build_representation(p)
        ns = np.array([4, 8, 16, 32, 64])
        devs = []
        for N in ns:
            rpt = vacuum_moments(rep, p.basis_element("dm"), 1.0, int(N))
            devs.append(abs(rpt.estimate("fourth_moment_deviation").value))
        slope = fit_loglog_slope(1.0 / ns, devs)
        assert 0.9 <= slope <= 1.1

    def test_million_slots_reach_large_n_limit(self):
        # the partition sum weights N!/(N-k)! cost the same for every N, so
        # N = 10^6 costs what N = 2 does; the fourth moment sits O(1/N) from
        # its large-N limit
        h = ia.hp(3)
        rep = build_representation(h)
        a = ia.core.random_element(h, np.random.default_rng(3))
        rpt = vacuum_moments(rep, a, 1.0, 10**6)
        small = vacuum_moments(rep, a, 1.0, 7)
        fourth = rpt.estimate("fourth_moment")
        assert abs(fourth.value - fourth.target) <= 1e-5 * abs(fourth.target)
        assert abs(rpt.estimate("mean").value - ia.state_of(a)) <= 1e-9 * abs(ia.state_of(a))
        second = rpt.estimate("second_moment").value
        assert second == pytest.approx(small.estimate("second_moment").value, rel=1e-9)
        # a numpy slot count gives the same moments: N^4 must not wrap around in int64
        same = vacuum_moments(rep, a, 1.0, np.int64(10**6))
        assert same.estimate("fourth_moment").value == fourth.value

    def test_second_moment_equals_target_every_basis_element(self, faithful_catalog):
        # |l(a) t|^2 + l(a*.a) t for every N, including l(a) != 0 (the death)
        for name, alg in faithful_catalog.items():
            rep = build_representation(alg)
            for i in range(alg.dim):
                for N in (1, 2, 7, 64):
                    rpt = vacuum_moments(rep, alg.basis_element(i), 1.3, N)
                    est = rpt.estimate("second_moment")
                    assert type(est.value) is float and type(est.target) is float
                    tol = 1e-12 * max(1.0, abs(est.target))
                    assert abs(est.value - est.target) <= tol, (name, i, N)

    def test_huge_slot_count_stays_finite(self):
        # N^2 and N^4 overflow a float at N = 1e200; the weights never form them
        p = ia.poisson()
        a = p.element_from({"dt": 1.0, "dm": 1.0})
        rpt = vacuum_moments(build_representation(p), a, 1.0, 10**200)
        assert rpt.estimate("second_moment").value == pytest.approx(2.0, rel=1e-12)
        assert rpt.estimate("fourth_moment").value == pytest.approx(15.0, rel=1e-12)


class TestPartitionIdentity:
    """Vacuum moments of any word as sums over its set partitions, against independent oracles."""

    def test_oracle_enumerates_bell_numbers(self):
        counts = [len(list(set_partitions(list(range(m))))) for m in range(7)]
        assert counts == [1, 1, 2, 5, 15, 52, 203]

    @pytest.mark.parametrize("n_slots", [1, 2, 3])
    def test_fock_route_matches_dense_oracle_on_words(self, faithful_catalog, n_slots):
        rng = np.random.default_rng(40 + n_slots)
        for name, alg in faithful_catalog.items():
            rep = build_representation(alg)
            for length in (1, 2, 3, 4):
                word = [ia.core.random_element(alg, rng, 0.5) for _ in range(length)]
                dense = dense_moment(rep, word, 0.9, n_slots)
                # |<vac| X(w_1) ... X(w_m) |vac>| <= prod_i N |M(w_i)|
                mats = [slot_increment(rep, x, 0.9 / n_slots) for x in word]
                tol = 1e-12 * max(1.0, math.prod(n_slots * np.linalg.norm(M, 2) for M in mats))
                assert abs(fock_route(rep, word, 0.9, n_slots) - dense) <= tol, (name, length)

    @pytest.mark.parametrize("rotated", [False, True], ids=["catalog", "rotated"])
    def test_target_route_matches_table_oracle(self, faithful_catalog, rotated):
        rng = np.random.default_rng(7)
        for name, alg in faithful_catalog.items():
            if rotated:
                alg = _random_rotation(alg, rng)[0]
            rep = build_representation(alg)
            for length in range(1, 7):
                word = [ia.core.random_element(alg, rng, 0.5) for _ in range(length)]
                table, size = table_moment(alg, [x.coeffs for x in word], 0.7)
                tol = 1e-10 * max(1.0, size)
                assert abs(target_route(rep, word, 0.7) - table) <= tol, (name, length)

    def test_cumulants_are_state_of_powers(self, faithful_catalog):
        # kappa_m = t l(a^m) = t kdag(a) i(a)^(m-2) k(a): the Levy-Khinchin exponent
        rng = np.random.default_rng(11)
        t = 0.7
        for name, alg in faithful_catalog.items():
            rep = build_representation(alg)
            x = ia.core.random_element(alg, rng, 0.5)
            a = 0.5 * (x + x.star())
            k, kdag, imat = rep.k_of(a), rep.kdag_of(a), rep.i_of(a)
            moments = [1.0] + [target_route(rep, [a] * m, t) for m in range(1, 7)]
            kappa = [0.0]
            for m in range(1, 7):
                kappa.append(moments[m] - sum(math.comb(m - 1, j - 1) * kappa[j] * moments[m - j]
                                              for j in range(1, m)))
            power = a
            for m in range(2, 7):
                power = power * a
                from_table = t * power.state()
                from_quadruple = t * complex(kdag @ np.linalg.matrix_power(imat, m - 2) @ k)
                scale = max(1.0, abs(from_table))
                assert abs(kappa[m] - from_table) <= 1e-10 * scale, (name, m)
                assert abs(from_quadruple - from_table) <= 1e-10 * scale, (name, m)


WPP = ia.orthogonal_sum(ia.orthogonal_sum(ia.wiener(), ia.poisson()), ia.poisson())
# two Brownian and three Poisson components, the shape of the benchmark's wwmmm
WWPPP = ia.orthogonal_sum(ia.orthogonal_sum(ia.wiener(), ia.wiener()),
                          ia.orthogonal_sum(ia.orthogonal_sum(ia.poisson(), ia.poisson()),
                                            ia.poisson()))
# jumps of 0.01 at rate 10^4: 500 jumps per cell at dt = 0.05, drawn as counts per cell
HIGH_RATE = ia.parse("basis dt dm\ndeath dt\nstate dt = 1\nmul dm dm = 0.01 dm + 1 dt\n").algebra
# jumps of 1e-4 at rate 1e8: 1e7 jumps per cell at dt = 0.1
HUGE_RATE = ia.parse("basis dt dm\ndeath dt\nstate dt = 1\nmul dm dm = 1e-4 dm + 1 dt\n").algebra
# jumps of 0.5 at rate 18: 0.9 events per cell at dt = 0.05, so a few paths share cells
CROWDED = ia.parse("basis dt dm\ndeath dt\nstate dt = 1\nmul dm dm = 0.5 dm + 4.5 dt\n").algebra
# two Brownian components with covariance [[1, 0.6], [0.6, 2]]: an off-diagonal Cholesky entry
CORRELATED = ia.parse(
    "basis dt a b\ndeath dt\nstate dt = 1\n"
    "mul a a = 1 dt\nmul a b = 0.6 dt\nmul b a = 0.6 dt\nmul b b = 2 dt\n"
).algebra
# a jump of 100 at rate 1e-4 beside a Brownian part: the atom hardly ever fires
SILENT = ia.parse(
    "basis dt dw dm\ndeath dt\nstate dt = 1\nmul dw dw = 1 dt\nmul dm dm = 100 dm + 1 dt\n"
).algebra
# the tables above by the names the sampler tests give them; any other name is a builtin
TABLES = {"wpp": WPP, "wwppp": WWPPP, "crowded": CROWDED, "high_rate": HIGH_RATE,
          "huge_rate": HUGE_RATE, "correlated": CORRELATED,
          "wiener_crowded": ia.orthogonal_sum(ia.wiener(), CROWDED)}


def streams(seed: int, count: int) -> list[np.random.Generator]:
    """The sampler's streams: SFC64 generators on the children of ``SeedSequence(seed)``."""
    return [np.random.Generator(np.random.SFC64(child))
            for child in np.random.SeedSequence(seed).spawn(count)]


def state_of_power(alg, x: np.ndarray, m: int) -> float:
    """l(x^m) from the table."""
    power = Element(alg, x)
    for _ in range(m - 1):
        power = multiply(power, Element(alg, x))
    return float(complex(power.coeffs @ alg.state).real)


def jump_law_misfit(alg, rpt) -> list[float]:
    """Per Levy component, (Q - target) / se, Q = cov[x,x].stderr^2 n_samples dt.

    Q is var(dx^2) / dt, estimated from the same sums as cov[x,x]; its mean is
    l(x^4) + 2 dt l(x^2)^2, the cumulants k4 + 2 k2^2 of dx over dt: l(x^4)
    for compensated jumps, only the O(dt) term for Gaussian steps.  Its
    standard error is sqrt(l(x^8) / (n_samples dt)) to leading order in dt;
    at dt = 0.01 the misfits of 30 seeds spread about 1.5 times wider.
    """
    _, levy, _, _ = focksim._levy_khinchin(decompose(alg))
    n_samples, dt = rpt.inputs["n_paths"] * rpt.inputs["n_steps"], rpt.inputs["dt"]
    misfit = []
    for j, x in enumerate(levy):
        label = focksim._component_label(alg, x, f"z{j}")
        q = rpt.estimate(f"cov[{label},{label}]").stderr ** 2 * n_samples * dt
        target = state_of_power(alg, x, 4) + 2 * dt * state_of_power(alg, x, 2) ** 2
        misfit.append((q - target) / math.sqrt(state_of_power(alg, x, 8) / (n_samples * dt)))
    return misfit


def component_labels(alg) -> tuple[list[str], list[str]]:
    """The Brownian and the Levy labels that classical_paths gives the table's components."""
    brown, levy, _, _ = focksim._levy_khinchin(decompose(alg))
    return ([focksim._component_label(alg, x, f"y{i}") for i, x in enumerate(brown)],
            [focksim._component_label(alg, x, f"z{j}") for j, x in enumerate(levy)])


def named_components(name: str) -> list[str]:
    """The labels inside an estimate's brackets: mean[a] -> [a], cov[a,b] -> [a, b]."""
    return name[name.index("[") + 1 : -1].split(",")


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """The two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b|, numpy only."""
    grid = np.concatenate([a, b])
    cdf = [np.searchsorted(np.sort(x), grid, side="right") / len(x) for x in (a, b)]
    return float(np.max(np.abs(cdf[0] - cdf[1])))


class TestClassicalPaths:
    def test_wiener_variance(self):
        rpt = classical_paths(ia.wiener(), t=1.0, dt=0.01, n_paths=20000, seed=123)
        var = rpt.estimate("var[dw]")
        assert abs(var.value - 1.0) <= 3 * var.stderr

    def test_poisson_compensated_mean(self):
        rpt = classical_paths(ia.poisson(), t=1.0, dt=0.01, n_paths=20000, seed=5)
        mean = rpt.estimate("mean[dm]")
        assert abs(mean.value) <= 3 * mean.stderr
        var = rpt.estimate("var[dm]")
        assert abs(var.value - 1.0) <= 3 * var.stderr

    def test_cross_moment_vanishes_on_sum(self):
        s = ia.orthogonal_sum(ia.wiener(), ia.poisson())
        rpt = classical_paths(s, t=1.0, dt=0.01, n_paths=20000, seed=7)
        cov = rpt.estimate("cov[dw,dm]")
        assert abs(cov.value) <= 3 * cov.stderr
        auto = rpt.estimate("cov[dw,dw]")
        assert abs(auto.value - 1.0) <= 3 * auto.stderr

    def test_noncommutative_rejected(self):
        with pytest.raises(UnsupportedModelError):
            classical_paths(ia.hp(1), 1.0, 0.01, 100, 0)

    def test_thermal_matrix_rejected(self):
        # commutative check fails first for n >= 2; n = 1 has a Levy component
        with pytest.raises(UnsupportedModelError):
            classical_paths(ia.thermal_matrix(2, (0.5, 0.5)), 1.0, 0.01, 100, 0)

    @pytest.mark.parametrize(
        "alg",
        [
            ia.group_levy(ia.cyclic_group(2)),
            ia.group_levy(ia.cyclic_group(3)),
            ia.group_levy(ia.cyclic_group(5)),
            ia.periodic_wiener(1, [1.0]),
        ],
        ids=["z2", "z3", "z5", "pw1"],
    )
    def test_commutative_tables_beyond_the_single_jump_families(self, alg):
        rpt = classical_paths(alg, t=1.0, dt=0.05, n_paths=20000, seed=31)
        assert rpt.estimates
        for e in rpt.estimates:
            assert abs(e.value - e.target) <= 5 * e.stderr, e.name

    @pytest.mark.parametrize(
        "alg",
        [
            ia.poisson(),
            WPP,
            ia.thermal_matrix(1, [0.7]),
            ia.group_levy(ia.cyclic_group(2)),
            ia.group_levy(ia.cyclic_group(3)),
            ia.group_levy(ia.cyclic_group(5)),
        ],
        ids=["poisson", "wpp", "thermal1", "z2", "z3", "z5"],
    )
    def test_jump_atoms_reproduce_the_table_cumulants(self, alg):
        # sum_j rate_j jump_j(p)^m = l(x_p^m) for m >= 2: a Gaussian triplet
        # (no atoms) or a wrong rate formula fails this
        _, levy, jumps, rates = focksim._levy_khinchin(decompose(alg))
        assert levy and rates.size and np.all(rates > 0)
        xs = [Element(alg, x) for x in levy]
        for p, x in enumerate(xs):
            power = x
            for m in (2, 3, 4):
                power = multiply(power, x)
                target = complex(power.coeffs @ alg.state)
                assert abs(rates @ jumps[p] ** m - target) <= 1e-9 * max(1.0, abs(target)), (p, m)
            for q, y in enumerate(xs):
                if q != p:
                    target = complex(multiply(x, y).coeffs @ alg.state)
                    assert abs(rates @ (jumps[p] * jumps[q]) - target) <= 1e-9, (p, q)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_jump_atoms_of_a_cyclic_group_are_its_characters(self, n):
        # group_levy(Z_n) at its default weights: n atoms of rate 1/n, and atom k moves
        # the component x by sum_g x[d_g] chi_k(g), a real or imaginary part of a character
        alg = ia.group_levy(ia.cyclic_group(n))
        _, levy, jumps, rates = focksim._levy_khinchin(decompose(alg))
        chars = np.exp(2j * np.pi * np.outer(range(n), range(n)) / n)   # chi_k(g) at [g, k]
        expected = np.array(levy)[:, 1:] @ chars
        assert jumps.shape == (n, n)
        np.testing.assert_allclose(rates, np.full(n, 1 / n), rtol=0, atol=1e-12)
        close = np.abs(jumps[:, :, None] - expected[:, None, :]).max(axis=0) <= 1e-12
        assert (close.sum(axis=0) == 1).all() and (close.sum(axis=1) == 1).all()

    def test_newton_smooth_only(self):
        rpt = classical_paths(ia.newton(), t=1.0, dt=0.1, n_paths=100, seed=0)
        assert rpt.estimates == []

    def test_reproducible_with_seed(self):
        r1 = classical_paths(ia.wiener(), 1.0, 0.05, 500, seed=11)
        r2 = classical_paths(ia.wiener(), 1.0, 0.05, 500, seed=11)
        assert [e.value for e in r1.estimates] == [e.value for e in r2.estimates]
        assert r1.seed == 11

    def test_monte_carlo_rate(self):
        # stderr of the variance estimate shrinks like 1/sqrt(n_paths)
        ns = [1000, 10000, 100000]
        ses = []
        for n in ns:
            rpt = classical_paths(ia.wiener(), 1.0, 0.1, n, seed=3)
            ses.append(rpt.estimate("var[dw]").stderr)
        slope = fit_loglog_slope(ns, ses)
        assert -0.6 <= slope <= -0.4

    def test_report_json_fields(self):
        rpt = classical_paths(ia.wiener(), 1.0, 0.1, 200, seed=1)
        d = rpt.to_dict()
        assert set(d) == {"kind", "inputs", "seed", "estimates", "slopes", "runtime_ms"}
        assert all(set(e) == {"name", "value", "stderr", "target"} for e in d["estimates"])

    def test_step_budget_is_checked_before_decompose(self, monkeypatch):
        # 2**53 samples pass the budget and reach decompose; one path more is refused
        def reached(alg):
            raise LookupError("decompose reached")

        monkeypatch.setattr(focksim, "decompose", reached)
        with pytest.raises(LookupError):
            classical_paths(ia.wiener(), float(2**52), 1.0, 2, 0)
        for t, dt, n in ((float(2**52), 1.0, 3), (1.0, 1e-300, 2)):
            with pytest.raises(AlgebraError, match=r"n_paths \* n_steps must not exceed 2\*\*53"):
                classical_paths(ia.wiener(), t, dt, n, 0)

    def test_oversized_rate_is_refused_before_any_draw(self, monkeypatch):
        # a jump of 1e-8 at rate 1e22: 1e22 mean events per cell at dt = 1
        table = ia.parse("basis dt dm\ndeath dt\nstate dt = 1\nmul dm dm = 1e-8 dm + 1e6 dt\n").algebra

        def drawn(*args):
            raise LookupError("a jump was drawn")

        monkeypatch.setattr(focksim, "_jump_events", drawn)
        with pytest.raises(AlgebraError, match=r"1e\+22 mean events per cell, above the Poisson"):
            classical_paths(table, 1.0, 1.0, 2, 0)
        with pytest.raises(LookupError):  # 1e18 per cell is below the limit
            classical_paths(table, 1.0, 1e-4, 2, 0)

    @pytest.mark.parametrize("t, n_paths", [(1e300, 2), (1.3e154, 100)])
    def test_overflowing_variance_is_refused_before_any_draw(self, monkeypatch, t, n_paths):
        # the var error sums the path totals' fourth powers; at t = 1.3e154 the sample
        # variance of 100 paths passes sqrt(max) and its square overflowed
        def drawn(*args):
            raise LookupError("a normal was drawn")

        monkeypatch.setattr(focksim, "_gaussian", drawn)
        with pytest.raises(AlgebraError, match=re.escape(f"variance {t:.3g}: its var error would overflow")):
            classical_paths(ia.wiener(), t, t / 10, n_paths, 0)
        monkeypatch.undo()
        rpt = classical_paths(ia.wiener(), 1e150, 1e149, n_paths, 0)
        assert all(np.isfinite(e.value) and np.isfinite(e.stderr) for e in rpt.estimates)

    def test_poisson_limit_is_numpys(self):
        rng = np.random.default_rng(0)
        rng.poisson(focksim.MAX_POISSON_MEAN)
        with pytest.raises(ValueError):
            rng.poisson(np.nextafter(focksim.MAX_POISSON_MEAN, np.inf))

    @pytest.mark.parametrize(
        "name, n_paths, n_steps",
        [
            ("poisson", 3000, 50),
            ("newton", 100, 10),
            ("wpp", CHUNK_BUDGET // 3 + 1, 3),       # event blocks of one step
            ("wpp", 30_000, 20),                     # event blocks of 9, 9 and 2 steps
            ("wpp", 20_000, 50),                     # event blocks of 34 and 16 steps
            ("crowded", 4, 20),                      # several events in one cell
            ("high_rate", 500, 20),                  # counts per cell
            ("huge_rate", 500, 20),                  # 5e6 events per cell
        ],
        ids=["poisson", "newton", "wpp-one-step-chunks", "wpp-ragged-chunks", "wpp-event-blocks",
             "crowded", "high-rate", "huge-rate"],
    )
    def test_chunks_match_the_step_by_step_sampler(self, name, n_paths, n_steps):
        # the jump streams are read as the reference reads them, so every estimate
        # of the Levy components matches it to rounding, the errors of the Levy
        # diagonal too; the Brownian side has its own law and test below
        alg = TABLES[name] if name in TABLES else getattr(ia, name)()
        args = (alg, 1.0, 1.0 / n_steps, n_paths, 2024)
        got, ref = classical_paths(*args), ref_classical_paths(*args)
        assert got.inputs == ref.inputs
        assert [e.name for e in got.estimates] == [e.name for e in ref.estimates]
        brown, levy = component_labels(alg)
        compared = 0
        for e, r in zip(got.estimates, ref.estimates):
            assert e.target == r.target, e.name
            if set(brown) & set(named_components(e.name)):
                continue
            # sums over the events against per-step outer products: rounding only
            bound = 1e-10 if e.name.startswith("cov[") else 1e-12
            pairs = [(e.value, r.value)]
            if len(set(named_components(e.name))) == 1:  # an off-diagonal error is the law's
                pairs.append((e.stderr, r.stderr))
            for x, y in pairs:
                assert abs(x - y) <= bound * max(1.0, abs(y)), (e.name, x, y)
            compared += 1
        assert compared == 2 * len(levy) + len(levy) * (len(levy) + 1) // 2

    @pytest.mark.parametrize(
        "name, n_paths, n_steps",
        [
            ("wiener", 1000, 20),
            ("wpp", 1000, 50),        # 4% of the cells hold an event
            ("correlated", 1000, 20),
            ("crowded", 500, 20),
            ("high_rate", 500, 20),
            ("wiener_crowded", 500, 20),  # several events in a cell beside a Brownian part
            ("wwppp", 1000, 50),          # the benchmark's wiener^2 + poisson^3 shape
        ],
        ids=["wiener", "wpp", "correlated", "crowded", "high-rate", "wiener-crowded", "wwppp"],
    )
    def test_sampler_matches_the_step_by_step_law(self, name, n_paths, n_steps):
        # over a fixed set of seeds, every estimate has the reference's law
        # (two-sample Kolmogorov-Smirnov at alpha = 1e-3), and its errors are
        # calibrated: mean z within 4/sqrt(S), spread over median error in [0.8, 1.25];
        # the errors that follow the reference's convention have its law too
        alg = TABLES[name] if name in TABLES else getattr(ia, name)()
        seeds = range(200)
        got = [classical_paths(alg, 1.0, 1.0 / n_steps, n_paths, s).estimates for s in seeds]
        ref = [ref_classical_paths(alg, 1.0, 1.0 / n_steps, n_paths, s).estimates for s in seeds]
        _, levy = component_labels(alg)
        bound = 1.95 * math.sqrt(2 / len(seeds))
        for i, est in enumerate(got[0]):
            value, se = (np.array([[getattr(g[i], f) for g in rows] for rows in (got, ref)])
                         for f in ("value", "stderr"))
            assert ks_statistic(*value) <= bound, (est.name, "value", ks_statistic(*value))
            components = set(named_components(est.name))
            if not est.name.startswith("cov[") or (components <= set(levy) and len(components) == 1):
                assert ks_statistic(*se) <= bound, (est.name, "stderr", ks_statistic(*se))
            z = (value[0] - est.target) / se[0]
            assert abs(z.mean()) <= 4 / math.sqrt(len(seeds)), (est.name, z.mean())
            spread = np.std(value[0], ddof=1) / np.median(se[0])
            assert 0.8 <= spread <= 1.25, (est.name, spread)

    def test_jump_events_are_drawn_once_per_event_block(self, monkeypatch):
        # wiener^2 + poisson^3 at 20000 x 200: event blocks of 72, 72 and 56 steps
        alg = WWPPP
        n_paths, n_steps, nz, na = 20_000, 200, 3, 3
        _, _, _, rates = focksim._levy_khinchin(decompose(alg))
        lam = rates / n_steps
        entry = 9 + 2 * na + 3 * nz  # doubles per event entry
        block = int(CHUNK_BUDGET // (n_paths * np.minimum(lam, 1.0).sum() * entry))
        drawn = []

        def counted(gens, lam, k, n_paths):
            drawn.append(k)
            return jump_events(gens, lam, k, n_paths)

        jump_events = focksim._jump_events
        monkeypatch.setattr(focksim, "_jump_events", counted)
        classical_paths(alg, 1.0, 1.0 / n_steps, n_paths, 3)
        assert len(drawn) == math.ceil(n_steps / block) > 1, drawn
        assert drawn[:-1] == [block] * (len(drawn) - 1) and sum(drawn) == n_steps, drawn
        assert 0 < drawn[-1] < block, drawn

    def test_rare_joint_jumps_do_not_set_their_error(self):
        # K ~ Poisson(20) cells where both components jump drive cov[dm,dm_2]; an
        # error read off the sampled fourth moments grows like sqrt(K), so a low K
        # gives a small value with a small error, z ~ (K - 20) / sqrt(K)
        alg = ia.orthogonal_sum(ia.poisson(), ia.poisson())
        rpts = [classical_paths(alg, 1.0, 1.0 / 200, 4000, s) for s in range(150)]
        est = [r.estimate("cov[dm,dm_2]") for r in rpts]
        value, se = np.array([e.value for e in est]), np.array([e.stderr for e in est])
        assert np.std(se) / np.mean(se) < 0.05, np.std(se) / np.mean(se)
        assert abs(np.corrcoef(se, value)[0, 1]) < 0.3, np.corrcoef(se, value)[0, 1]

    @pytest.mark.parametrize("df", [1, 3, 40])
    def test_wishart_draw_has_the_wishart_moments(self, df):
        # E W = df S and Var W_pq = df (S_pq^2 + S_pp S_qq), S = L L^T: below df = 2
        # the rows are summed as they are, above it by Bartlett's decomposition
        factor = np.linalg.cholesky(np.array([[1.0, 0.6], [0.6, 2.0]]))
        scale = factor @ factor.T
        gen = np.random.Generator(np.random.SFC64(17))
        draws = np.array([focksim._wishart(gen, df, factor) for _ in range(4000)])
        var = df * (scale**2 + np.outer(np.diag(scale), np.diag(scale)))
        z = (draws.mean(axis=0) - df * scale) / np.sqrt(var / len(draws))
        assert np.all(np.abs(z) <= 5), z
        assert np.allclose(draws.var(axis=0) / var, 1, atol=0.15), draws.var(axis=0) / var

    @pytest.mark.parametrize("n_steps", [1, 2])
    @pytest.mark.parametrize(
        "alg",
        [ia.orthogonal_sum(ia.wiener(), ia.wiener()), CORRELATED, WPP,
         ia.group_levy(ia.cyclic_group(5)), SILENT],
        ids=["wiener2", "correlated", "wpp", "z5", "silent"],
    )
    def test_one_or_two_steps_per_path(self, alg, n_steps):
        # 2 paths leave N - rank A = 0 or 2 degrees of freedom for the Wishart part of
        # sum g g^T; at one step the counts lie in the paths' span (M = 0, k = 0); z5
        # has more atoms than N - n_paths, and the silent atom a zero row of counts;
        # two points give m4 = m2^2, so a var error is its finite-sample term alone
        brown, levy = component_labels(alg)
        nc = len(brown) + len(levy)
        for n_paths in (2, 3):
            rpt = classical_paths(alg, 1.0, 1.0 / n_steps, n_paths, 5)
            assert len(rpt.estimates) == 2 * nc + nc * (nc + 1) // 2
            for e in rpt.estimates:
                assert np.isfinite(e.value) and np.isfinite(e.stderr), e.name
                names = set(named_components(e.name))
                if names <= set(brown) and e.name.startswith("var["):
                    assert e.stderr > 0, e.name
                if names <= set(brown) and e.name.startswith("cov[") and len(names) == 1:
                    assert e.value > 0, e.name

    def test_rounded_counts_never_exceed_the_rank_of_the_design(self):
        # 5e17 events per cell: d d^T leaves the whole floats, and the Gram M of 4 atoms
        # can round to more than N - n_paths = 2 nonzero eigenvalues
        alg = ia.group_levy(ia.cyclic_group(5))
        for seed in range(5):
            rpt = classical_paths(alg, 1e18, 5e17, 2, seed)
            assert all(np.isfinite(e.value) and np.isfinite(e.stderr) for e in rpt.estimates)

    def test_jump_counts_are_floats_in_every_block(self):
        # 2e-12 mean events per step draw none; 3.6 per step draw some
        silent, none = focksim._jump_events(streams(3, 3), np.array([1e-12]), 2, 2)
        busy, some = focksim._jump_events(streams(3, 3), np.array([0.9]), 20, 4)
        assert none.shape == (1, 0) and some.shape == (1, busy.size) and busy.size
        assert none.dtype == some.dtype == np.float64

    def test_events_in_one_cell_add_up(self):
        # the crowded table puts 0.9 * 4 events per step on 4 paths
        _, _, _, rates = focksim._levy_khinchin(decompose(CROWDED))
        lam = rates * 0.05
        cell, counts = focksim._jump_events(streams(3, 3), lam, 20, 4)
        assert counts.max() >= 3
        dense = np.zeros(20 * 4)
        dense[cell] = counts[0]
        gens = streams(3, 3)
        events = [gens[2].integers(0, 4, gens[1].poisson(lam[0] * 4)) + 4 * s for s in range(20)]
        assert np.array_equal(dense, np.bincount(np.concatenate(events), minlength=80))

    @pytest.mark.parametrize("alg", [WPP, ia.group_levy(ia.cyclic_group(3)), HIGH_RATE, HUGE_RATE],
                             ids=["wpp", "z3", "high-rate", "huge-rate"])
    def test_report_does_not_depend_on_the_chunk_budget(self, monkeypatch, alg):
        args = (alg, 1.0, 0.02, 3000, 77)
        report = classical_paths(*args).to_dict()
        monkeypatch.setattr(focksim, "CHUNK_BUDGET", 7)  # one step per event block
        tiny = classical_paths(*args).to_dict()
        assert tiny["estimates"] == report["estimates"]

    @pytest.mark.parametrize("alg", [ia.poisson(), WPP, ia.group_levy(ia.cyclic_group(3))],
                             ids=["poisson", "wpp", "z3"])
    def test_increments_follow_the_jump_law(self, alg):
        rpt = classical_paths(alg, 1.0, 0.01, 20_000, 5)
        misfit = jump_law_misfit(alg, rpt)
        assert misfit and all(abs(z) <= 5 for z in misfit), misfit

    def test_gaussian_steps_fail_the_jump_law(self, monkeypatch):
        # Brownian steps with the jump components' covariance, in place of the jumps
        def gaussian(dec):
            brown, levy, jumps, rates = levy_khinchin(dec)
            return brown + levy, [], jumps[:0, :0], rates[:0]

        levy_khinchin = focksim._levy_khinchin
        monkeypatch.setattr(focksim, "_levy_khinchin", gaussian)
        rpt = classical_paths(WPP, 1.0, 0.01, 20_000, 5)
        monkeypatch.undo()
        assert abs(rpt.estimate("var[dm]").value - 1.0) <= 5 * rpt.estimate("var[dm]").stderr
        assert all(abs(z) > 5 for z in jump_law_misfit(WPP, rpt))

    def test_correlated_brownian_pair_meets_its_targets(self):
        rpt = classical_paths(CORRELATED, 1.0, 0.05, 20_000, 9)
        assert rpt.estimate("cov[a,b]").target == pytest.approx(0.6)
        for e in rpt.estimates:
            assert abs(e.value - e.target) <= 5 * e.stderr, e.name

    def test_small_brownian_variance_meets_its_targets(self):
        # a factor of moments + tol I put var[dw] at 1.09e-8, 8 standard errors off
        table = ia.parse("basis dt dw\ndeath dt\nstate dt = 1\nmul dw dw = 1e-8 dt\n").algebra
        rpt = classical_paths(table, 1.0, 0.01, 20_000, 1)
        assert rpt.estimate("var[dw]").target == pytest.approx(1e-8)
        for e in rpt.estimates:
            assert abs(e.value - e.target) <= 5 * e.stderr, e.name

    def test_singular_brownian_covariance_is_unsupported(self, monkeypatch):
        # the Brownian part twice: covariance [[1, 1], [1, 1]], which has no Cholesky factor
        def twice(dec):
            brown, levy, jumps, rates = levy_khinchin(dec)
            return brown * 2, levy, jumps, rates

        levy_khinchin = focksim._levy_khinchin
        monkeypatch.setattr(focksim, "_levy_khinchin", twice)
        with pytest.raises(UnsupportedModelError, match="Brownian covariance is not positive"):
            classical_paths(ia.wiener(), 1.0, 0.1, 100, 0)

    def test_high_rate_small_jumps_meet_their_targets(self):
        rpt = classical_paths(HIGH_RATE, 1.0, 0.05, 20_000, 8)
        assert rpt.estimates
        for e in rpt.estimates:
            assert abs(e.value - e.target) <= 5 * e.stderr, e.name

    def test_huge_rate_small_jumps_meet_their_targets(self):
        # 1e7 events per cell and c0 = -1e3: a sum that subtracts c0^4 ~ 1e12 from
        # x^4 ~ 0.03 per cell, or N c0^2 from the raw counts' Gram, cancels to noise
        rpt = classical_paths(HUGE_RATE, 1.0, 0.1, 20_000, 8)
        assert rpt.estimates
        for e in rpt.estimates:
            assert e.stderr > 0 and abs(e.value - e.target) <= 5 * e.stderr, e.name

    def test_memory_is_bounded_by_the_chunk_budget(self):
        def peaks_for(alg, n_paths):
            classical_paths(alg, 1.0, 0.5, 2, 0)  # warm-up: the GNS construction is cached on alg
            peaks = []
            for n_steps in (200, 2000):
                tracemalloc.start()
                try:
                    classical_paths(alg, 1.0, 1.0 / n_steps, n_paths, 0)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            return peaks

        peaks = peaks_for(WPP, 20_000)
        assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks
        # 50 and 5 jumps per cell: every cell holds an event, in blocks of the same budget
        peaks = peaks_for(HIGH_RATE, 2_000)
        assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0], peaks
        assert peaks[1] <= 4 * 8 * CHUNK_BUDGET, peaks
