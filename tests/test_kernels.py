"""Structure-constant kernels against loop-based oracles.

The axiom checks, the pair-product primitive, the decomposition residuals,
the B* residuals, the seminorms, the GNS operators and the Gram-Schmidt
selection are batched contractions.  Each is compared here with
an independent computation: brute force over basis triples built on
``ref_multiply``/``ref_star``, or the per-pair and per-sample loops the
batched versions replaced.  The axiom oracles run on both paths of
``verify_axioms``, the dense matmuls and the coordinate join, each forced
by replacing the private path rule ``core._contractions`` with one kernel
and running the private ``core._axiom_report``: ``verify_axioms`` returns the
report kept on the algebra object.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import itoalg as ia
from itoalg import builtins, core, decomp, focksim, gns, ideal
from itoalg.builtins import _zero_mean_basis
from itoalg.core import (
    commutant_check, gram_schmidt, pair_products, random_element, rel_residual, rel_residuals, row_products,
)
from itoalg.decomp import support_projector
from itoalg.gns import _seminorm_rows, build_representation, seminorms, verify_bstar

from conftest import (
    make_catalog, ref_gns_operators, ref_gram_schmidt, ref_multiply, ref_seminorms, ref_star,
)
from test_pipeline import _random_rotation


def rotate(alg: ia.ItoAlgebra, seed: int) -> ia.ItoAlgebra:
    return _random_rotation(alg, np.random.default_rng(seed))[0]


PATHS = ("dense", "join")


def join_inputs(alg: ia.ItoAlgebra):
    """The join's coordinates ``(I, J, M, si, sk)`` and their ``_pairs_per_factor``."""
    nz, ns = alg.mult != 0, alg.star != 0
    return (*np.nonzero(nz), *np.nonzero(ns)), core._pairs_per_factor(nz, ns)[0]


KERNELS = {
    "dense": core._dense_contractions,
    "join": lambda alg: core._join_contractions(alg.mult, alg.star, *join_inputs(alg)),
}


def axioms_on(path: str, alg: ia.ItoAlgebra) -> ia.Report:
    """The axiom report of ``alg``, computed with the path rule replaced by the ``path`` kernel."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_contractions", KERNELS[path])
        return core._axiom_report(alg)


ALGEBRAS = {
    **make_catalog(),
    "rot_wiener+poisson": rotate(ia.orthogonal_sum(ia.wiener(), ia.poisson()), 1),
    "rot_hp1": rotate(ia.hp(1), 2),
    "rot_hp2": rotate(ia.hp(2), 3),
    "rot_group_levy_s3": rotate(ia.group_levy(ia.symmetric_group(3)), 4),
    "rot_thermal_matrix": rotate(ia.thermal_matrix(2, (2.0 / 3.0, 1.0 / 3.0)), 5),
}


# -- brute-force axiom residuals --------------------------------------------

def brute_axioms(alg: ia.ItoAlgebra) -> dict[str, float]:
    """Every verify_axioms residual, from explicit products of basis elements."""
    n, l, d = alg.dim, alg.state, alg.death
    e = np.eye(n, dtype=complex)
    prod = [[ref_multiply(alg, e[i], e[j]) for j in range(n)] for i in range(n)]
    stars = [ref_star(alg, e[i]) for i in range(n)]
    out = {}

    assoc = []
    for i in range(n):
        lhs = np.array([[ref_multiply(alg, prod[i][j], e[k]) for k in range(n)] for j in range(n)])
        rhs = np.array([[ref_multiply(alg, e[i], prod[j][k]) for k in range(n)] for j in range(n)])
        assoc.append(rel_residual(lhs, rhs))
    out["associativity"] = max(assoc)
    out["star_involution"] = rel_residual(np.array([ref_star(alg, s) for s in stars]), e)
    out["star_antimultiplicative"] = rel_residual(
        np.array([[ref_star(alg, prod[i][j]) for j in range(n)] for i in range(n)]),
        np.array([[ref_multiply(alg, stars[j], stars[i]) for j in range(n)] for i in range(n)]),
    )
    out["death_self_adjoint"] = rel_residual(ref_star(alg, d), d)
    left = np.array([ref_multiply(alg, d, e[i]) for i in range(n)])
    right = np.array([ref_multiply(alg, e[i], d) for i in range(n)])
    out["death_annihilates"] = max(rel_residual(left, 0 * left), rel_residual(right, 0 * right))
    out["state_star_symmetry"] = rel_residual(np.array([s @ l for s in stars]), np.conj(l))
    out["state_normalized"] = rel_residual(d @ l, 1.0)
    H = np.array([[ref_multiply(alg, stars[i], e[j]) @ l for j in range(n)] for i in range(n)])
    out["gram_hermitian"] = rel_residual(H, H.conj().T)
    eigs = np.linalg.eigvalsh((H + H.conj().T) / 2)
    out["state_positive"] = max(0.0, -eigs[0]) / max(1.0, np.max(np.abs(eigs)))
    return out


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_axiom_residuals_match_brute_force(name):
    alg = ALGEBRAS[name]
    expected = brute_axioms(alg)
    for path in PATHS:
        report = axioms_on(path, alg)
        assert [c.name for c in report.checks] == list(expected)
        for check in report.checks:
            assert check.residual == pytest.approx(expected[check.name], abs=1e-12), (path, check.name)
        assert report.passed, path


def _rotated_hp3_sum() -> ia.ItoAlgebra:
    return rotate(ia.orthogonal_sum(ia.hp(3), ia.zero_intensity_poisson()), 6)


CORRUPTIBLE = {
    "hp6": lambda: ia.hp(6),
    "rot_hp3+zip": _rotated_hp3_sum,
}


def _first_product_entry(alg: ia.ItoAlgebra) -> tuple[int, int, int]:
    """A nonzero structure constant whose output is not the death line."""
    death = int(np.argmax(np.abs(alg.death)))
    for idx in zip(*np.nonzero(alg.mult)):
        if idx[2] != death:
            return tuple(int(i) for i in idx)
    raise AssertionError("no product outside the death line")


def _failed(report) -> set[str]:
    return {c.name for c in report.failures()}


@pytest.mark.parametrize("name", sorted(CORRUPTIBLE))
def test_mult_perturbation_fails_associativity(name):
    alg = CORRUPTIBLE[name]()
    mult = alg.mult.copy()
    mult[_first_product_entry(alg)] += 1e-6
    for path in PATHS:
        assert axioms_on(path, alg).passed, path
        assert "associativity" in _failed(axioms_on(path, replace(alg, mult=mult))), path


@pytest.mark.parametrize("name", sorted(CORRUPTIBLE))
def test_star_perturbation_fails_antimultiplicativity(name):
    alg = CORRUPTIBLE[name]()
    i, _, _ = _first_product_entry(alg)
    star_m = alg.star.copy()
    star_m[i, int(np.argmax(np.abs(star_m[i])))] += 1e-6
    for path in PATHS:
        assert "star_antimultiplicative" in _failed(axioms_on(path, replace(alg, star=star_m))), path


def test_nan_never_passes():
    alg = ia.wiener()
    mult = alg.mult.copy()
    mult[1, 1, 1] = np.nan
    for path in PATHS:
        report = axioms_on(path, replace(alg, mult=mult))
        assert {"associativity", "state_positive"} <= _failed(report), path


@pytest.mark.parametrize("path", PATHS)
def test_hp6_perturbation_residual_is_exact(path):
    alg = ia.hp(6)
    mult = alg.mult.copy()
    mult[3, 4, 5] += 1e-6
    report = axioms_on(path, replace(alg, mult=mult))
    assert report.checks[0].name == "associativity"
    assert report.checks[0].residual == pytest.approx(1e-6, abs=1e-15)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_nonfinite_entry_without_join_partner_fails(path, value):
    # dw . dw = value dt: dt multiplies nothing, so no product pairs with it
    alg = ia.wiener()
    mult = alg.mult.copy()
    mult[1, 1, 0] = value
    report = axioms_on(path, replace(alg, mult=mult))
    assert "associativity" in _failed(report)
    assert np.isnan(report.checks[0].residual)


@st.composite
def sparse_tables(draw) -> ia.ItoAlgebra:
    """A random sparse table, or a builtin under a random phased relabeling.

    Random tables fail the axioms; the relabeled builtins pass them, unless
    one entry is perturbed (which may break nothing).  Either kind may carry one non-finite entry.
    Every star is a permutation with unit-modulus entries.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(2, 8))
        density = draw(st.floats(0.05, 0.4))
        values = rng.standard_normal((n, n, n)) + 1j * rng.standard_normal((n, n, n))
        mult = np.where(rng.random((n, n, n)) < density, values, 0)
        phases = np.exp(2j * np.pi * rng.random(n))
        star_m = np.eye(n)[rng.permutation(n)] * phases[:, None]
        state = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        alg = ia.ItoAlgebra(tuple(f"e{i}" for i in range(n)), mult, star_m,
                            int(rng.integers(n)), state)
    else:
        base = draw(st.sampled_from(["newton", "wiener", "poisson", "hp1", "thermal_brownian",
                                     "periodic_wiener", "group_levy_s3", "wiener+poisson"]))
        src = ALGEBRAS[base]
        n = src.dim
        perm = rng.permutation(n)               # b_i = s_i a_perm[i]
        s = np.exp(2j * np.pi * rng.random(n))
        mult = src.mult[np.ix_(perm, perm, perm)] * (s[:, None, None] * s[None, :, None] / s)
        star_m = np.conj(s)[:, None] * src.star[np.ix_(perm, perm)] / s
        alg = ia.ItoAlgebra(src.labels, mult, star_m, src.death[perm] / s, s * src.state[perm])
        if draw(st.booleans()):
            mult = alg.mult.copy()
            mult[tuple(rng.integers(n, size=3))] += draw(st.sampled_from([1e-6, 1e-3, 1.0]))
            alg = replace(alg, mult=mult)
    if draw(st.integers(0, 3)) == 3:
        bad = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        field = draw(st.sampled_from(["mult", "star"]))
        arr = getattr(alg, field).copy()
        arr[tuple(rng.integers(n, size=arr.ndim))] = bad
        alg = replace(alg, **{field: arr})
    return alg


@settings(max_examples=150, deadline=None)
@given(alg=sparse_tables())
def test_paths_agree_on_random_sparse_tables(alg):
    dense, join = axioms_on("dense", alg), axioms_on("join", alg)
    assert _failed(dense) == _failed(join)
    for a, b in zip(dense.checks, join.checks):
        assert a.name == b.name
        assert np.isnan(a.residual) == np.isnan(b.residual), a.name
        if not np.isnan(a.residual):
            assert abs(a.residual - b.residual) <= 1e-12 * max(1.0, a.residual), a.name


# hp(2..7): 126 to 7,616 join pairs against n^5 = 59,049 to 1.07e9; a random
# rotation fills the table, so the join would cost 2.0 to 2.7 times n^5 pairs.
RULE_CASES = {
    **{f"hp{d}": (lambda d=d: ia.hp(d), "join") for d in range(2, 8)},
    "group_levy_s4": (lambda: ia.group_levy(ia.symmetric_group(4)), "join"),
    "thermal_matrix5": (lambda: ia.thermal_matrix(5, np.linspace(0.5, 2.0, 5)), "join"),
    "periodic_wiener16": (lambda: ia.periodic_wiener(16, np.linspace(0.5, 2.0, 16)), "join"),
    # 3,528,360 pairs against n^5 = 2.6e10: the join, in chunks of _JOIN_MAX_PAIRS
    "group_levy_s5": (lambda: ia.group_levy(ia.symmetric_group(5)), "join"),
    "rot_hp4": (lambda: rotate(ia.hp(4), 7), "dense"),
    "rot_group_levy_s4": (lambda: rotate(ia.group_levy(ia.symmetric_group(4)), 8), "dense"),
}


@pytest.mark.parametrize("name", sorted(RULE_CASES))
def test_path_rule_decision(monkeypatch, name):
    build, path = RULE_CASES[name]
    alg = build()
    ran = []

    def spy(kernel):
        inner = getattr(core, f"_{kernel}_contractions")
        return lambda *args: ran.append(kernel) or inner(*args)

    for kernel in PATHS:
        monkeypatch.setattr(core, f"_{kernel}_contractions", spy(kernel))
    core._axiom_report(alg)  # a builtin's kept report was computed on construction
    assert ran == [path]


def test_s5_join_takes_chunks():
    alg = ia.group_levy(ia.symmetric_group(5))
    _, per_i = join_inputs(alg)
    assert per_i.sum() > core._JOIN_MAX_PAIRS
    assert len(list(core._chunks(per_i, core._JOIN_MAX_PAIRS))) >= 2


def _bent(alg: ia.ItoAlgebra, field: str, value) -> ia.ItoAlgebra:
    """``alg`` with ``value`` added to the first nonzero entry of ``field`` past its middle."""
    arr = getattr(alg, field).copy()
    flat = np.flatnonzero(arr)
    arr.flat[flat[flat.size // 2]] += value
    return replace(alg, **{field: arr})


def test_path_rule_join_reads_imaginary_entries(monkeypatch):
    """hp(3) on the basis (death, i a_1, ..., i a_n-1), bent: purely imaginary constants, taken by the join."""
    alg = ia.hp(3)
    scale = np.where(np.arange(alg.dim) == alg.index("dt"), 1.0, 1j)
    tilted = _bent(ia.subalgebra(alg, np.diag(scale)), "mult", 1e-3j)
    assert np.any((tilted.mult.real == 0) & (tilted.mult.imag != 0))
    dense = axioms_on("dense", tilted)
    ran = []
    join = core._join_contractions
    monkeypatch.setattr(core, "_join_contractions", lambda *args: ran.append("join") or join(*args))
    report = core._axiom_report(tilted)
    assert ran == ["join"] and _failed(report) == _failed(dense) and _failed(dense)
    for a, b in zip(dense.checks, report.checks):
        assert abs(a.residual - b.residual) <= 1e-12 * max(1.0, a.residual), a.name


@pytest.mark.parametrize("build", [
    lambda: ia.hp(3),
    lambda: ia.group_levy(ia.symmetric_group(4)),
    lambda: _bent(ia.group_levy(ia.symmetric_group(4)), "mult", 1e-3),  # nonzero residuals
    lambda: _bent(ia.hp(3), "star", np.nan),
], ids=["hp3", "s4", "s4_bent", "nan_star"])
def test_join_chunks_give_the_same_bits(monkeypatch, build):
    alg = build()
    coords, per_i = join_inputs(alg)
    whole = core._join_contractions(alg.mult, alg.star, coords, per_i)
    chunks, chunker = [], core._chunks
    monkeypatch.setattr(core, "_chunks", lambda w, cap: chunks.extend(chunker(w, cap)) or chunks)
    monkeypatch.setattr(core, "_JOIN_MAX_PAIRS", int(per_i.sum()) // 5)
    assoc, antimult = core._join_contractions(alg.mult, alg.star, coords, per_i)
    assert len(chunks) >= 3
    assert [lo for lo, _ in chunks] == [0] + [hi for _, hi in chunks[:-1]] and chunks[-1][1] == alg.dim
    assert assoc.tobytes() == whole[0].tobytes()
    assert np.float64(antimult).tobytes() == np.float64(whole[1]).tobytes()


@pytest.mark.parametrize("build", [
    lambda: ia.hp(3),
    lambda: ia.group_levy(ia.symmetric_group(4)),
    lambda: rotate(ia.hp(2), 6),
    lambda: _bent(ia.hp(3), "star", np.nan),
], ids=["hp3", "s4", "rot_hp2", "nan_star"])
def test_pair_count_is_the_pairs_the_join_forms(monkeypatch, build):
    """``_pairs_per_factor`` against the pairs ``_join`` forms, before the chunks and in each chunk.

    The count reads only the nonzero masks, where NaN is nonzero; the join
    skips the star when it is not finite, so its pairs are counted on the
    table with each NaN replaced by 1, which has the same masks.  With the
    join forced, ``_contractions`` hands it the coordinates and per-factor
    counts of that NaN-free probe.
    """
    alg = build()
    probe = replace(alg, star=np.where(np.isnan(alg.star), 1.0, alg.star))
    per_i, shared = core._pairs_per_factor(probe.mult != 0, probe.star != 0)
    received = []
    with pytest.MonkeyPatch.context() as m:
        m.setattr(core, "_JOIN_COST", 0)   # every table takes the join
        m.setattr(core, "_join_contractions", lambda *args: received.append(args[2:]) or (np.zeros(0), 0.0))
        core._contractions(alg)
    [(coords, got_per_i)] = received
    want = (*np.nonzero(probe.mult), *np.nonzero(probe.star))
    assert len(coords) == len(want) and all(np.array_equal(a, b) for a, b in zip(coords, want))
    np.testing.assert_array_equal(got_per_i, per_i)

    formed = [[None, 0]]   # [(lo, hi), pairs]; the first entry holds the shared star pairs
    chunker, joiner = core._chunks, core._join

    def chunks(weights, cap):
        for lo_hi in chunker(weights, cap):
            formed.append([lo_hi, 0])
            yield lo_hi

    def join(left, right, n):
        p, q = joiner(left, right, n)
        formed[-1][1] += p.size
        return p, q

    monkeypatch.setattr(core, "_chunks", chunks)
    monkeypatch.setattr(core, "_join", join)
    monkeypatch.setattr(core, "_JOIN_MAX_PAIRS", int(per_i.sum()) // 5)
    core._join_contractions(probe.mult, probe.star, *join_inputs(probe))
    assert len(formed) >= 4
    assert formed[0][1] == shared
    for (lo, hi), pairs in formed[1:]:
        assert pairs == per_i[lo:hi].sum(), (lo, hi)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_pair_products_match_ref_multiply(name):
    alg = ALGEBRAS[name]
    rng = np.random.default_rng(11)
    U = rng.standard_normal((3, alg.dim)) + 1j * rng.standard_normal((3, alg.dim))
    V = rng.standard_normal((4, alg.dim)) + 1j * rng.standard_normal((4, alg.dim))
    pairs = pair_products(alg, U, V)
    assert pairs.shape == (3, 4, alg.dim)
    for a in range(3):
        for b in range(4):
            np.testing.assert_allclose(pairs[a, b], ref_multiply(alg, U[a], V[b]), rtol=0, atol=1e-12)
    rows = row_products(alg, U[:3], V[:3])
    np.testing.assert_allclose(rows, pairs[np.arange(3), np.arange(3)], rtol=0, atol=1e-12)


# -- loop oracles for the batched residual dicts ----------------------------

def loop_decompose_residuals(alg: ia.ItoAlgebra) -> dict[str, float]:
    """Decomposition residuals by per-basis-element and per-pair loops."""
    rep = build_representation(alg)
    tol = alg.tol
    n, d = alg.dim, rep.hdim
    P = support_projector(rep)
    E = np.eye(d, dtype=complex) - P

    blocks = [alg.state[np.newaxis, :]]
    if d:
        blocks += [rep.kmat, rep.kdmat.T, rep.imats.reshape(n, d * d).T]
    A = np.vstack(blocks)
    death = alg.death
    ys, zs = [], []
    resid_preimage = 0.0
    for i in range(n):
        x = np.zeros(n, dtype=complex)
        x[i] = 1.0
        x = x - alg.state[i] * death
        target = np.concatenate(
            [[0.0], P @ (rep.kmat @ x), (x @ rep.kdmat) @ P, np.zeros(d * d, dtype=complex)]
        )
        y, *_ = np.linalg.lstsq(A, target, rcond=None)
        resid_preimage = max(resid_preimage, rel_residual(A @ y, target))
        ys.append(y)
        zs.append(x - y)
    y_idx, _ = gram_schmidt(ys, tol)
    z_idx, _ = gram_schmidt(zs, tol)
    y_basis = [ys[i] for i in y_idx]
    z_basis = [zs[i] for i in z_idx]

    def prod(u, v):
        return ref_multiply(alg, u, v)

    def svd_rank(m):
        svals = np.linalg.svd(m, compute_uv=False)
        return int(np.sum(svals > tol * max(float(np.max(svals, initial=0.0)), 1.0)))

    res = {"preimage": resid_preimage}
    res["projector_idempotent"] = rel_residual(P @ P, P)
    res["projector_hermitian"] = rel_residual(P, P.conj().T)
    kill = 0.0
    for i in range(n):
        kill = max(kill, rel_residual(rep.imats[i] @ P, np.zeros((d, d))))
        kill = max(kill, rel_residual(P @ rep.imats[i], np.zeros((d, d))))
    res["projector_kills_operators"] = kill
    cross = ortho = 0.0
    for y in y_basis:
        ystar = ref_star(alg, y)
        for z in z_basis:
            cross = max(cross, rel_residual(prod(y, z), np.zeros(n)), rel_residual(prod(z, y), np.zeros(n)))
            ortho = max(ortho, rel_residual(prod(ystar, z) @ alg.state, 0.0),
                        rel_residual(prod(z, ystar) @ alg.state, 0.0))
    res["cross_products"] = cross
    res["orthogonality"] = ortho
    recon = 0.0
    for i in range(n):
        recon = max(recon, rel_residual(alg.state[i] * death + ys[i] + zs[i], np.eye(n)[i]))
    res["reconstruction"] = recon
    nilp = 0.0
    for y in y_basis:
        for y2 in y_basis:
            w = prod(y, y2)
            nilp = max(nilp, rel_residual(w, (w @ alg.state) * death))
    res["brownian_second_order"] = nilp
    pi_prod = 0.0
    for i in y_idx + z_idx:
        for j in y_idx + z_idx:
            kw = rep.kmat @ prod(ys[i] + zs[i], ys[j] + zs[j])
            pi_prod = max(pi_prod, rel_residual(P @ kw, np.zeros(d)))
    res["pi_kills_products"] = pi_prod
    if d:
        xs = [ys[i] + zs[i] for i in range(n)]
        span_prod = np.array([rep.kmat @ prod(u, v) for u in xs for v in xs]).T
        span_levy = np.array([rep.kmat @ z for z in z_basis]).T if z_basis else np.zeros((d, 0))
        ranks = [svd_rank(m) for m in (span_prod, span_levy, np.hstack([span_prod, span_levy]))]
        res["levy_k_image"] = 0.0 if ranks[0] == ranks[1] == ranks[2] else 1.0
        if z_basis:
            istack = np.vstack([rep.imats.reshape(-1, d) @ E,
                                np.conj(np.transpose(rep.imats, (0, 2, 1))).reshape(-1, d) @ E])
            rank_e = int(np.round(np.trace(E).real))
            res["levy_nondegenerate"] = 0.0 if svd_rank(istack) >= rank_e else 1.0
        else:
            res["levy_nondegenerate"] = 0.0
    else:
        res["levy_k_image"] = 0.0
        res["levy_nondegenerate"] = 0.0
    if y_basis or z_basis:
        stacked = np.array(y_basis + z_basis)
        rank_sum = np.linalg.matrix_rank(stacked, tol=tol * max(1.0, float(np.max(np.abs(stacked)))))
        res["intersection_death_only"] = 0.0 if rank_sum == len(stacked) else 1.0
    else:
        res["intersection_death_only"] = 0.0
    return res


def loop_bstar_residuals(rep, samples) -> dict[str, float]:
    """B* residuals by one seminorms() call per sample and derived element."""
    worst = dict.fromkeys(
        ["star_op", "star_plus_minus", "star_corner", "sub_op_op", "sub_op_plus",
         "sub_minus_op", "sub_corner", "cstar_equality", "corner_equality"], 0.0)

    def eq(lhs, rhs):
        return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))

    def ineq(lhs, rhs):
        return max(0.0, lhs - rhs) / max(1.0, abs(lhs), abs(rhs))

    def update(key, value):
        worst[key] = max(worst[key], value)

    for a, c in zip(samples, samples[1:] + samples[:1]):
        astar = a.star()
        na, ns, nc = seminorms(rep, a), seminorms(rep, astar), seminorms(rep, c)
        nac, naa = seminorms(rep, a * c), seminorms(rep, a * astar)
        update("star_op", eq(ns.op, na.op))
        update("star_plus_minus", eq(ns.plus, na.minus))
        update("star_corner", eq(ns.corner, na.corner))
        update("sub_op_op", ineq(nac.op, na.op * nc.op))
        update("sub_op_plus", ineq(nac.plus, na.op * nc.plus))
        update("sub_minus_op", ineq(nac.minus, na.minus * nc.op))
        update("sub_corner", ineq(nac.corner, na.minus * nc.plus))
        update("cstar_equality", eq(naa.op, na.op * ns.op))
        update("corner_equality", eq(naa.corner, na.minus * ns.plus))
    return worst


def _faithful(alg: ia.ItoAlgebra) -> ia.ItoAlgebra:
    ideal = ia.faithfulness_ideal(alg)
    return alg if ideal.is_trivial else ia.quotient(alg, ideal).algebra


EQUIVALENCE = dict(make_catalog())
EQUIVALENCE["rot_hp3+zip"] = _rotated_hp3_sum()


def _assert_same_dict(got: dict, expected: dict) -> None:
    assert list(got) == list(expected)
    for key, value in expected.items():
        assert got[key] == pytest.approx(value, abs=1e-12), key


@pytest.mark.parametrize("name", sorted(EQUIVALENCE))
def test_decompose_residuals_match_loops(name):
    alg = _faithful(EQUIVALENCE[name])
    _assert_same_dict(ia.decompose(alg).report.residuals, loop_decompose_residuals(alg))


@pytest.mark.parametrize("name", sorted(EQUIVALENCE))
def test_bstar_residuals_match_loops(name):
    alg = _faithful(EQUIVALENCE[name])
    rep = build_representation(alg)
    rng = np.random.default_rng(5)
    samples = [random_element(alg, rng) for _ in range(20)]
    _assert_same_dict(verify_bstar(rep, samples).residuals, loop_bstar_residuals(rep, samples))
    # default samples: the stream drawn one element at a time, real part first
    rng = np.random.default_rng(3)
    seeded = [alg.element(rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim))
              for _ in range(15)]
    _assert_same_dict(verify_bstar(rep, count=15, seed=3).residuals, loop_bstar_residuals(rep, seeded))


# -- seminorms, GNS operators and Gram-Schmidt against the routes they replaced --

FAITHFUL = {name: _faithful(alg) for name, alg in ALGEBRAS.items()}


@pytest.mark.parametrize("name", sorted(FAITHFUL))
def test_block_norms_match_table_products(name):
    alg = FAITHFUL[name]
    rep = build_representation(alg)
    z = np.random.default_rng(7).standard_normal((2, 20, alg.dim))
    X = z[0] + 1j * z[1]
    got, ref = _seminorm_rows(rep, X), ref_seminorms(rep, X)
    for field, g, r in zip(got._fields, got, ref):
        assert np.max(rel_residuals(g, r)) <= 1e-12, field


@pytest.mark.parametrize("k", [600, -600])
@pytest.mark.parametrize("name", ["hp1", "poisson", "thermal_brownian", "rot_group_levy_s3"])
def test_seminorms_are_homogeneous_under_powers_of_two(name, k):
    alg = FAITHFUL[name]
    rep = build_representation(alg)
    a = random_element(alg, np.random.default_rng(8)).coeffs
    assert seminorms(rep, 2.0**k * a) == tuple(2.0**k * v for v in seminorms(rep, a))


def unitary_rotation(alg: ia.ItoAlgebra, seed: int) -> ia.ItoAlgebra:
    """The algebra on the death plus a random unitary mix of its zero-mean basis.

    A unitary keeps the Gram spectrum, so a degenerate eigenspace stays
    degenerate and gets complex eigenvectors.
    """
    rng = np.random.default_rng(seed)
    keep = _zero_mean_basis(alg)
    q, _ = np.linalg.qr(rng.standard_normal((len(keep),) * 2) + 1j * rng.standard_normal((len(keep),) * 2))
    return ia.subalgebra(alg, [alg.death, *(q @ keep)])


PINNED = ("hp3", "thermal_matrix3_flat", "group_levy_s4", "unitary_hp3")
DEGENERATE = {   # the pinning branch runs on the PINNED tables
    **FAITHFUL,
    "thermal_matrix3_flat": ia.thermal_matrix(3, [1.0, 1.0, 1.0]),
    "group_levy_s4": ia.group_levy(ia.symmetric_group(4)),
    "rot_hp3": rotate(ia.hp(3), 9),
    "unitary_hp3": unitary_rotation(ia.hp(3), 10),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_gns_operators_match_least_squares(name):
    alg = DEGENERATE[name]
    rep = gns.construct_gns(alg)
    K, imats = ref_gns_operators(alg)
    assert rel_residual(rep.kmat, K) <= 1e-12
    assert rel_residual(rep.imats, imats) <= 1e-12


def test_degenerate_cases_take_the_pinning_branch():
    for name in PINNED:
        evals = gns.construct_gns(DEGENERATE[name]).eigenvalues
        assert np.any(np.abs(np.diff(evals)) <= core.cutoff(evals, 1e-9)), name


def gram_schmidt_inputs() -> list[tuple[np.ndarray, float]]:
    """Every ``(rows, cut)`` a call site passes to ``gram_schmidt`` on the ALGEBRAS.

    The call sites: the zero-mean basis of a builtin, the GNS eigenbasis
    pinning, the quotient's complement, the Brownian/Levy bases of
    ``decompose`` and the Hermitian components of the classical sampler.
    """
    calls = []

    def spy(rows, cut):
        calls.append((np.array(rows, dtype=complex), cut))
        return gram_schmidt(rows, cut)

    with pytest.MonkeyPatch.context() as mp:
        for module in (builtins, decomp, focksim, gns, ideal):
            mp.setattr(module, "gram_schmidt", spy)
        for alg in ALGEBRAS.values():
            _zero_mean_basis(alg)
            gns.construct_gns(alg)
            faithful = ia.quotient(alg, ia.faithfulness_ideal(alg)).algebra
            dec = ia.decompose(faithful)
            if commutant_check(faithful):
                focksim._levy_khinchin(dec)
    return calls


def integer_dependent_rows(seed: int) -> np.ndarray:
    """Rows of small integers, some exact integer combinations of earlier rows, shuffled."""
    rng = np.random.default_rng(seed)
    base = rng.integers(-3, 4, (5, 8)) + 1j * rng.integers(-3, 4, (5, 8))
    mix = rng.integers(-2, 3, (4, 5))
    rows = np.vstack([base, mix @ base, np.zeros((1, 8))])
    return rows[rng.permutation(len(rows))]


def nearly_dependent_rows(seed: int) -> np.ndarray:
    """Integer rows, then rows 1e-2 away from some of them: classical Gram-Schmidt
    applied once leaves these about 1e-10 from orthogonal, twice about 1e-15."""
    rng = np.random.default_rng(seed)
    base = rng.integers(-3, 4, (5, 8)) + 1j * rng.integers(-3, 4, (5, 8))
    return np.vstack([base, base[:3] + 1e-2 * rng.standard_normal((3, 8))])


GS_INPUTS = gram_schmidt_inputs() + [
    (integer_dependent_rows(seed), cut) for seed in range(6) for cut in (1e-9, np.sqrt(1e-9))
] + [(nearly_dependent_rows(seed), 1e-9) for seed in range(6)]


def test_gram_schmidt_sees_every_call_site():
    assert len(GS_INPUTS) >= 60
    # the pinning passes the short rows of an eigenvector block, at sqrt(tol)
    assert any(cut == np.sqrt(1e-9) and rows.shape[0] > rows.shape[1] for rows, cut in GS_INPUTS)


@pytest.mark.parametrize("case", range(len(GS_INPUTS)))
def test_gram_schmidt_matches_modified_gram_schmidt(case):
    rows, cut = GS_INPUTS[case]
    kept, ortho = gram_schmidt(rows, cut)
    ref_kept, ref_ortho = ref_gram_schmidt(rows, cut)
    # every row's distance to the span of the rows kept before it is far from its cut,
    # so rounding cannot move a selection
    for idx, v in enumerate(rows):
        q = ref_ortho[[i for i, j in enumerate(ref_kept) if j < idx]]
        w = v - (q.conj() @ v) @ q
        w -= (q.conj() @ w) @ q
        ratio = np.linalg.norm(w) / core.cutoff(np.linalg.norm(v), cut)
        assert not 1e-3 < ratio < 1e3, (idx, ratio)
    assert kept == ref_kept
    assert rel_residual(ortho, ref_ortho) <= 1e-12
    assert rel_residual(ortho @ ortho.conj().T, np.eye(len(kept))) <= 1e-12
