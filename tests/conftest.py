import math
import re
import time

import numpy as np
import pytest

import itoalg as ia
from itoalg.adsl import _Fault, _is_token, _symbol_problem
from itoalg.core import (
    AlgebraError, Element, ItoAlgebra, commutant_check, cutoff, gram_matrix, numerical_rank,
    pair_products, pin_phase, rel_residual, row_products,
)
from itoalg.decomp import decompose
from itoalg.focksim import (
    Estimate, SimReport, SimulationError, UnsupportedModelError, _component_label, slot_increment,
)
from itoalg.gns import Seminorms


def make_catalog() -> dict[str, ia.ItoAlgebra]:
    """The standard instances exercised throughout the suite."""
    return {
        "newton": ia.newton(),
        "wiener": ia.wiener(),
        "poisson": ia.poisson(),
        "zero_intensity_poisson": ia.zero_intensity_poisson(),
        "hp1": ia.hp(1),
        "hp2": ia.hp(2),
        "hp3": ia.hp(3),
        "thermal_brownian": ia.thermal_brownian(2.0, 0.5),
        "periodic_wiener": ia.periodic_wiener(2, (2.0, 3.0)),
        "group_levy_s3": ia.group_levy(ia.symmetric_group(3)),
        "thermal_matrix": ia.thermal_matrix(2, (2.0 / 3.0, 1.0 / 3.0)),
        "wiener+poisson": ia.orthogonal_sum(ia.wiener(), ia.poisson()),
    }


@pytest.fixture(scope="session")
def catalog():
    return make_catalog()


@pytest.fixture(scope="session")
def faithful_catalog(catalog):
    """Every builtin except the Poisson process of zero intensity."""
    return {k: v for k, v in catalog.items() if k != "zero_intensity_poisson"}


def ref_multiply(alg: ia.ItoAlgebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Reference product by explicit loops, independent of the einsum path."""
    n = alg.dim
    out = np.zeros(n, dtype=complex)
    for i in range(n):
        if x[i] == 0:
            continue
        for j in range(n):
            if y[j] == 0:
                continue
            for k in range(n):
                out[k] += x[i] * y[j] * alg.mult[i, j, k]
    return out


def ref_star(alg: ia.ItoAlgebra, x: np.ndarray) -> np.ndarray:
    n = alg.dim
    out = np.zeros(n, dtype=complex)
    for i in range(n):
        for k in range(n):
            out[k] += np.conj(x[i]) * alg.star[i, k]
    return out


def ref_format_complex(z: complex) -> str:
    """Reference literal of one coefficient: a, bi, a+bi or a-bi with reals at 17 digits."""
    z = complex(z)
    if z.imag == 0.0:
        return f"{z.real:.17g}"
    if z.real == 0.0:
        return f"{z.imag:.17g}i"
    sign = "+" if z.imag > 0 else "-"
    return f"{z.real:.17g}{sign}{abs(z.imag):.17g}i"


def ref_format_lincomb(vec: np.ndarray, labels) -> str:
    terms = [f"{ref_format_complex(coef)} {labels[k]}" for k, coef in enumerate(vec.tolist()) if coef]
    return " + ".join(terms) if terms else "0"


def ref_serialize(alg: ia.ItoAlgebra) -> str:
    """Reference ``.ito`` writer: one f-string per coefficient, one line at a time.

    The writer that ``adsl.serialize`` replaced by one ``%`` format per table;
    it checks labels, name and death as that does, but not finiteness.
    """
    n, labels = alg.dim, alg.labels
    eye = np.eye(n, dtype=complex)
    death_hits = np.flatnonzero(np.abs(alg.death - eye).max(axis=1) <= alg.tol)
    if len(death_hits) != 1:
        raise ValueError("only algebras whose death is a basis element can be serialized")
    for sym in labels:
        problem = _symbol_problem(sym)
        if problem is not None:
            raise ValueError(f"basis symbol {sym!r} {problem}")
    if alg.name and not _is_token(alg.name):
        raise ValueError(f"algebra name {alg.name!r} is not one token")
    lines = [f"algebra {alg.name}"] if alg.name else []
    lines.append("basis " + " ".join(labels))
    lines.append(f"death {labels[death_hits[0]]}")
    lines += [f"state {labels[i]} = {ref_format_complex(alg.state[i])}"
              for i in np.flatnonzero(alg.state)]
    lines += [
        f"star {labels[i]} = {ref_format_lincomb(alg.star[i], labels)}"
        for i in np.flatnonzero((alg.star != eye).any(axis=1))
    ]
    lines += [
        f"mul {labels[i]} {labels[j]} = {ref_format_lincomb(alg.mult[i, j], labels)}"
        for i, j in zip(*np.nonzero(alg.mult.any(axis=2)))
    ]
    return "\n".join(lines) + "\n"


# the literal grammar as a regular expression: a, ai, a+bi or a-bi with decimal reals
_REF_UNSIGNED = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
REF_COMPLEX_RE = re.compile(rf"[+-]?{_REF_UNSIGNED}(?:[+-]{_REF_UNSIGNED})?i|[+-]?{_REF_UNSIGNED}", re.ASCII)


def ref_parse_complex(token: str) -> complex | None:
    """Reference literal reader: the grammar's regular expression, then ``complex``."""
    if REF_COMPLEX_RE.fullmatch(token) is None:
        return None
    return complex(token.replace("i", "j"))


def ref_read_lincomb(tokens: list[str], start: int, index: dict[str, int]) -> np.ndarray:
    """Reference lincomb reader: one token at a time, raising ``adsl._Fault`` at the first fault.

    The oracle for ``parse_lincomb``, which converts a line's columns at once.
    """
    def read_complex(k: int) -> complex:
        z = ref_parse_complex(tokens[k])
        if z is None:
            raise _Fault(k, f"expected a complex coefficient, got {tokens[k]!r}")
        if not np.isfinite(z):
            raise _Fault(k, "non-finite coefficient")
        return z

    vec = np.zeros(len(index), dtype=complex)
    if len(tokens) == start + 1 and tokens[start] == "0":
        return vec
    if start == len(tokens):
        raise _Fault(start, "empty linear combination (zero is written 0)")
    terms: dict[int, complex] = {}
    pos = start
    while True:
        coef = read_complex(pos)
        if pos + 1 == len(tokens):
            raise _Fault(pos, "coefficient without a basis symbol")
        if tokens[pos + 1] not in index:
            raise _Fault(pos + 1, f"unknown basis symbol {tokens[pos + 1]!r}")
        k = index[tokens[pos + 1]]
        terms[k] = terms.get(k, 0j) + coef
        pos += 2
        if pos == len(tokens):
            break
        if tokens[pos] != "+":
            raise _Fault(pos, f"expected '+', got {tokens[pos]!r}")
        pos += 1
        if pos == len(tokens):
            raise _Fault(pos - 1, "dangling '+' at end of line")
    if not all(np.isfinite(list(terms.values()))):  # finite coefficients can sum to inf
        raise _Fault(start, "non-finite coefficient")
    vec[list(terms)] = list(terms.values())
    return vec


def ref_faithfulness_ideal(alg: ia.ItoAlgebra) -> np.ndarray:
    """Reference ideal: orthonormal rows spanning the null space of the system
    l(x), l(a_i . x), l(x . a_j), l(a_i . x . a_j), built from the table alone."""
    c, l = alg.mult, alg.state
    n = alg.dim
    L2 = c @ l  # L2[i, j] = l(a_i . a_j)
    triple = np.transpose(c @ L2, (0, 2, 1)).reshape(n * n, n)  # x -> l(a_i . x . a_j)
    system = np.vstack([l[np.newaxis, :], L2, L2.T, triple])
    _, svals, vh = np.linalg.svd(system, full_matrices=False)
    return vh[ia.core.numerical_rank(svals, alg.tol):].conj()


def ref_brownian_space(alg: ia.ItoAlgebra) -> np.ndarray:
    """Reference B0: orthonormal rows spanning the zero-mean x with a_i . x and x . a_i
    on the death line for every basis element a_i, built from the table alone.

    In a faithful table B0 is the Brownian zero-mean span of ``decompose``: i(x) = 0
    and k(x) in PH give a corner-only triangular(a . x), and conversely i(x) = 0
    kills k(a . x).  The rank cut is this oracle's own, 1e-9 of the largest
    singular value with a floor of 1.
    """
    n = alg.dim
    d = alg.death / np.linalg.norm(alg.death)
    off = np.eye(n) - np.outer(d.conj(), d)   # v @ off: the row v less its part on the death
    left = alg.mult @ off                     # x @ left[i]: a_i . x off the death line
    right = np.swapaxes(alg.mult, 0, 1) @ off   # x @ right[i]: x . a_i off the death line
    system = np.hstack([alg.state[:, None], *left, *right])   # x @ system = 0
    _, svals, vh = np.linalg.svd(system.T, full_matrices=False)
    return vh[int(np.sum(svals > 1e-9 * max(1.0, svals.max(initial=0.0)))):].conj()


def same_row_span(a, b, tol: float = 1e-8) -> bool:
    """True iff the rows of ``a`` and of ``b`` each have full rank and span one space."""
    def rank(m):
        return np.linalg.matrix_rank(m, tol=tol * max(1.0, float(np.abs(m).max()))) if m.size else 0

    a, b = np.asarray(a), np.asarray(b)
    return rank(a) == len(a) == len(b) == rank(b) == rank(np.vstack([a, b]))


def ref_gram_schmidt(rows, cut: float) -> tuple[list[int], np.ndarray]:
    """Reference selection: modified Gram-Schmidt, one kept vector at a time.

    The loop that ``core.gram_schmidt`` replaced by classical Gram-Schmidt
    applied twice against the whole kept block; the keep rule is the same.
    """
    rows = np.asarray(rows, dtype=complex)
    kept: list[int] = []
    ortho: list[np.ndarray] = []
    for idx, v in enumerate(rows):
        w = v.copy()
        for u in ortho:
            w -= (np.conj(u) @ w) * u
        norm = float(np.linalg.norm(w))
        if norm > cutoff(np.linalg.norm(v), cut):
            ortho.append(w / norm)
            kept.append(idx)
    return kept, np.array(ortho).reshape(len(kept), rows.shape[-1])


def ref_seminorms(rep, X: np.ndarray) -> Seminorms:
    """Reference seminorms of the rows of ``X``: plus and minus from table products.

    The route that ``gns._seminorm_rows`` replaced by the block norms of
    triangular(x): l(x*.x) and l(x.x*) through two ``row_products`` with the
    starred rows, clamped at zero, and the operator norm of i(x).
    """
    alg = rep.algebra
    n, d = alg.dim, rep.hdim
    X = np.asarray(X, dtype=complex).reshape(-1, n)
    X_star = np.conj(X) @ alg.star
    ops = (X @ rep.imats.reshape(n, d * d)).reshape(len(X), d, d)
    op = np.linalg.svd(ops, compute_uv=False).max(axis=-1, initial=0.0)
    plus = np.sqrt(np.maximum((row_products(alg, X_star, X) @ alg.state).real, 0.0))
    minus = np.sqrt(np.maximum((row_products(alg, X, X_star) @ alg.state).real, 0.0))
    return Seminorms(op, plus, minus, np.abs(X @ alg.state))


def ref_gns_operators(alg: ItoAlgebra) -> tuple[np.ndarray, np.ndarray]:
    """Reference ``(kmat, imats)`` of the GNS construction, built through least squares.

    The route that ``gns.construct_gns`` replaced: a degenerate Gram
    eigenspace is pinned by Gram-Schmidt over the columns of its n x n
    projector, and the operators i(a_i) solve K.T @ imats[i].T = KP[i].T in
    one stacked ``np.linalg.lstsq``.
    """
    n, tol = alg.dim, alg.tol
    H = gram_matrix(alg)
    evals, evecs = np.linalg.eigh((H + H.conj().T) / 2.0)
    hdim = numerical_rank(evals, tol)
    cut = cutoff(evals, tol)
    evals = evals[::-1][:hdim]
    evecs = evecs[:, ::-1][:, :hdim]
    pinned = np.empty((hdim, n), dtype=complex)
    start = 0
    while start < hdim:
        stop = start + 1
        while stop < hdim and abs(evals[stop] - evals[start]) <= cut:
            stop += 1
        block = evecs[:, start:stop]
        if stop - start > 1:
            proj = block @ block.conj().T
            _, chosen = ref_gram_schmidt(proj.T, np.sqrt(tol))
            if len(chosen) >= stop - start:
                block = chosen[: stop - start].T
        for col in range(block.shape[1]):
            pinned[start + col] = pin_phase(block[:, col])
        start = stop
    K = np.sqrt(evals)[:, None] * pinned.conj()
    KP = np.swapaxes((alg.mult.reshape(n * n, n) @ K.T).reshape(n, n, hdim), 1, 2)
    rhs = KP.transpose(2, 0, 1).reshape(n, n * hdim)
    sol = np.linalg.lstsq(K.T, rhs, rcond=None)[0]
    return K, sol.reshape(hdim, n, hdim).transpose(1, 2, 0)


def ref_classical_paths(
    alg: ItoAlgebra,
    t: float,
    dt: float,
    n_paths: int,
    seed: int,
) -> SimReport:
    """Reference sampler: one draw and one (n_paths, nc, nc) outer product per step.

    The step-by-step loop that ``focksim.classical_paths`` replaced by sums
    over the jump events and the Brownian sufficient statistics.  It spawns
    the same SFC64 streams from ``SeedSequence(seed)``.  Each step of
    component j draws its total Poisson(lam n_paths) from stream 1 + j and
    the paths of its events from stream 1 + nz + j, expanded to dense
    counts with ``np.bincount``; a rate above one jump per cell draws the
    counts per cell from stream 1 + j.  These are the sampler's jump draws,
    so its Levy estimates match to rounding.  Each step draws its normals
    as one (nb, n_paths) block from stream 0, which the sampler no longer
    does: on the Brownian side the two agree in law only.
    """
    start = time.perf_counter()
    if not commutant_check(alg):
        raise UnsupportedModelError("classical sampling needs a commutative algebra")
    if not (t > 0 and 0 < dt <= t):
        raise AlgebraError("need 0 < dt <= t")
    if not np.isfinite(t / dt):
        raise AlgebraError("t/dt must be finite")
    if not 0 <= seed < 2**128:
        raise AlgebraError("seed must be in [0, 2**128)")
    if n_paths < 2:
        raise AlgebraError("need at least two paths for moment estimates")
    dec = decompose(alg)
    tol = alg.tol

    def selfadjoint(e: Element) -> np.ndarray:
        if not rel_residual(e.star().coeffs, e.coeffs) <= tol:
            raise UnsupportedModelError(
                "component basis is not self-adjoint; no real classical driver"
            )
        return e.coeffs

    brown = [selfadjoint(e) for e in dec.brownian_zero_mean]
    levy = [selfadjoint(e) for e in dec.levy_zero_mean]

    nb, nz = len(brown), len(levy)
    vectors = brown + levy
    prods = pair_products(alg, vectors, vectors)  # [p, q] is vectors[p] . vectors[q]
    moments = prods @ alg.state
    cov = moments[:nb, :nb]
    if not np.all(np.abs(cov.imag) <= tol):
        raise UnsupportedModelError("Brownian covariance is not real")
    cov = cov.real
    try:
        chol = np.linalg.cholesky(cov) if nb else np.zeros((0, 0))
    except np.linalg.LinAlgError as exc:
        raise UnsupportedModelError("Brownian covariance is not positive") from exc

    jump_size = np.zeros(nz)
    intensity = np.zeros(nz)
    for j, z in enumerate(levy):
        w = prods[nb + j, nb + j]
        c2 = complex(moments[nb + j, nb + j])
        rest = w - c2 * alg.death
        denom = float(np.vdot(z, z).real)
        c1 = complex(np.vdot(z, rest)) / denom
        if not rel_residual(c1 * z + c2 * alg.death, w) <= tol:
            raise UnsupportedModelError("Levy component is not of single-jump type")
        if not (abs(c1.imag) <= tol and c1.real > tol and abs(c2.imag) <= tol and c2.real > tol):
            raise UnsupportedModelError("Levy component has no positive jump/intensity data")
        for j2 in range(nz):
            if j2 != j and not rel_residual(prods[nb + j, nb + j2], np.zeros(alg.dim)) <= tol:
                raise UnsupportedModelError("Levy components are not independent")
        jump_size[j] = c1.real
        intensity[j] = c2.real / c1.real**2

    n_steps = int(round(t / dt))
    dt_eff = t / n_steps
    nc = nb + nz
    labels = [
        _component_label(alg, v, f"y{i}") for i, v in enumerate(brown)
    ] + [_component_label(alg, v, f"z{j}") for j, v in enumerate(levy)]

    gens = [
        np.random.Generator(np.random.SFC64(child))
        for child in np.random.SeedSequence(seed).spawn(1 + 2 * nz)
    ]
    totals = np.zeros((n_paths, nc))
    pair_sum = np.zeros((nc, nc))
    pair_sumsq = np.zeros((nc, nc))
    root = np.sqrt(dt_eff)
    for _ in range(n_steps):
        cols = []
        if nb:
            cols.append((chol @ gens[0].standard_normal((nb, n_paths))).T * root)
        for j in range(nz):
            lam = intensity[j] * dt_eff
            if lam > 1:
                jumps = gens[1 + j].poisson(lam, n_paths)
            else:
                events = gens[1 + nz + j].integers(0, n_paths, gens[1 + j].poisson(lam * n_paths))
                jumps = np.bincount(events, minlength=n_paths)
            cols.append((jump_size[j] * (jumps - lam))[:, None])
        dx = np.hstack(cols) if cols else np.zeros((n_paths, 0))
        totals += dx
        prods = dx[:, :, None] * dx[:, None, :]
        pair_sum += prods.sum(axis=0)
        pair_sumsq += (prods**2).sum(axis=0)

    estimates: list[Estimate] = []
    n_samples = n_paths * n_steps
    for p in range(nc):
        x = totals[:, p]
        m = float(np.mean(x))
        var = float(np.var(x, ddof=1)) if n_paths > 1 else 0.0
        centered = x - m
        m2 = float(np.mean(centered**2))
        m4 = float(np.mean(centered**4))
        var_se = math.sqrt(max(m4 - m2**2, 0.0) / n_paths + 2 * m2**2 / (n_paths * (n_paths - 1)))
        estimates.append(
            Estimate(f"mean[{labels[p]}]", m, float(np.std(x, ddof=1) / np.sqrt(n_paths)), 0.0)
        )
        target_var = float(moments[p, p].real) * t
        estimates.append(Estimate(f"var[{labels[p]}]", var, var_se, target_var))
        for q in range(p, nc):
            mean_pq = pair_sum[p, q] / n_samples
            var_pq = pair_sumsq[p, q] / n_samples - mean_pq**2
            se = float(np.sqrt(max(var_pq, 0.0) / n_samples)) / dt_eff
            target = float(moments[p, q].real)
            estimates.append(
                Estimate(f"cov[{labels[p]},{labels[q]}]", mean_pq / dt_eff, se, target)
            )

    return SimReport(
        kind="classical_paths",
        inputs={"t": t, "dt": dt_eff, "n_paths": n_paths, "n_steps": n_steps},
        seed=seed,
        estimates=estimates,
        slopes={},
        runtime_ms=(time.perf_counter() - start) * 1e3,
    )


def ref_ito_product_check(rep, a: Element, b: Element, dts) -> SimReport:
    """Reference product check: one dt at a time, three ``slot_increment`` calls each.

    The per-dt loop that ``focksim.ito_product_check`` replaced by one
    stacked product over every dt is the reference of the estimates:
    per-block ``np.linalg.norm`` and the closed forms as Python floats; the
    slopes are ``np.polyfit`` fits of the logs of the values above 1e-13.
    Its verdict is the product check: triangular(a) triangular(b) against
    triangular(a.b), each summed from ``rep.mats`` with a.b taken from
    ``ref_multiply``, raised as a ``SimulationError`` naming ``product`` when
    the relative residual exceeds tol.
    """
    dts = [float(x) for x in dts]
    if not dts or any(x <= 0 for x in dts):
        raise AlgebraError("dt list must contain positive values")
    if any(x2 >= x1 for x1, x2 in zip(dts, dts[1:])):
        raise AlgebraError("dt list must be strictly decreasing")

    ab = ref_multiply(rep.algebra, a.coeffs, b.coeffs)
    Ta, Tb, Tab = (np.einsum("i,ijk->jk", x, rep.mats) for x in (a.coeffs, b.coeffs, ab))
    residual = rel_residual(Ta @ Tb, Tab)
    if not residual <= rep.algebra.tol:
        raise SimulationError(f"product (residual {residual:.3e})")
    la, ka = rep.l_of(a), rep.k_of(a)
    lb, kdb = rep.l_of(b), rep.kdag_of(b)

    names = ("corner", "creation", "annihilation", "exchange")
    records = {name: [] for name in names}
    estimates: list[Estimate] = []
    for dt in dts:
        Ma = slot_increment(rep, a, dt)
        Mb = slot_increment(rep, b, dt)
        Mab = slot_increment(rep, ab, dt)
        D = Ma @ Mb - Mab
        targets = {
            "corner": abs(la * lb) * dt**2,
            "creation": abs(lb) * float(np.linalg.norm(ka)) * dt**1.5,
            "annihilation": abs(la) * float(np.linalg.norm(kdb)) * dt**1.5,
            "exchange": float(np.linalg.norm(np.outer(ka, kdb))) * dt,
        }
        values = {
            "corner": abs(D[0, 0]),
            "creation": float(np.linalg.norm(D[1:, 0])),
            "annihilation": float(np.linalg.norm(D[0, 1:])),
            "exchange": float(np.linalg.norm(D[1:, 1:])),
        }
        for name in names:
            records[name].append(values[name])
            estimates.append(
                Estimate(f"{name}_mismatch[dt={dt:g}]", values[name], None, targets[name])
            )

    slopes = {}
    for name in names:
        ys = np.array(records[name])
        keep = ys > 1e-13
        if keep.sum() >= 2:
            slopes[name] = float(np.polyfit(np.log(np.array(dts)[keep]), np.log(ys[keep]), 1)[0])
    return SimReport(
        kind="ito_product_check",
        inputs={"dts": dts, "a": str(a), "b": str(b)},
        seed=None,
        estimates=estimates,
        slopes=slopes,
    )
