"""Stochastic cross-validation of the algebraic multiplication tables.

Two independent routes back to the tables:

* a discrete Fock model: one slot space C + H per time step, where an
  element's increment is [[l(a) dt, kdag(a) sqrt(dt)], [k(a) sqrt(dt), i(a)]].
  Slot products match the table up to dt^2 (corner), dt^(3/2) (creation,
  annihilation) and dt (exchange).  Slots are tensor-independent, so a vacuum
  moment of a word sums over its set partitions pi: N!/(N-|pi|)! times the
  blocks' products on N slots, t^|pi| times the blocks' states in the limit.

* a classical Monte Carlo sampler for every commutative faithful algebra,
  driven by the Levy-Khinchin triplet read off the decomposition (Gaussian
  covariance and jump atoms), comparing E[dx dy]/dt against l(x.y).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .core import (
    AlgebraError, Element, ItoAlgebra, commutant_check, cutoff, gram_schmidt, null_space,
    pair_products,
)
from .decomp import Decomposition, decompose
from .gns import FundamentalRep, triangular

__all__ = [
    "Estimate",
    "SimReport",
    "SimulationError",
    "UnsupportedModelError",
    "classical_paths",
    "fit_loglog_slope",
    "ito_product_check",
    "slot_increment",
    "vacuum_moments",
]

CHUNK_BUDGET = 2**19   # doubles in one chunk of classical steps (4 MiB)
MAX_SAMPLES = 2**53    # largest n_paths * n_steps that the float divisor holds exactly
# largest mean count per cell that numpy's Generator.poisson accepts
MAX_POISSON_MEAN = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)


class SimulationError(AlgebraError):
    """Discrete model disagrees with its closed form; indicates broken input."""


class UnsupportedModelError(AlgebraError):
    """Classical sampling of a noncommutative table or a non-positive Brownian covariance."""


@dataclass
class Estimate:
    name: str
    value: complex
    stderr: float | None = None
    target: complex | None = None

    def _num(self, z):
        if z is None:
            return None
        z = complex(z)
        return z.real if z.imag == 0.0 else [z.real, z.imag]

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "value": self._num(self.value),
            "stderr": self.stderr,
            "target": self._num(self.target),
        }


@dataclass
class SimReport:
    kind: str
    inputs: dict
    seed: int | None
    estimates: list[Estimate]
    slopes: dict[str, float] = field(default_factory=dict)
    runtime_ms: float = 0.0

    def estimate(self, name: str) -> Estimate:
        for e in self.estimates:
            if e.name == name:
                return e
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "inputs": self.inputs,
            "seed": self.seed,
            "estimates": [e.to_dict() for e in self.estimates],
            "slopes": {k: v for k, v in self.slopes.items()},
            "runtime_ms": self.runtime_ms,
        }


def fit_loglog_slope(xs, ys, floor: float = 1e-13) -> float | None:
    """Least-squares slope of log(y) against log(x), ignoring values below floor."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    mask = ys > floor
    if int(mask.sum()) < 2:
        return None
    lx, ly = np.log(xs[mask]), np.log(ys[mask])
    slope = np.polyfit(lx, ly, 1)[0]
    return float(slope)


def slot_increment(rep: FundamentalRep, a: Element | np.ndarray, dt: float) -> np.ndarray:
    """Block matrix [[l dt, kdag sqrt(dt)], [k sqrt(dt), i]] of the element on C + H.

    It is triangular(a) without its first column and last row, the corner
    moved to (0, 0).  Linear in the element; the adjoint matrix is the
    increment of the starred element (sqrt(dt) for the field blocks, dt for
    the scalar, 1 for the exchange block).
    """
    if not dt > 0:
        raise AlgebraError("dt must be positive")
    T = triangular(rep, a)
    M = np.roll(T[:-1, 1:], 1, axis=1) * np.sqrt(dt)
    M[0, 0] = T[0, -1] * dt
    M[1:, 1:] = T[1:-1, 1:-1]
    return M


def ito_product_check(rep, a: Element, b: Element, dts) -> SimReport:
    """Blockwise mismatch of increment(a) increment(b) against increment(a.b).

    The corner mismatch is |l(a)l(b)| dt^2, the creation/annihilation blocks
    scale as dt^(3/2) and the exchange block as dt; log-log slopes of the
    recorded norms are fitted per block.
    """
    start = time.perf_counter()
    dts = [float(x) for x in dts]
    if not dts or any(x <= 0 for x in dts):
        raise AlgebraError("dt list must contain positive values")
    if any(x2 >= x1 for x1, x2 in zip(dts, dts[1:])):
        raise AlgebraError("dt list must be strictly decreasing")

    la, ka = rep.l_of(a), rep.k_of(a)
    lb, kdb = rep.l_of(b), rep.kdag_of(b)
    ab = a * b

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
        scale = max(1.0, float(np.max(np.abs(Ma))), float(np.max(np.abs(Mb))))
        for name in names:
            records[name].append(values[name])
            if not abs(values[name] - targets[name]) <= rep.algebra.tol * scale:
                raise SimulationError(f"{name} mismatch deviates from its closed form at dt={dt}")
            estimates.append(
                Estimate(f"{name}_mismatch[dt={dt:g}]", values[name], None, targets[name])
            )
        if not abs(complex(D[0, 0]) - la * lb * dt**2) <= rep.algebra.tol * scale:
            raise SimulationError("corner of the product is not l(a.b) dt + l(a)l(b) dt^2")

    slopes = {}
    for name in names:
        slope = fit_loglog_slope(dts, records[name])
        if slope is not None:
            slopes[name] = slope
    return SimReport(
        kind="ito_product_check",
        inputs={"dts": dts, "a": str(a), "b": str(b)},
        seed=None,
        estimates=estimates,
        slopes=slopes,
        runtime_ms=(time.perf_counter() - start) * 1e3,
    )


@cache
def _set_partitions(pos: tuple[int, ...]) -> tuple:
    """Set partitions of ``pos``, blocks as bitmasks: pos[-1] joins a block of pos[:-1] or is alone."""
    if not pos:
        return ((),)
    bit = 1 << pos[-1]
    return tuple(
        part[:b] + (part[b] | bit,) + part[b + 1 :] if b < len(part) else part + (bit,)
        for part in _set_partitions(pos[:-1])
        for b in range(len(part) + 1)
    )


def _vacuum_moment(mats, corner: tuple[int, int], scale: float, weight):
    """The map pos -> sum_pi weight(|pi|) prod_{B in pi} scale * (M_b1 ... M_bk)[corner].

    pi runs over the set partitions of the word positions ``pos``.  Row B of
    ``rows`` is row ``corner[0]`` of scale * M_b1 ... M_bk for the block with
    bitmask B: the row of B without its last position, times M_bk.
    """
    rows = np.zeros((2 ** len(mats), len(mats[0])), dtype=complex)
    rows[0, corner[0]] = scale
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported as inf/nan
        for m, M in enumerate(mats):
            rows[2**m : 2 ** (m + 1)] = rows[: 2**m] @ M
    value = rows[:, corner[1]].tolist()
    w = [weight(k) for k in range(len(mats) + 1)]
    return lambda pos: sum(
        w[len(part)] * math.prod(value[b] for b in part) for part in _set_partitions(pos)
    )


def vacuum_moments(rep: FundamentalRep, a: Element, t: float, n_slots: int) -> SimReport:
    """Moments of the summed slot process on N slots in the vacuum, with their large-N limits.

    A vacuum moment of a word is the sum over the set partitions pi of its
    positions of w(|pi|) prod_B corner(M_b1 ... M_bk): slot increments read at
    (0, 0) with w(k) = N!/(N-k)!, the k blocks placed on distinct slots, and
    for the target triangular matrices read at (0, -1), i.e. l(a_b1 ... a_bk),
    with w(k) = t^k.  Mean and second moment are exact for every N, the fourth
    is O(1/N) off; the cost does not depend on N.
    """
    start = time.perf_counter()
    if not t > 0:
        raise AlgebraError("t must be positive")
    if n_slots < 1:
        raise AlgebraError("n_slots must be >= 1")
    N, pair = int(n_slots), (a.star(), a)  # a Python int: N**k must not wrap
    # N!/(N-k)! = N^k (perm(N, k) / N^k): one N per block value keeps every factor finite
    value = _vacuum_moment([slot_increment(rep, x, t / N) for x in pair] * 2, (0, 0), N,
                           lambda k: math.perm(N, k) / N**k)
    target = _vacuum_moment([triangular(rep, x) for x in pair] * 2, (0, -1), t, lambda k: 1)
    # positions in the word (a*, a, a*, a): <X(a)>, |X(a) vac|^2 and |X(a*) X(a) vac|^2
    estimates = [Estimate("mean", value((1,)), None, target((1,)))]
    for name, pos in (("second_moment", (0, 1)), ("fourth_moment", (0, 1, 2, 3))):
        v, limit = value(pos).real, target(pos).real
        estimates.append(Estimate(name, v, None, limit))
        estimates.append(Estimate(f"{name}_deviation", v - limit, None, None))
    return SimReport(
        kind="vacuum_moments",
        inputs={"t": t, "n_slots": n_slots, "element": str(a)},
        seed=None,
        estimates=estimates,
        slopes={},
        runtime_ms=(time.perf_counter() - start) * 1e3,
    )


def _component_label(alg: ItoAlgebra, vec: np.ndarray, fallback: str) -> str:
    support = np.where(np.abs(vec) > cutoff(np.abs(vec), alg.tol))[0]
    if support.size == 1 and abs(vec[support[0]] - 1.0) <= alg.tol:
        return alg.labels[support[0]]
    return fallback


def _levy_khinchin(dec: Decomposition) -> tuple[list, list, np.ndarray, np.ndarray]:
    """Components and jump atoms of a commutative algebra: (brown, levy, jumps, rates).

    The components are the independent Hermitian parts (x + x*)/2 and
    (x - x*)/2i of the Brownian, then of the Levy zero-mean basis.  The atoms
    are the joint eigenvectors u_j of the commuting Hermitian i(x_p) on E H,
    from one eigh of a fixed generic combination of them.  Atom j moves
    component p by jumps[p, j] = <u_j, i(x_p) u_j> at rate
    rates[j] = |<u_j, k(x_p)>|^2 / jumps[p, j]^2, the same for every p that it
    moves (k(x_p . x_q) = i(x_p) k(x_q) is symmetric), here a ratio of sums
    over p.  The atoms are ordered stably by the first component they move.
    """
    alg, tol = dec.algebra, dec.algebra.tol

    def hermitian_parts(elems) -> list:
        pairs = [(e.coeffs, e.star().coeffs) for e in elems]
        rows = [v for x, xs in pairs for v in ((x + xs) / 2, (x - xs) / 2j)]
        return [rows[i] for i in gram_schmidt(rows, tol)[0]]

    brown, levy = hermitian_parts(dec.brownian_zero_mean), hermitian_parts(dec.levy_zero_mean)
    x = np.array(levy).reshape(len(levy), alg.dim)
    imats = np.tensordot(x, dec.rep.imats, 1)  # i(x_p)
    basis = null_space(dec.projector, tol).T  # orthonormal columns spanning E H
    mix = np.random.default_rng(0).standard_normal(len(levy))  # a fixed generic combination
    atoms = basis @ np.linalg.eigh(basis.conj().T @ np.tensordot(mix, imats, 1) @ basis)[1]
    jumps = np.einsum("dj,pde,ej->pj", atoms.conj(), imats, atoms).real
    moved = np.abs(jumps) > cutoff(np.abs(jumps), tol)
    first = np.sum(np.cumsum(moved, axis=0) == 0, axis=0)  # the first component each atom moves
    order = [j for j in np.argsort(first, kind="stable") if first[j] < len(levy)]
    amps = x @ dec.rep.kmat.T @ atoms[:, order].conj()  # <u_j, k(x_p)> = c_j jumps[p, j]
    jumps = jumps[:, order]
    return brown, levy, jumps, np.sum(np.abs(amps) ** 2, axis=0) / np.sum(jumps**2, axis=0)


def _jump_events(gens, lam: np.ndarray, k: int, n_paths: int) -> tuple[np.ndarray, np.ndarray]:
    """The cells step * n_paths + path of k steps where an atom jumps, and its counts there.

    Atom j with lam[j] <= 1 draws each step's total, Poisson(lam[j] n_paths),
    from gens[1 + j] and puts its events on uniform paths from gens[1 + na + j]:
    independent Poisson counts given their sum are multinomial (Kingman,
    Poisson Processes, 1993, section 2).  An atom with lam[j] > 1 draws a count
    per cell from gens[1 + j] and keeps the nonzero ones.  Returns the sorted
    cells with an event and their (na, cells) counts.
    """
    na = len(lam)
    # one (cell, count) entry per event or nonzero cell; the empty first entry,
    # atom -1, keeps the concatenation valid without atoms
    cells, counts = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for j in range(na):
        if lam[j] > 1:
            dense = gens[1 + j].poisson(lam[j], k * n_paths)
            cells.append(np.flatnonzero(dense))
            counts.append(dense[cells[-1]])
        else:
            per_step = gens[1 + j].poisson(lam[j] * n_paths, k)
            path = gens[1 + na + j].integers(0, n_paths, per_step.sum())
            cells.append(np.repeat(np.arange(k) * n_paths, per_step) + path)
            counts.append(np.ones_like(path))
    atom = np.repeat(np.arange(-1, na), [c.size for c in cells])
    cell, inverse = np.unique(np.concatenate(cells), return_inverse=True)
    table = np.zeros((na, cell.size))
    np.add.at(table, (atom, inverse), np.concatenate(counts))
    return cell, table


def classical_paths(
    alg: ItoAlgebra,
    t: float,
    dt: float,
    n_paths: int,
    seed: int,
) -> SimReport:
    """Sample classical increments and compare moments against the table.

    Supported inputs are every commutative faithful algebra.  Its
    Levy-Khinchin triplet is read off the decomposition: Gaussian increments
    with covariance l(x_p . x_q) dt drive the Brownian components, and
    compensated Poisson counts of the jump atoms (``_levy_khinchin``) drive
    the Levy components.

    Draw order: the 1 + 2 na streams are SFC64 generators on the children of
    ``SeedSequence(seed).spawn(1 + 2 na)``.  Stream 0 gives each step's
    normals z as one (nb, n_paths) block, and g = chol sqrt(dt) z.  Jump atom
    j with lam_j = rate_j * dt <= 1 draws the total of each step,
    Poisson(lam_j n_paths), from stream 1 + j and the paths of its events
    from stream 1 + na + j; with lam_j > 1 it draws a count per cell (step,
    path) from stream 1 + j.  Each stream is read step by step, so the draws
    are the same numbers for any chunking.  A cell without an event holds
    the constant c0 = -jumps . lam, so every sum is a closed form over the
    empty cells plus the exact values at the event cells: the Levy rows are
    never dense.  The Brownian sums come from one stacked Gram
    [g; g∘g][1; g; g∘g]^T per step, and every running sum takes its steps in
    order, so the report is bit-identical for every CHUNK_BUDGET.  Steps go
    in chunks of max(1, CHUNK_BUDGET // (n_paths * w)) for w = 1 + 3 nb
    doubles per cell plus, per cell, sum_j min(lam_j, 1) event entries of
    9 + 2 nc + na doubles each; the normals and rows of a chunk are two
    buffers allocated once.  Memory is a few chunks of CHUNK_BUDGET doubles
    plus O(n_paths * nc), whatever n_steps and the rates are.  At most
    MAX_SAMPLES = 2**53 samples n_paths * n_steps are taken, the largest
    count a float divisor holds exactly; more is an AlgebraError (CLI exit 2),
    raised before any work.  So is a mean count per cell above
    MAX_POISSON_MEAN (about 9.2e18), numpy's Poisson limit, raised before
    any draw.
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
    n_steps = int(round(t / dt))
    if n_paths * n_steps > MAX_SAMPLES:
        raise AlgebraError("n_paths * n_steps must not exceed 2**53")
    brown, levy, jumps, rates = _levy_khinchin(decompose(alg))
    nb, nz, na = len(brown), len(levy), len(rates)
    vectors = brown + levy
    moments = (pair_products(alg, vectors, vectors) @ alg.state).real  # [p, q] is l(x_p . x_q)
    try:
        chol = np.linalg.cholesky(moments[:nb, :nb] + np.eye(nb) * alg.tol)
    except np.linalg.LinAlgError as exc:
        raise UnsupportedModelError("Brownian covariance is not positive") from exc

    dt_eff = t / n_steps
    nc, r = nb + nz, 1 + 2 * nb  # r rows [1; g; g∘g] per cell for the Brownian Gram
    labels = [_component_label(alg, v, f"y{i}") for i, v in enumerate(brown)]
    labels += [_component_label(alg, v, f"z{j}") for j, v in enumerate(levy)]

    lam = rates * dt_eff  # mean count of atom j in one cell
    if not np.all(lam <= MAX_POISSON_MEAN):
        raise AlgebraError(
            f"a jump rate gives {np.max(lam):.3g} mean events per cell, above the Poisson "
            f"sampler's limit {MAX_POISSON_MEAN:.3g}; take a smaller dt"
        )
    empty = -(jumps @ lam)  # c0, the Levy value of a cell with no event
    gens = [np.random.Generator(np.random.SFC64(child))
            for child in np.random.SeedSequence(seed).spawn(1 + 2 * na)]
    gram = np.zeros((r - 1, r))  # sums over every cell of [g; g∘g][1; g; g∘g]^T
    # sums over the event cells of u u^T, u = [1; g; g∘g; x; x∘x]
    gram_ev = np.zeros((r + 2 * nz,) * 2)
    totals = np.zeros((nc, n_paths))
    occupied = np.zeros(n_paths, dtype=np.int64)  # event cells per path
    scaled = chol * np.sqrt(dt_eff)  # g = scaled @ z has covariance moments * dt per step
    # doubles held per cell: normals and rows, plus the arrays of each event
    # entry; an atom has at most one entry per cell and min(lam, 1) on average
    width = 1 + 3 * nb + float(np.minimum(lam, 1.0).sum()) * (9 + 2 * nc + na)
    chunk = max(1, int(CHUNK_BUDGET // (n_paths * width)))
    drawn = n_steps if nc else 0  # no components, no draws
    # a chunk's normals and its step-major rows [1; g; g∘g], allocated once
    z = np.empty((min(chunk, drawn), nb, n_paths))
    buf = np.empty((len(z), r, n_paths))
    buf[:, 0] = 1.0
    for first in range(0, drawn, chunk):
        k = min(chunk, n_steps - first)
        rows = buf[:k]
        np.matmul(scaled, gens[0].standard_normal(out=z[:k]), out=rows[:, 1 : 1 + nb])
        np.square(rows[:, 1 : 1 + nb], out=rows[:, 1 + nb :])
        # one Gram per step, the same numbers for any k; two distinct views make
        # numpy call gemm, which is 7x faster than syrk at this shape
        grams = rows[:, 1:] @ rows.swapaxes(1, 2)
        cell, counts = _jump_events(gens, lam, k, n_paths)
        step, path = np.divmod(cell, n_paths)
        ev = np.empty((cell.size, r + 2 * nz))  # event cells: [1, g, g∘g, x, x∘x]
        ev[:, :r] = rows[step, :, path]
        x = ev[:, r : r + nz]
        x[:] = empty
        for j in range(na):
            x += np.outer(counts[j], jumps[:, j])
        np.square(x, out=ev[:, r + nz :])
        bounds = np.searchsorted(step, np.arange(k + 1))
        for s in range(k):  # every running sum takes its steps in order
            gram += grams[s]
            totals[:nb] += rows[s, 1 : 1 + nb]
            e = ev[bounds[s] : bounds[s + 1]]
            gram_ev += e.T @ e
        np.add.at(occupied, path, 1)
        for q in range(nz):
            np.add.at(totals[nb + q], path, x[:, q])
    del z  # freed before the closed forms below, whose temporaries are the peak

    n_samples = n_paths * n_steps
    totals[nb:] += np.outer(empty, n_steps - occupied)  # the cells with no event hold c0
    # sums of [1; g; g∘g] over the cells with no event, times [x; x∘x] = [c0; c0∘c0] there
    rest = np.r_[n_samples, gram[:, 0]] - gram_ev[:r, 0]
    lev0 = np.r_[empty, empty**2]
    mixed = gram_ev[1:r, r:] + np.outer(rest[1:], lev0)  # [g; g∘g][x; x∘x]^T
    jump = gram_ev[r:, r:] + rest[0] * np.outer(lev0, lev0)  # [x; x∘x][x; x∘x]^T
    pair_sum = np.block([[gram[:nb, 1 : 1 + nb], mixed[:nb, :nz]],
                         [mixed[:nb, :nz].T, jump[:nz, :nz]]])
    pair_sumsq = np.block([[gram[nb:, 1 + nb :], mixed[nb:, nz:]],
                           [mixed[nb:, nz:].T, jump[nz:, nz:]]])

    estimates: list[Estimate] = []
    for p in range(nc):
        x = totals[p]
        m = float(np.mean(x))
        var = float(np.var(x, ddof=1))
        centered = x - m
        m2 = float(np.mean(centered**2))
        m4 = float(np.mean(centered**4))
        var_se = float(np.sqrt(max(m4 - m2**2, 0.0) / n_paths))
        mean_se = math.sqrt(var) / math.sqrt(n_paths)
        estimates.append(Estimate(f"mean[{labels[p]}]", m, mean_se, 0.0))
        estimates.append(Estimate(f"var[{labels[p]}]", var, var_se, float(moments[p, p]) * t))
        for q in range(p, nc):
            mean_pq = pair_sum[p, q] / n_samples
            var_pq = pair_sumsq[p, q] / n_samples - mean_pq**2
            se = float(np.sqrt(max(var_pq, 0.0) / n_samples)) / dt_eff
            name = f"cov[{labels[p]},{labels[q]}]"
            estimates.append(Estimate(name, mean_pq / dt_eff, se, float(moments[p, q])))

    return SimReport(
        kind="classical_paths",
        inputs={"t": t, "dt": dt_eff, "n_paths": n_paths, "n_steps": n_steps},
        seed=seed,
        estimates=estimates,
        slopes={},
        runtime_ms=(time.perf_counter() - start) * 1e3,
    )
