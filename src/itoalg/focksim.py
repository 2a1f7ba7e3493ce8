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
    AlgebraError, Check, Element, ItoAlgebra, Report, commutant_check, cutoff, gram_schmidt,
    numerical_rank, pair_products, rel_residual,
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

CHUNK_BUDGET = 2**19   # doubles in one event block of classical steps (4 MiB)
MAX_SAMPLES = 2**53    # largest n_paths * n_steps that the float divisor holds exactly
# largest mean count per cell that numpy's Generator.poisson accepts
MAX_POISSON_MEAN = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)
# the var error sums n_paths (v z^2)^2 for a path total's variance v and standard scores z;
VAR_HEADROOM = 32.0  # the sum is finite while the mean of z^4 is up to 32^2 (Gaussian: 3)


class SimulationError(AlgebraError):
    """triangular(a) triangular(b) is not triangular(a.b) in ``ito_product_check``; broken input."""


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


def fit_loglog_slope(xs, ys, floor: float = 1e-13) -> float | None | list[float | None]:
    """Least-squares slope of log(y) against log(x), ignoring values below floor.

    ``ys`` is one row or a stack of rows, and ``xs`` broadcasts against it;
    a stack gives a list with one slope per row.  The slope is the closed
    form sum dx dy / sum dx^2 over the kept points, dx and dy the logs less
    their means.  A row is None when fewer than two points are kept or the
    kept log xs are all equal.
    """
    ys = np.asarray(ys, dtype=float)
    keep = ys > floor
    n = np.maximum(keep.sum(axis=-1, keepdims=True), 1)
    lx = np.where(keep, np.log(np.asarray(xs, dtype=float)), 0.0)
    ly = np.log(np.where(keep, ys, 1.0))  # 0 where not kept
    dx = np.where(keep, lx - lx.sum(axis=-1, keepdims=True) / n, 0.0)
    dy = np.where(keep, ly - ly.sum(axis=-1, keepdims=True) / n, 0.0)
    spread = np.where(keep, lx, -np.inf).max(axis=-1) > np.where(keep, lx, np.inf).min(axis=-1)
    sxy, sxx = (dx * dy).sum(axis=-1).tolist(), (dx * dx).sum(axis=-1).tolist()
    if ys.ndim == 1:
        return sxy / sxx if spread else None
    return [s / q if ok else None for s, q, ok in zip(sxy, sxx, spread.tolist())]


def _increments(T: np.ndarray, dts) -> np.ndarray:
    """The (len(dts), ..., h+1, h+1) slot increments of the elements with triangular matrices T.

    ``T`` is one triangular matrix or a stack of them, (..., h+2, h+2).  The
    increment at dt is diag(sqrt(dt), 1, ...) B diag(sqrt(dt), 1, ...) with
    B = [[l, kdag], [k, i]] read from T = [[0, kdag, l], [0, i, k],
    [0, 0, 0]]: the corner is l dt, the field blocks carry sqrt(dt).
    """
    dts = np.asarray(dts, dtype=float)
    dt = dts.reshape(dts.shape + (1,) * (T.ndim - 2))  # one dt per leading entry of the result
    root = np.sqrt(dt)[..., np.newaxis]
    M = np.empty(dt.shape[:1] + T.shape[:-2] + (T.shape[-1] - 1,) * 2, dtype=np.result_type(T, dts))
    M[..., 0, 0] = T[..., 0, -1] * dt
    M[..., 0, 1:] = T[..., 0, 1:-1] * root
    M[..., 1:, 0] = T[..., 1:-1, -1] * root
    M[..., 1:, 1:] = T[..., 1:-1, 1:-1]
    return M


def slot_increment(rep: FundamentalRep, a: Element | np.ndarray, dt: float) -> np.ndarray:
    """Block matrix [[l dt, kdag sqrt(dt)], [k sqrt(dt), i]] of the element on C + H.

    It is diag(sqrt(dt), 1, ...) B diag(sqrt(dt), 1, ...), where
    B = [[l, kdag], [k, i]] is triangular(a) without its first column and
    last row, the corner moved to (0, 0).  Linear in the element; the
    adjoint matrix is the increment of the starred element (sqrt(dt) for the
    field blocks, dt for the scalar, 1 for the exchange block).
    """
    if not dt > 0:
        raise AlgebraError("dt must be positive")
    if not math.isfinite(dt):
        raise AlgebraError(f"dt={dt} is not finite")
    return _increments(triangular(rep, a), [dt])[0]


def ito_product_check(rep, a: Element, b: Element, dts) -> SimReport:
    """Blockwise mismatch of increment(a) increment(b) against increment(a.b), per dt.

    With M the increment, e0 the vacuum coordinate and T the triangular
    matrix, M(a)M(b) - M(a.b) = M(a) e0 e0^T M(b) + incr(T(a)T(b) - T(a.b)).
    The first term is the closed form, recorded as the targets: corner
    |l(a)l(b)| dt^2, creation/annihilation dt^(3/2), exchange dt, with
    log-log slopes fitted per block.  So the one verdict is the ``product``
    check rel_residual(T(a)T(b), T(a.b)) at the algebra's tol, raised as a
    SimulationError before any dt is formed; every dt is then one slice of a
    stacked product.  A dt that is not finite, or at which a mismatch or its
    closed form is not finite, is an AlgebraError.
    """
    start = time.perf_counter()
    dts = [float(x) for x in dts]
    if not dts or any(x <= 0 for x in dts):
        raise AlgebraError("dt list must contain positive values")
    for dt in dts:
        if not math.isfinite(dt):
            raise AlgebraError(f"dt={dt} is not finite")
    if any(x2 >= x1 for x1, x2 in zip(dts, dts[1:])):
        raise AlgebraError("dt list must be strictly decreasing")

    Ta, Tb, Tab = (triangular(rep, e) for e in (a, b, a * b))
    la, lb = Ta[0, -1], Tb[0, -1]
    x = np.array(dts)
    with np.errstate(all="ignore"):  # a non-finite product fails its check; a mismatch, below
        product = Check("product", rel_residual(Ta @ Tb, Tab))
        Report((product,), rep.algebra.tol).require(
            SimulationError, "triangular(a) triangular(b) is not triangular(a.b)")
        D = _increments(Ta, x) @ _increments(Tb, x) - _increments(Tab, x)
        sq = D.real**2 + D.imag**2
        values = np.empty((len(dts), 4))
        values[:, 0] = np.abs(D[:, 0, 0])
        values[:, 1] = np.sqrt(sq[:, 1:, 0].sum(axis=1))
        values[:, 2] = np.sqrt(sq[:, 0, 1:].sum(axis=1))
        values[:, 3] = np.sqrt(sq[:, 1:, 1:].sum(axis=(1, 2)))
        ka, kdb = np.linalg.norm(Ta[1:-1, -1]), np.linalg.norm(Tb[0, 1:-1])  # |k(a)|, |kdag(b)|
        rates = np.array([abs(la * lb), abs(lb) * ka, abs(la) * kdb, ka * kdb])
        targets = rates * x[:, None] ** np.array([2.0, 1.5, 1.5, 1.0])
    finite = np.isfinite(values).all(axis=1) & np.isfinite(targets).all(axis=1)
    if not finite.all():
        raise AlgebraError(f"dt={dts[np.argmin(finite)]} is out of range: "
                           "a product mismatch or its closed form is not finite there")
    names = ("corner", "creation", "annihilation", "exchange")
    estimates = [
        Estimate(f"{name}_mismatch[dt={dt:g}]", v, None, t)
        for dt, vs, ts in zip(dts, values.tolist(), targets.tolist())
        for name, v, t in zip(names, vs, ts)
    ]
    fitted = fit_loglog_slope(x, values.T)
    return SimReport(
        kind="ito_product_check",
        inputs={"dts": dts, "a": str(a), "b": str(b)},
        seed=None,
        estimates=estimates,
        slopes={name: s for name, s in zip(names, fitted) if s is not None},
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


def _corner_products(mats: list[np.ndarray], corner: tuple[int, int], scale) -> list[list[complex]]:
    """Entry ``corner`` of scale * M_b1 ... M_bk for every subset {b1 < ... < bk} of the positions.

    ``mats`` holds one stack of S matrices per word position; the result
    holds S rows, each with the value of the subset with bitmask B at B.
    Row B of an element's (2^m, d) block is row ``corner[0]`` of
    scale * M_b1 ... M_bk: the row of B without its last position, times
    M_bk, so the m positions are m batched matmuls.
    """
    S, d = len(mats[0]), mats[0].shape[-1]
    rows = np.zeros((S, 2 ** len(mats), d), dtype=complex)
    rows[:, 0, corner[0]] = scale
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported as inf/nan
        for m, M in enumerate(mats):
            rows[:, 2**m : 2 ** (m + 1)] = rows[:, : 2**m] @ M
    return rows[:, :, corner[1]].tolist()


def _partition_sum(value: list[complex], weights: list, pos: tuple[int, ...]):
    """sum_pi weights[|pi|] prod_{B in pi} value[B] over the set partitions pi of positions ``pos``."""
    return sum(weights[len(part)] * math.prod(map(value.__getitem__, part))
               for part in _set_partitions(pos))


def _vacuum_reports(rep: FundamentalRep, X: np.ndarray, t: float, n_slots: int,
                    names: list[str]) -> list[SimReport]:
    """The ``vacuum_moments`` report of every coefficient row of ``X`` (S, n), named ``names``.

    triangular(x*) and triangular(x) of every row come from one product with
    ``rep.mats``, row by row as ``triangular`` forms them, and the corner
    values of the word (a*, a, a*, a) from ``_corner_products`` on their
    stacks; the set-partition sums are a Python loop over each row's values.
    Every report's ``runtime_ms`` is the call's wall time over S.
    """
    start = time.perf_counter()
    if not t > 0:
        raise AlgebraError("t must be positive")
    if not math.isfinite(t):
        raise AlgebraError(f"t={t} is not finite")
    if n_slots < 1:
        raise AlgebraError("n_slots must be >= 1")
    N, alg = int(n_slots), rep.algebra  # a Python int: N**k must not wrap
    X = X[:, np.newaxis]  # rows of one: each product below is formed as for a single element
    pair = np.concatenate([np.conj(X) @ alg.star, X])  # x* then x
    mats = (pair @ rep.mats.reshape(alg.dim, -1)).reshape((2, len(X)) + rep.mats.shape[1:])
    # N!/(N-k)! = N^k (perm(N, k) / N^k): one N per block value keeps every factor finite
    values = _corner_products([*_increments(mats, [t / N])[0]] * 2, (0, 0), N)
    targets = _corner_products([*mats] * 2, (0, -1), t)
    slot_weights, limit_weights = [math.perm(N, k) / N**k for k in range(5)], [1] * 5
    reports = []
    for name, value, target in zip(names, values, targets):
        # positions in the word (a*, a, a*, a): <X(a)>, |X(a) vac|^2 and |X(a*) X(a) vac|^2
        estimates = [Estimate("mean", _partition_sum(value, slot_weights, (1,)), None,
                              _partition_sum(target, limit_weights, (1,)))]
        for moment, pos in (("second_moment", (0, 1)), ("fourth_moment", (0, 1, 2, 3))):
            v = _partition_sum(value, slot_weights, pos).real
            limit = _partition_sum(target, limit_weights, pos).real
            estimates.append(Estimate(moment, v, None, limit))
            estimates.append(Estimate(f"{moment}_deviation", v - limit, None, None))
        inputs = {"t": t, "n_slots": n_slots, "element": name}
        reports.append(SimReport(kind="vacuum_moments", inputs=inputs, seed=None, estimates=estimates))
    runtime_ms = (time.perf_counter() - start) * 1e3 / len(reports)
    for report in reports:
        report.runtime_ms = runtime_ms
    return reports


def vacuum_moments(rep: FundamentalRep, a: Element, t: float, n_slots: int) -> SimReport:
    """Moments of the summed slot process on N slots in the vacuum, with their large-N limits.

    A vacuum moment of a word is the sum over the set partitions pi of its
    positions of w(|pi|) prod_B corner(M_b1 ... M_bk): slot increments read at
    (0, 0) with w(k) = N!/(N-k)!, the k blocks placed on distinct slots, and
    for the target triangular matrices read at (0, -1), i.e. l(a_b1 ... a_bk),
    with w(k) = t^k.  Mean and second moment are exact for every N, the fourth
    is O(1/N) off; the cost does not depend on N.  This is the stack of one
    of the kernel ``_vacuum_reports``, which ``simulate --model fock`` runs
    on every basis element at once.
    """
    coeffs = rep.algebra.coeffs_of(a)
    return _vacuum_reports(rep, coeffs[np.newaxis], t, n_slots, [str(a)])[0]


def _component_label(alg: ItoAlgebra, vec: np.ndarray, fallback: str) -> str:
    support = np.where(np.abs(vec) > cutoff(np.abs(vec), alg.tol))[0]
    if support.size == 1 and rel_residual(vec[support[0]], 1.0) <= alg.tol:
        return alg.labels[support[0]]
    return fallback


def _levy_khinchin(dec: Decomposition) -> tuple[list, list, np.ndarray, np.ndarray]:
    """Components and jump atoms of a commutative algebra: (brown, levy, jumps, rates).

    The components are the independent Hermitian parts (x + x*)/2 and
    (x - x*)/2i of the Brownian, then of the Levy zero-mean basis.  The atoms
    are the joint eigenvectors u_j of the commuting Hermitian i(x_p), from one
    eigh of a fixed generic combination of them on all of H; the vectors in
    P H, where every i(x) vanishes, move nothing and are cut.  Atom j moves
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
    mix = np.random.default_rng(0).standard_normal(len(levy))  # a fixed generic combination
    atoms = np.linalg.eigh(np.tensordot(mix, imats, 1))[1]
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
    cells with an event and their (na, cells) counts, as floats for every block.
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
    # whole counts: their sums are exact in any order; bincount of no cells gives integers
    table = np.bincount(atom * cell.size + inverse, np.concatenate(counts), na * cell.size)
    return cell, table.astype(float, copy=False).reshape(na, cell.size)


def _gaussian(gen: np.random.Generator, count: int, factor: np.ndarray) -> np.ndarray:
    """``count`` rows g = factor z from ``gen``, each z one row of standard normals."""
    return gen.standard_normal((count, len(factor))) @ factor.T


def _wishart(gen: np.random.Generator, df: int, factor: np.ndarray) -> np.ndarray:
    """A draw of sum_k g_k g_k^T over df independent rows g_k of ``_gaussian``.

    Bartlett's decomposition draws it as factor A A^T factor^T, with A lower
    triangular, A_ii^2 ~ chi^2(df - i) and standard normals below the
    diagonal, drawn in that order from ``gen`` (Odell and Feiveson, JASA 61,
    1966).  Below df = dim the last chi^2(df - i) would have no degrees of
    freedom, so the df rows are drawn and summed as they are.
    """
    dim = len(factor)
    if df < dim:
        g = _gaussian(gen, df, factor)
        return g.T @ g
    a = np.zeros((dim, dim))
    a[np.diag_indices(dim)] = np.sqrt(gen.chisquare(df - np.arange(dim)))
    a[np.tril_indices(dim, -1)] = gen.standard_normal(dim * (dim - 1) // 2)
    la = factor @ a
    return la @ la.T


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
    g with covariance l(x_p . x_q) dt drive the Brownian components, and
    compensated Poisson counts of the jump atoms (``_levy_khinchin``) drive
    the Levy components.  The Brownian parts are independent Hermitian
    elements of a faithful table, so their covariance is positive definite;
    chol is the Cholesky factor of the covariance itself, with no jitter,
    and a failed factorization is an UnsupportedModelError.

    The report reads only first- and second-order sums over the N cells
    (step, path): each path's total and sum_cells y y^T.  A cell whose atoms
    fire n times (a count vector) holds the Levy value x = c0 + jumps n,
    c0 = -jumps . lam.  The sums take the counts as d = n - m, m = floor(lam),
    so that sums of large counts do not cancel: x = c1 + jumps d with
    c1 = jumps (m - lam).  Then the Levy sums need only whole numbers: the
    per-path sums H of d and D2 = sum_cells d d^T.  The pair sums are
    N c1 c1^T + c1 nu^T + nu c1^T + jumps D2 jumps^T, nu = jumps sum_p H_p,
    and a path total is n_steps c1 + jumps H_p.  The Brownian g enter only
    through A^T g and sum g g^T, where the design A = [path indicators | d]
    has Gram [[n_steps I, H^T], [H, D2]].  For Gaussian rows g that pair has
    a closed law (Cochran): with v and z rows of N(0, C dt), C =
    l(x_p . x_q) over the Brownian parts, the path totals are
    S_p = sqrt(n_steps) v_p, G = sum_cells d g^T = H v / sqrt(n_steps) + F z
    with F F^T = M = D2 - H H^T / n_steps (an eigh; k = numerical_rank of its
    eigenvalues), and sum g g^T = v^T v + z^T z + an independent
    Wishart(N - n_paths - k, C dt), drawn by ``_wishart``.  The cross sums
    are (sum_p S_p) c1^T + G^T jumps^T.  So g is never drawn per cell, and
    the cost grows with n_paths and the events, not with n_steps.

    Draw order: the 1 + 2 na streams are SFC64 generators on the children of
    ``SeedSequence(seed).spawn(1 + 2 na)``.  Jump atom j with
    lam_j = rate_j * dt <= 1 draws the total of each step,
    Poisson(lam_j n_paths), from stream 1 + j and the paths of its events
    from stream 1 + na + j; with lam_j > 1 it draws a count per cell from
    stream 1 + j.  After the jumps, stream 0 gives v (n_paths rows), then z
    (k rows), then the Wishart draw (nb chi-squares and the normals below
    the diagonal, or its df rows when df < nb).  The event blocks add only
    whole numbers, exact in any order below 2**53, and the one float sum,
    sum x^4 over the cells with an event, is a cumsum in cell order carried
    from block to block; the cells without one add m m^T and c0^4 each.  So
    the report is bit-identical for every CHUNK_BUDGET.

    Errors come from the law being sampled.  The per-cell variance of
    y_p y_q is k4_ppqq + C_pp C_qq + C_pq^2, with C the sampled per-cell
    covariance and k4_ppqq = sum_j lam_j jumps[p, j]^2 jumps[q, j]^2 from
    the triplet (0 when p or q is Brownian).  The exception is the Levy
    diagonal, which keeps the sampled sum of x^4: it is the one witness of
    the jump law in the report (a Gaussian step with the same covariance
    has the same second moments), and the law's k4 would hide a wrong one.

    The jump events are drawn in event blocks of
    CHUNK_BUDGET // (n_paths * e) steps, where a cell holds on average
    e = sum_j min(lam_j, 1) event entries of 9 + 2 na + 3 nz doubles each
    (2 na for the counts and d, 3 nz for the x^4 rows and their running
    cumsum; a block is charged at least one double per step, for its
    per-step counts).  Memory
    is a few CHUNK_BUDGETs of doubles plus O(n_paths * nc), whatever n_steps
    and the rates are.  At most MAX_SAMPLES = 2**53 samples
    n_paths * n_steps are taken, the largest count a float divisor holds
    exactly; more is an AlgebraError (CLI exit 2), raised before any work.
    So is a mean count per cell above MAX_POISSON_MEAN (about 9.2e18),
    numpy's Poisson limit, and a path total's variance t l(x_p . x_p) above
    sqrt(max float / n_paths) / VAR_HEADROOM; both are raised before any draw.
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
        chol = np.linalg.cholesky(moments[:nb, :nb])
    except np.linalg.LinAlgError as exc:
        raise UnsupportedModelError("Brownian covariance is not positive") from exc

    dt_eff = t / n_steps
    nc = nb + nz
    labels = [_component_label(alg, v, f"y{i}") for i, v in enumerate(brown)]
    labels += [_component_label(alg, v, f"z{j}") for j, v in enumerate(levy)]

    lam = rates * dt_eff  # mean count of atom j in one cell
    if not np.all(lam <= MAX_POISSON_MEAN):
        raise AlgebraError(
            f"a jump rate gives {np.max(lam):.3g} mean events per cell, above the Poisson "
            f"sampler's limit {MAX_POISSON_MEAN:.3g}; take a smaller dt"
        )
    variance = float(np.max(np.abs(np.diag(moments)), initial=0.0)) * t  # the widest path total's
    if not variance <= math.sqrt(np.finfo(float).max / n_paths) / VAR_HEADROOM:
        raise AlgebraError(f"a path total has variance {variance:.3g}: its var error would overflow")
    empty = -(jumps @ lam)  # c0, the Levy value of a cell with no event
    # the sums take the counts as d = n - base, whole numbers near 0, so they do not cancel
    base = np.floor(lam)
    offset = jumps @ (base - lam)  # the Levy value of a cell with d = 0
    gens = [np.random.Generator(np.random.SFC64(child))
            for child in np.random.SeedSequence(seed).spawn(1 + 2 * na)]
    scaled = chol * np.sqrt(dt_eff)  # g = scaled @ z has covariance moments * dt per cell
    hits = np.zeros((na, n_paths))  # events of each atom per path
    counts_gram = np.zeros((na, na))  # D2, the sum over the cells of d d^T
    fourth = np.zeros(nz)  # the sum of x^4 over the cells with an event, in cell order
    listed = 0  # cells with an event
    # doubles per event entry (at most one per atom and cell, min(lam, 1) on average):
    # the event arrays, counts and d, and per Levy component x^4, its copy and cumsum;
    # a block also holds per-step counts, so it is charged at least one double per step
    events = float(np.minimum(lam, 1.0).sum()) * (9 + 2 * na + 3 * nz)
    block = max(1, int(CHUNK_BUDGET // max(n_paths * events, 1)))
    for block_start in range(0, n_steps if na else 0, block):
        cell, counts = _jump_events(gens, lam, min(block, n_steps - block_start), n_paths)
        path = cell % n_paths
        for j in range(na):
            hits[j] += np.bincount(path, counts[j], n_paths)
        d = counts - base[:, None]
        counts_gram += d @ d.T  # whole numbers: exact in any order below 2**53
        listed += cell.size
        x4 = np.square(np.square(jumps @ d + offset[:, None]))  # ** 4 calls pow per element
        # cumsum adds in cell order onto the running sum, wherever the blocks end
        fourth = np.cumsum(np.hstack([fourth[:, None], x4]), axis=1)[:, -1]

    n_samples = n_paths * n_steps
    eventless = n_samples - listed  # cells with d = -base and the Levy value c0
    counts_gram += eventless * np.outer(base, base)
    fourth += eventless * empty**4  # the sum of x^4 per Levy component
    hits -= n_steps * base[:, None]  # the sum of d over the cells of each path
    # the law of (A^T g, sum g g^T); M = F F^T is the Gram of d outside the paths' span
    schur, basis = np.linalg.eigh(counts_gram - hits @ hits.T / n_steps)  # M, ascending
    k = min(numerical_rank(schur, alg.tol), n_samples - n_paths)  # rank A <= N despite rounding
    factor = basis[:, na - k :] * np.sqrt(schur[na - k :])  # F
    v = _gaussian(gens[0], n_paths, scaled)
    z = _gaussian(gens[0], k, scaled)
    scatter = v.T @ v + z.T @ z + _wishart(gens[0], n_samples - n_paths - k, scaled)
    weighted = hits @ v / math.sqrt(n_steps) + factor @ z  # G = sum_c d_c g_c^T
    # path totals: S_p, and n_steps times the value at d = 0 plus the jumps times the d
    totals = np.vstack([v.T * math.sqrt(n_steps), jumps @ hits + (n_steps * offset)[:, None]])
    nu = jumps @ hits.sum(axis=1)
    cross = np.outer(totals[:nb].sum(axis=1), offset) + weighted.T @ jumps.T
    levy_pairs = (n_samples * np.outer(offset, offset) + np.outer(offset, nu)
                  + np.outer(nu, offset) + jumps @ counts_gram @ jumps.T)
    pair_sum = np.block([[scatter, cross], [cross.T, levy_pairs]])

    # per-cell covariance C and variance of y_p y_q: k4_ppqq + C_pp C_qq + C_pq^2
    cov = pair_sum / n_samples
    cell_var = np.outer(np.diag(cov), np.diag(cov)) + cov**2
    cell_var[nb:, nb:] += (jumps**2 * lam) @ (jumps**2).T
    levy_diag = np.arange(nb, nc)
    cell_var[levy_diag, levy_diag] = fourth / n_samples - np.diag(cov)[nb:] ** 2

    estimates: list[Estimate] = []
    for p in range(nc):
        x = totals[p]
        m = float(np.mean(x))
        var = float(np.var(x, ddof=1))
        centered = x - m
        m2 = float(np.mean(centered**2))
        m4 = float(np.mean(np.square(centered**2)))  # ** 4 calls pow per element
        # Var(s^2) = (mu4 - sigma^4) / n + 2 sigma^4 / (n (n - 1)): at n = 2, m4 = m2^2
        var_se = math.sqrt(max(m4 - m2**2, 0.0) / n_paths + 2 * m2**2 / (n_paths * (n_paths - 1)))
        mean_se = math.sqrt(var) / math.sqrt(n_paths)
        estimates.append(Estimate(f"mean[{labels[p]}]", m, mean_se, 0.0))
        estimates.append(Estimate(f"var[{labels[p]}]", var, var_se, float(moments[p, p]) * t))
        for q in range(p, nc):
            se = float(np.sqrt(max(cell_var[p, q], 0.0) / n_samples)) / dt_eff
            name = f"cov[{labels[p]},{labels[q]}]"
            estimates.append(Estimate(name, float(cov[p, q]) / dt_eff, se, float(moments[p, q])))

    return SimReport(
        kind="classical_paths",
        inputs={"t": t, "dt": dt_eff, "n_paths": n_paths, "n_steps": n_steps},
        seed=seed,
        estimates=estimates,
        slopes={},
        runtime_ms=(time.perf_counter() - start) * 1e3,
    )
