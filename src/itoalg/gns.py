"""Canonical triangular representation of a faithful Ito *-algebra.

The state factors through a Hilbert space: the Gram matrix
``H[i,j] = l(a_i* . a_j)`` is diagonalized, its numerically positive
eigenspace is the representation space, and each basis element receives the
quadruple ``(l, k, kdag, i)`` with

    l(a . b) = kdag(a) k(b)        k(a . b) = i(a) k(b)
    kdag(a) = k(a*)^dag            i(a*) = i(a)^dag

The quadruple fills the triangular matrix [[0, kdag, l], [0, i, k], [0, 0, 0]]
on the complex Minkowski space C + H + C, where the involution becomes
M -> G M^dag G for the metric G that swaps the corner coordinates.
``FundamentalRep.mats`` stacks these matrices, one per basis element, and is
the only copy of the quadruples: ``kmat``, ``kdmat`` and ``imats`` are views
of it, and ``triangular(rep, a)`` is one product of the coefficients with it.

The algebra is faithful iff a -> triangular(a) is injective: its kernel is
the faithfulness ideal, since l(a . x) = <k(a*), k(x)>,
l(x . a) = conj<k(a), k(x*)> and l(a . x . c) = kdag(a) i(x) k(c).
``construct_gns`` runs once per algebra object, through the cached
``ItoAlgebra.gns``; its ``kernel`` is that ideal.

The representation is unique only up to unitaries on the middle block; this
module pins one representative: eigenbasis ordered by descending eigenvalue,
degeneracies aligned to the lowest contributing basis index, phases chosen to
make each eigenvector's largest component real positive.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core import (
    AlgebraError,
    Element,
    ItoAlgebra,
    cutoff,
    gram_matrix,
    gram_schmidt,
    null_space,
    numerical_rank,
    pin_phase,
    rel_residual,
    rel_residuals,
    row_products,
    worst_residual,
)

__all__ = [
    "BStarReport",
    "FundamentalRep",
    "NonFaithfulError",
    "RepresentationError",
    "Seminorms",
    "build_representation",
    "construct_gns",
    "minkowski_adjoint",
    "minkowski_metric",
    "seminorms",
    "triangular",
    "verify_bstar",
]


class RepresentationError(AlgebraError):
    """Structure constants inconsistent with a representation (axioms violated upstream)."""


class NonFaithfulError(AlgebraError):
    """Algebra has a nontrivial faithfulness ideal; quotient it first."""


@dataclass(frozen=True, eq=False)
class FundamentalRep:
    """The triangular matrix of every basis element plus the kept Gram eigenvalues.

    ``mats[i]`` is triangular(a_i) = [[0, kdag, l], [0, i, k], [0, 0, 0]],
    stored once.  ``hdim`` is read from its shape, and ``kmat`` (column i is
    k(a_i)), ``kdmat`` (row i is the covector kdag(a_i)) and ``imats`` (the
    operators i(a_i)) are read-only views of it.
    """

    algebra: ItoAlgebra
    mats: np.ndarray       # (n, hdim + 2, hdim + 2)
    eigenvalues: np.ndarray

    def __post_init__(self):
        self.mats.setflags(write=False)
        self.eigenvalues.setflags(write=False)

    @property
    def hdim(self) -> int:
        return self.mats.shape[1] - 2

    @property
    def kmat(self) -> np.ndarray:
        return self.mats[:, 1:-1, -1].T

    @property
    def kdmat(self) -> np.ndarray:
        return self.mats[:, 0, 1:-1]

    @property
    def imats(self) -> np.ndarray:
        return self.mats[:, 1:-1, 1:-1]

    def _coeffs(self, a: Element | np.ndarray) -> np.ndarray:
        if isinstance(a, Element):
            if a.algebra.dim != self.algebra.dim:
                raise AlgebraError("element does not belong to the represented algebra")
            return a.coeffs
        return np.asarray(a, dtype=complex)

    def l_of(self, a) -> complex:
        return complex(triangular(self, a)[0, -1])

    def k_of(self, a) -> np.ndarray:
        return triangular(self, a)[1:-1, -1]

    def kdag_of(self, a) -> np.ndarray:
        return triangular(self, a)[0, 1:-1]

    def i_of(self, a) -> np.ndarray:
        return triangular(self, a)[1:-1, 1:-1]

    @cached_property
    def kernel(self) -> np.ndarray:
        """Orthonormal rows spanning the kernel of a -> triangular(a), phases pinned.

        This is the faithfulness ideal, the null space of ``_block_columns``;
        the rank decision is ``numerical_rank`` on its singular values.
        """
        null = null_space(_block_columns(self.mats).T, self.algebra.tol)
        out = np.array([pin_phase(row) for row in null], dtype=complex).reshape(-1, self.algebra.dim)
        out.setflags(write=False)
        return out


def _block_columns(mats: np.ndarray) -> np.ndarray:
    """Row i: the block [[kdag, l], [i, k]] of the triangular ``mats[i]``, column by column.

    The block leaves out the first column and the last row, which are zero.
    Column order (kdag and i a column at a time, then l and k) leaves the
    least-squares preimage of ``decompose`` free of rounding noise on the
    builtin tables, where row order does not.
    """
    return np.swapaxes(mats[:, :-1, 1:], 1, 2).reshape(len(mats), -1)


class Seminorms(NamedTuple):
    """The four seminorms (operator, plus, minus, corner) of an element."""

    op: float
    plus: float
    minus: float
    corner: float


def _pin_eigenbasis(H: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Kept eigenpairs of a Hermitian PSD matrix under the pinned conventions."""
    evals, evecs = np.linalg.eigh(H)
    hdim = numerical_rank(evals, tol)
    cut = cutoff(evals, tol)
    evals = evals[::-1][:hdim]
    evecs = evecs[:, ::-1][:, :hdim]

    # Within a degenerate group (eigenvalues closer than the rank cutoff),
    # realign to standard basis directions in index order so the output does
    # not depend on LAPACK's arbitrary choice.
    pinned = np.empty((hdim, H.shape[0]), dtype=complex)   # row j: kept eigenvector j
    start = 0
    while start < evals.size:
        stop = start + 1
        while stop < evals.size and abs(evals[stop] - evals[start]) <= cut:
            stop += 1
        block = evecs[:, start:stop]
        if stop - start > 1:
            proj = block @ block.conj().T
            # sqrt(tol), not cutoff: this picks directions, and another cut could move them
            _, chosen = gram_schmidt(proj.T, np.sqrt(tol))
            if len(chosen) >= stop - start:
                block = chosen[: stop - start].T
        for col in range(block.shape[1]):
            pinned[start + col] = pin_phase(block[:, col])
        start = stop
    return evals, pinned.T


def build_representation(alg: ItoAlgebra) -> FundamentalRep:
    """Canonical representation of a faithful algebra whose axioms pass: ``alg.gns``.

    Raises ``NonFaithfulError`` when a -> triangular(a) has a kernel.
    """
    report = alg.axioms
    if not report.passed:
        failed = ", ".join(c.name for c in report.failures())
        raise RepresentationError(f"axioms fail: {failed}")
    rep = alg.gns
    dim = rep.kernel.shape[0]
    if dim:
        raise NonFaithfulError(f"faithfulness ideal has dimension {dim}; factor it out with quotient() first")
    _validate(rep)
    return rep


def construct_gns(alg: ItoAlgebra) -> FundamentalRep:
    """Kolmogorov/GNS construction of the triangular matrices, faithful or not.

    A covariance residual above tol raises: k(x) = 0 implies k(a . x) = 0.
    """
    n, tol = alg.dim, alg.tol
    H = gram_matrix(alg)
    Hh = (H + H.conj().T) / 2.0
    evals, V = _pin_eigenbasis(Hh, tol)
    hdim = V.shape[1]
    K = np.sqrt(evals)[:, None] * V.conj().T

    # KP[i] = K @ mult[i].T, whose column j is k(a_i . a_j); all n systems
    # K.T @ imats[i].T = KP[i].T share K, so one lstsq solves them stacked.
    KP = np.swapaxes((alg.mult.reshape(n * n, n) @ K.T).reshape(n, n, hdim), 1, 2)
    rhs = KP.transpose(2, 0, 1).reshape(n, n * hdim)
    sol = np.linalg.lstsq(K.T, rhs, rcond=None)[0]
    imats = np.ascontiguousarray(sol.reshape(hdim, n, hdim).transpose(1, 2, 0))
    bad = np.flatnonzero(~(rel_residuals(imats @ K, KP) <= tol))
    if bad.size:
        raise RepresentationError(
            f"GNS covariance residual above tolerance for basis element {alg.labels[bad[0]]}"
        )

    mats = np.zeros((n, hdim + 2, hdim + 2), dtype=complex)
    mats[:, 0, 1:-1] = np.conj(alg.star @ K.T)   # kdag(a) = k(a*)^dag
    mats[:, 0, -1] = alg.state
    mats[:, 1:-1, 1:-1] = imats
    mats[:, 1:-1, -1] = K.T
    mats += 0.0   # -0.0 (from conj) -> +0.0, as triangular(rep, e_i) writes it
    return FundamentalRep(algebra=alg, mats=mats, eigenvalues=evals)


def _validate(rep: FundamentalRep) -> None:
    alg = rep.algebra
    tol, n = alg.tol, alg.dim
    L2 = alg.mult @ alg.state
    if not rel_residual(rep.kdmat @ rep.kmat, L2) <= tol:
        raise RepresentationError("Kolmogorov identity fails")
    d = rep.hdim
    star_i = (alg.star @ rep.imats.reshape(n, d * d)).reshape(n, d, d)
    if not rel_residual(star_i, np.conj(np.transpose(rep.imats, (0, 2, 1)))) <= tol:
        raise RepresentationError("i(a*) is not the adjoint of i(a)")
    if not rel_residual(triangular(rep, alg.death), np.eye(d + 2, k=d + 1)) <= tol:
        raise RepresentationError("the triangular matrix of the death is not the matrix unit E_0,d+1")


def minkowski_metric(hdim: int) -> np.ndarray:
    """Metric swapping the two corner coordinates, identity in between."""
    G = np.zeros((hdim + 2, hdim + 2), dtype=complex)
    G[0, -1] = 1.0
    G[-1, 0] = 1.0
    G[1:-1, 1:-1] = np.eye(hdim)
    return G


def triangular(rep: FundamentalRep, a: Element | np.ndarray) -> np.ndarray:
    """Triangular matrix [[0, kdag(a), l(a)], [0, i(a), k(a)], [0, 0, 0]].

    Rows and columns are ordered (-, middle block, +); the map is a
    homomorphism for the ordinary matrix product, and the corner entry
    recovers l(a).
    """
    n = rep.algebra.dim
    return (rep._coeffs(a) @ rep.mats.reshape(n, -1)).reshape(rep.mats.shape[1:])


def minkowski_adjoint(M: np.ndarray) -> np.ndarray:
    """Adjoint with respect to the Minkowski metric: G M^dag G.

    Sends triangular(a) to triangular(a*); it is an involution since G^2 = I.
    """
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.shape[0] < 2:
        raise AlgebraError("expected a square matrix of triangular-representation shape")
    G = minkowski_metric(M.shape[0] - 2)
    return G @ M.conj().T @ G


def seminorms(rep: FundamentalRep, a: Element | np.ndarray) -> Seminorms:
    """Four seminorms (|i(a)|_op, l(a*.a)^1/2, l(a.a*)^1/2, |l(a)|)."""
    return Seminorms(*(float(v[0]) for v in _seminorm_rows(rep, rep._coeffs(a)[np.newaxis])))


def _seminorm_rows(rep: FundamentalRep, X: np.ndarray) -> Seminorms:
    """The four seminorms of every row of ``X`` (shape (S, n)), as arrays."""
    alg = rep.algebra
    n, d = alg.dim, rep.hdim
    X_star = np.conj(X) @ alg.star
    ops = (X @ rep.imats.reshape(n, d * d)).reshape(len(X), d, d)
    op = np.linalg.svd(ops, compute_uv=False).max(axis=-1, initial=0.0)   # the operator norms
    plus = np.sqrt(np.maximum((row_products(alg, X_star, X) @ alg.state).real, 0.0))
    minus = np.sqrt(np.maximum((row_products(alg, X, X_star) @ alg.state).real, 0.0))
    return Seminorms(op, plus, minus, np.abs(X @ alg.state))


@dataclass(frozen=True)
class BStarReport:
    """Worst residuals of the B*-algebra identities over the sampled elements."""

    residuals: dict[str, float]
    tol: float
    samples: int
    seed: int | None

    @property
    def passed(self) -> bool:
        return all(r <= self.tol for r in self.residuals.values())

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "tol": self.tol,
            "samples": self.samples,
            "seed": self.seed,
            "residuals": dict(self.residuals),
        }


def verify_bstar(
    rep: FundamentalRep,
    samples: list[Element] | np.ndarray | None = None,
    count: int = 100,
    seed: int = 0,
    tol: float | None = None,
) -> BStarReport:
    """Check the star symmetries, submultiplicativity and the two B*-equalities.

    ``samples`` are elements or an (S, n) array of coefficient rows; without
    them ``count`` Gaussian samples are drawn from ``seed``.  Each sample is
    paired with the next, cyclically, and all seminorms are computed in
    batched contractions.  Every residual is ``rel_residuals``: an equality
    compares lhs with rhs, an inequality lhs <= rhs compares max(lhs, rhs)
    with rhs, so only its violation counts.
    """
    alg = rep.algebra
    tol = alg.tol if tol is None else tol
    if samples is None:
        z = np.random.default_rng(seed).standard_normal((count, 2, alg.dim))
        A = z[:, 0] + 1j * z[:, 1]
    else:
        A = np.array([rep._coeffs(a) for a in samples], dtype=complex).reshape(-1, alg.dim)
        seed = None
    C = np.roll(A, -1, axis=0)
    A_star = np.conj(A) @ alg.star
    na = _seminorm_rows(rep, A)
    ns = _seminorm_rows(rep, A_star)
    nc = Seminorms(*(np.roll(v, -1) for v in na))
    nac = _seminorm_rows(rep, row_products(alg, A, C))
    naa = _seminorm_rows(rep, row_products(alg, A, A_star))

    def at_most(lhs, rhs):
        return rel_residuals(np.maximum(lhs, rhs), rhs)

    residuals = {
        "star_op": rel_residuals(ns.op, na.op),
        "star_plus_minus": rel_residuals(ns.plus, na.minus),
        "star_corner": rel_residuals(ns.corner, na.corner),
        "sub_op_op": at_most(nac.op, na.op * nc.op),
        "sub_op_plus": at_most(nac.plus, na.op * nc.plus),
        "sub_minus_op": at_most(nac.minus, na.minus * nc.op),
        "sub_corner": at_most(nac.corner, na.minus * nc.plus),
        "cstar_equality": rel_residuals(naa.op, na.op * ns.op),
        "corner_equality": rel_residuals(naa.corner, na.minus * ns.plus),
    }
    worst = {name: worst_residual(r) for name, r in residuals.items()}
    return BStarReport(worst, tol, A.shape[0], seed)
