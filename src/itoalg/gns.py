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
``ItoAlgebra.gns``, and only on a table whose axioms pass: a failing
``alg.axioms`` raises ``RepresentationError("axioms fail: ...")`` before
anything is built.  Its ``kernel`` is that ideal.  The rows of
K = diag(sqrt(lambda)) V^dag are orthogonal, so V diag(1/sqrt(lambda)) is its
exact right inverse and i(a_i) is k(a_i . -) times it: nothing is solved.
The identities above are the ``covariance``, ``kolmogorov`` and
``star_adjoint`` checks of ``FundamentalRep.report``, with ``death_unit``:
triangular(death) is the matrix unit in the corner.  The report is a
``core.Report``, computed on first access from ``mats``, the table and the
table's product with K, which is formed once per representation, and
``build_representation`` raises on any failing check; the kernel reads
none of them.  Every raise names the failing checks through
``Report.require``.

The B*-seminorms of a are the norms of the blocks of triangular(a): the
operator norm of i(a), the norms of k(a) and kdag(a), which are
l(a* . a)^1/2 and l(a . a*)^1/2 by the Kolmogorov identity, and |l(a)|.
The operator norm is the square root of the top eigenvalue of
i(a)^dag i(a), from one batched Hermitian eigensolve; i(a) is divided by a
power of 2 near its largest part first, so that Gram does not overflow.
``seminorms`` divides the coefficients by a power of 2 near the largest and
multiplies the norms back, exact in binary, so only a seminorm above the
float range overflows, and it reads ``inf``.

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
    Check,
    Element,
    ItoAlgebra,
    Report,
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

    @cached_property
    def _products(self) -> np.ndarray:
        """``_k_products`` of the table and ``kmat``; ``construct_gns`` keeps the one it built from."""
        with np.errstate(all="ignore"):
            return _k_products(self.algebra.mult, self.kmat)

    @cached_property
    def report(self) -> Report:
        """The identities of the representation, computed on first access from ``mats`` and the table.

        ``covariance``: i(a_i) k(a_j) = k(a_i . a_j); ``kolmogorov``:
        kdag(a_i) k(a_j) = l(a_i . a_j); ``star_adjoint``: i(a_i*) = i(a_i)^dag;
        ``death_unit``: triangular(death) is the matrix unit E_0,hdim+1.  An
        overflow gives a NaN residual, which fails.  The kernel needs none of
        them, so ``faithfulness_ideal`` computes no identity.
        """
        alg, n, d, K = self.algebra, self.algebra.dim, self.hdim, self.kmat
        with np.errstate(all="ignore"):
            star_i = (alg.star @ self.imats.reshape(n, d * d)).reshape(n, d, d)
            checks = (
                # i(a_i) k(a_j) = k(a_i . a_j): the product's rows lie in the kept space
                Check("covariance", worst_residual(rel_residuals(self.imats @ K, self._products))),
                Check("kolmogorov", rel_residual(self.kdmat @ self.kmat, alg.mult @ alg.state)),
                Check("star_adjoint", rel_residual(star_i, np.conj(np.swapaxes(self.imats, 1, 2)))),
                Check("death_unit", rel_residual(triangular(self, alg.death), np.eye(d + 2, k=d + 1))),
            )
        return Report(checks, alg.tol)


def _block_columns(mats: np.ndarray) -> np.ndarray:
    """Row i: the block [[kdag, l], [i, k]] of the triangular ``mats[i]``, column by column.

    The block leaves out the first column and the last row, which are zero.
    Column order (kdag and i a column at a time, then l and k) leaves the
    least-squares preimage of ``decompose`` free of rounding noise on the
    builtin tables, where row order does not.
    """
    return np.swapaxes(mats[:, :-1, 1:], 1, 2).reshape(len(mats), -1)


def _k_products(mult: np.ndarray, K: np.ndarray) -> np.ndarray:
    """``KP[i] = K @ mult[i].T``, whose column j is k(a_i . a_j), by one matrix product."""
    n, d = len(mult), len(K)
    return np.swapaxes((mult.reshape(n * n, n) @ K.T).reshape(n, n, d), 1, 2)


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
            # u -> u @ block.T maps row r of block.conj() isometrically to column r of the
            # projector.  sqrt(tol), not cutoff: this picks directions, another cut could move them
            _, chosen = gram_schmidt(block.conj(), np.sqrt(tol))
            if len(chosen) >= stop - start:
                block = block @ chosen.T
        for col in range(block.shape[1]):
            pinned[start + col] = pin_phase(block[:, col])
        start = stop
    return evals, pinned.T


def build_representation(alg: ItoAlgebra) -> FundamentalRep:
    """Canonical representation of a faithful algebra whose axioms pass: ``alg.gns``.

    Raises ``RepresentationError("axioms fail: ...")`` from ``construct_gns``,
    ``NonFaithfulError`` when a -> triangular(a) has a kernel, and
    ``RepresentationError`` naming the failed checks of ``alg.gns.report``.
    """
    rep = alg.gns
    dim = rep.kernel.shape[0]
    if dim:
        raise NonFaithfulError(f"faithfulness ideal has dimension {dim}; factor it out with quotient() first")
    rep.report.require(RepresentationError, "representation identities fail")
    return rep


def construct_gns(alg: ItoAlgebra) -> FundamentalRep:
    """Kolmogorov/GNS construction of the triangular matrices, faithful or not.

    The table's axioms are the one gate: when ``alg.axioms`` fails it raises
    ``RepresentationError("axioms fail: ...")`` naming the failed checks and
    builds nothing.  It computes no identity of the result's ``report``.
    """
    alg.axioms.require(RepresentationError, "axioms fail")
    n = alg.dim
    H = gram_matrix(alg)
    evals, V = _pin_eigenbasis((H + H.conj().T) / 2.0, alg.tol)
    hdim = V.shape[1]
    K = np.sqrt(evals)[:, None] * V.conj().T

    # K has orthogonal rows, so V diag(1/sqrt(evals)) is its exact right inverse
    # (its pseudoinverse), and i(a_i) = KP[i] times it
    KP = _k_products(alg.mult, K)
    mats = np.zeros((n, hdim + 2, hdim + 2), dtype=complex)
    mats[:, 0, 1:-1] = np.conj(alg.star @ K.T)   # kdag(a) = k(a*)^dag
    mats[:, 0, -1] = alg.state
    mats[:, 1:-1, 1:-1] = KP @ (V / np.sqrt(evals))
    mats[:, 1:-1, -1] = K.T
    mats += 0.0   # -0.0 (from conj) -> +0.0, as triangular(rep, e_i) writes it
    rep = FundamentalRep(algebra=alg, mats=mats, eigenvalues=evals)
    rep.__dict__["_products"] = KP   # the cached value of rep._products, formed once
    return rep


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
    return (rep.algebra.coeffs_of(a) @ rep.mats.reshape(n, -1)).reshape(rep.mats.shape[1:])


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
    """Four seminorms (|i(a)|_op, l(a*.a)^1/2, l(a.a*)^1/2, |l(a)|), the block norms of triangular(a).

    Plus and minus are |k(a)| and |kdag(a)| by the Kolmogorov identity.  The
    coefficients are scaled by a power of 2 first, so a seminorm above the
    float range reads ``inf``; a non-finite coefficient gives four NaNs.
    """
    return Seminorms(*(float(v[0]) for v in _seminorm_rows(rep, rep.algebra.coeffs_of(a)[np.newaxis])))


def _seminorm_rows(rep: FundamentalRep, X: np.ndarray) -> Seminorms:
    """The four seminorms of every row of ``X`` (shape (S, n)), as arrays; NaN for non-finite rows."""
    finite = np.isfinite(X).all(axis=1)
    parts = np.where(finite[:, np.newaxis], X, 0.0).view(np.float64)
    exp = np.frexp(np.abs(parts).max(axis=1))[1]   # each row is divided by 2^exp, exactly
    with np.errstate(all="ignore"):   # past the float range an op reads NaN and a norm inf, unwarned
        T = np.tensordot(np.ldexp(parts, -exp[:, np.newaxis]).view(complex), rep.mats, 1)
        plus, minus = np.linalg.norm(T[:, 1:-1, -1], axis=-1), np.linalg.norm(T[:, 0, 1:-1], axis=-1)
        norms = (_op_norms(T[:, 1:-1, 1:-1]), plus, minus, np.abs(T[:, 0, -1]))
        return Seminorms(*(np.where(finite, np.ldexp(v, exp), np.nan) for v in norms))


# the Grams of ``_op_norms`` are formed for about this many entries of the stack at a time
_GRAM_ENTRIES = 1 << 14


def _op_norms(J: np.ndarray) -> np.ndarray:
    """The operator norm of every matrix of the stack ``J``, which it rescales; NaN if not finite.

    |J|_op is the square root of the top eigenvalue of J^dag J, from one
    Hermitian eigensolve per matrix that is finite and nonzero; a zero
    matrix reads +0.0 with no eigensolve.  Each matrix is first divided by
    2^e, exactly, with 2^e taken from its largest part, so its Gram does not
    overflow where it does not.  The matrices, their conjugates and Grams
    are temporaries of about ``_GRAM_ENTRIES`` entries each, not more copies
    of ``J``.
    """
    parts = J.view(np.float64)
    big = np.maximum(parts.max(axis=(1, 2), initial=0.0), -parts.min(axis=(1, 2), initial=0.0))
    e = np.frexp(big)[1]
    np.ldexp(parts, -e[:, np.newaxis, np.newaxis], out=parts)
    finite = np.isfinite(big)
    # a zero matrix reads 0 and a non-finite one NaN unsolved: a non-finite Gram can fail the eigensolve
    live = np.flatnonzero(finite & (big > 0.0))
    step = _GRAM_ENTRIES // max(1, J.shape[1] ** 2) + 1
    top = np.zeros(len(J))   # a scaled live matrix has an entry of modulus >= 1/2, so its top is >= 1/4
    for chunk in np.split(live, np.arange(step, len(live), step)):
        j = J[chunk]
        top[chunk] = np.linalg.eigvalsh(np.conj(j).swapaxes(1, 2) @ j).max(axis=-1, initial=0.0)
    return np.where(finite, np.ldexp(np.sqrt(top), e), np.nan)


def verify_bstar(
    rep: FundamentalRep,
    samples: list[Element] | np.ndarray | None = None,
    count: int = 100,
    seed: int = 0,
) -> Report:
    """Check the star symmetries, submultiplicativity and the two B*-equalities.

    ``samples`` are elements of ``rep.algebra`` or an (S, n) array of
    coefficient rows; without them ``count`` Gaussian samples are drawn from
    ``seed``.  Each sample is paired with the next, cyclically, in batched
    contractions.  Each identity is one check of the returned ``Report``, the
    worst ``rel_residuals`` over the samples: an equality compares lhs with
    rhs, an inequality lhs <= rhs compares max(lhs, rhs) with rhs, so only its
    violation counts.  The report's ``inputs`` hold ``samples``, their count,
    and ``seed``, None for given samples.  A sample
    whose products overflow, or a non-finite one, gives NaN seminorms and
    fails every identity it enters; no sample at all raises ``AlgebraError``.
    """
    alg = rep.algebra
    if samples is None:
        if count < 1:
            raise AlgebraError(f"verify_bstar needs at least one sample, got count={count}")
        z = np.random.default_rng(seed).standard_normal((count, 2, alg.dim))
        A = z[:, 0] + 1j * z[:, 1]
    else:
        A = np.array([alg.coeffs_of(a) for a in samples], dtype=complex).reshape(-1, alg.dim)
        if not len(A):
            raise AlgebraError("verify_bstar needs at least one sample, got an empty list")
        seed = None

    def at_most(lhs, rhs):
        return rel_residuals(np.maximum(lhs, rhs), rhs)

    # an overflow gives a non-finite product, whose NaN seminorms fail the identities
    with np.errstate(all="ignore"):
        C = np.roll(A, -1, axis=0)
        A_star = np.conj(A) @ alg.star
        na = _seminorm_rows(rep, A)
        ns = _seminorm_rows(rep, A_star)
        nc = Seminorms(*(np.roll(v, -1) for v in na))
        nac = _seminorm_rows(rep, row_products(alg, A, C))
        naa = _seminorm_rows(rep, row_products(alg, A, A_star))
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
    checks = tuple(Check(name, worst_residual(r)) for name, r in residuals.items())
    return Report(checks, alg.tol, {"samples": A.shape[0], "seed": seed})
