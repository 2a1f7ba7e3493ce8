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

The algebra is faithful iff the quadruple map a -> (l, k, kdag, i) is
injective: its kernel is the faithfulness ideal, since l(a . x) = <k(a*), k(x)>,
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
    """Canonical quadruple per basis element plus the Gram factorization data.

    kmat[:, i] is k(a_i); kdmat[i, :] is the covector kdag(a_i); imats[i] is
    the operator i(a_i) on the hdim-dimensional representation space.
    ``eigenvalues``/``vectors`` record the kept Gram eigenpairs used for the
    basis change, for reproducibility.
    """

    algebra: ItoAlgebra
    hdim: int
    kmat: np.ndarray       # (hdim, n)
    kdmat: np.ndarray      # (n, hdim)
    imats: np.ndarray      # (n, hdim, hdim)
    eigenvalues: np.ndarray
    vectors: np.ndarray    # (n, hdim) kept eigenvectors as columns

    def __post_init__(self):
        for arr in (self.kmat, self.kdmat, self.imats, self.eigenvalues, self.vectors):
            arr.setflags(write=False)

    def _coeffs(self, a: Element | np.ndarray) -> np.ndarray:
        if isinstance(a, Element):
            if a.algebra.dim != self.algebra.dim:
                raise AlgebraError("element does not belong to the represented algebra")
            return a.coeffs
        return np.asarray(a, dtype=complex)

    def l_of(self, a) -> complex:
        return complex(self._coeffs(a) @ self.algebra.state)

    def k_of(self, a) -> np.ndarray:
        return self.kmat @ self._coeffs(a)

    def kdag_of(self, a) -> np.ndarray:
        return self._coeffs(a) @ self.kdmat

    def i_of(self, a) -> np.ndarray:
        return (self._coeffs(a) @ self.imats.reshape(self.algebra.dim, -1)).reshape(self.hdim, self.hdim)

    def quadruple(self, a) -> tuple[complex, np.ndarray, np.ndarray, np.ndarray]:
        """(l, k, kdag, i) of the element, from one product with ``quadruple_map``."""
        d = self.hdim
        v = self.quadruple_map @ self._coeffs(a)
        return complex(v[0]), v[1 : d + 1], v[d + 1 : 2 * d + 1], v[2 * d + 1 :].reshape(d, d)

    @cached_property
    def quadruple_map(self) -> np.ndarray:
        """The map a -> (l, k, kdag, vec i) as a (1 + 2 hdim + hdim^2, n) matrix."""
        n, d = self.algebra.dim, self.hdim
        out = np.vstack([self.algebra.state[None], self.kmat, self.kdmat.T, self.imats.reshape(n, d * d).T])
        out.setflags(write=False)
        return out

    @cached_property
    def kernel(self) -> np.ndarray:
        """Orthonormal rows spanning the kernel of ``quadruple_map``, phases pinned.

        This is the faithfulness ideal; the rank decision is ``numerical_rank``
        on the singular values of the map.
        """
        null = null_space(self.quadruple_map, self.algebra.tol)
        out = np.array([pin_phase(row) for row in null], dtype=complex).reshape(-1, self.algebra.dim)
        out.setflags(write=False)
        return out


class Seminorms(NamedTuple):
    """The four seminorms (operator, plus, minus, corner) of an element."""

    op: float
    plus: float
    minus: float
    corner: float


def _pin_eigenbasis(H: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Kept eigenpairs of a Hermitian PSD matrix under the pinned conventions."""
    evals, evecs = np.linalg.eigh(H)
    cut = cutoff(evals, tol)
    hdim = int(np.sum(evals > cut))
    evals = evals[::-1][:hdim]
    evecs = evecs[:, ::-1][:, :hdim]

    # Within a degenerate group (eigenvalues closer than the rank cutoff),
    # realign to standard basis directions in index order so the output does
    # not depend on LAPACK's arbitrary choice.
    out_vals, out_vecs = [], []
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
            out_vals.append(evals[start + col])
            out_vecs.append(pin_phase(block[:, col]))
        start = stop
    V = np.array(out_vecs).T if out_vecs else np.zeros((H.shape[0], 0), dtype=complex)
    return np.array(out_vals), V


def build_representation(alg: ItoAlgebra) -> FundamentalRep:
    """Canonical quadruple of a faithful algebra whose axioms pass: ``alg.gns``.

    Raises ``NonFaithfulError`` when the quadruple map has a kernel.
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
    """Kolmogorov/GNS construction of the quadruple, faithful or not.

    A covariance residual above tol raises: k(x) = 0 implies k(a . x) = 0.
    """
    n, tol = alg.dim, alg.tol
    H = gram_matrix(alg)
    Hh = (H + H.conj().T) / 2.0
    evals, V = _pin_eigenbasis(Hh, tol)
    hdim = V.shape[1]
    K = (np.sqrt(evals)[:, None] * V.conj().T) if hdim else np.zeros((0, n), dtype=complex)

    imats = np.zeros((n, hdim, hdim), dtype=complex)
    if hdim:
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
    kdmat = (np.conj(alg.star @ K.T) if hdim else np.zeros((n, 0), dtype=complex))

    return FundamentalRep(
        algebra=alg,
        hdim=hdim,
        kmat=K,
        kdmat=kdmat.reshape(n, hdim),
        imats=imats,
        eigenvalues=evals,
        vectors=V,
    )


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
    death = rep.quadruple_map @ alg.death
    if not rel_residual(death, np.eye(death.size)[0]) <= tol:
        raise RepresentationError("the quadruple of the death is not (1, 0, 0, 0)")


def minkowski_metric(hdim: int) -> np.ndarray:
    """Metric swapping the two corner coordinates, identity in between."""
    G = np.zeros((hdim + 2, hdim + 2), dtype=complex)
    G[0, -1] = 1.0
    G[-1, 0] = 1.0
    if hdim:
        G[1:-1, 1:-1] = np.eye(hdim)
    return G


def triangular(rep: FundamentalRep, a: Element | np.ndarray) -> np.ndarray:
    """Triangular matrix [[0, kdag(a), l(a)], [0, i(a), k(a)], [0, 0, 0]].

    Rows and columns are ordered (-, middle block, +); the map is a
    homomorphism for the ordinary matrix product, and the corner entry
    recovers l(a).
    """
    l, k, kdag, imat = rep.quadruple(a)
    d = rep.hdim
    M = np.zeros((d + 2, d + 2), dtype=complex)
    M[0, 1 : d + 1] = kdag
    M[0, d + 1] = l
    M[1 : d + 1, 1 : d + 1] = imat
    M[1 : d + 1, d + 1] = k
    return M


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
    if d:
        ops = (X @ rep.imats.reshape(n, d * d)).reshape(-1, d, d)
        op = np.linalg.norm(ops, ord=2, axis=(1, 2))
    else:
        op = np.zeros(X.shape[0])
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
    batched contractions.  Equalities are |lhs - rhs| relative to scale;
    inequalities contribute only their violation beyond tol-scale slack.
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

    def scale(lhs, rhs):
        return np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))

    def eq_resid(lhs, rhs):
        return np.abs(lhs - rhs) / scale(lhs, rhs)

    def ineq_resid(lhs, rhs):
        return np.maximum(0.0, lhs - rhs) / scale(lhs, rhs)

    residuals = {
        "star_op": eq_resid(ns.op, na.op),
        "star_plus_minus": eq_resid(ns.plus, na.minus),
        "star_corner": eq_resid(ns.corner, na.corner),
        "sub_op_op": ineq_resid(nac.op, na.op * nc.op),
        "sub_op_plus": ineq_resid(nac.plus, na.op * nc.plus),
        "sub_minus_op": ineq_resid(nac.minus, na.minus * nc.op),
        "sub_corner": ineq_resid(nac.corner, na.minus * nc.plus),
        "cstar_equality": eq_resid(naa.op, na.op * ns.op),
        "corner_equality": eq_resid(naa.corner, na.minus * ns.plus),
    }
    worst = {name: worst_residual(r) for name, r in residuals.items()}
    return BStarReport(worst, tol, A.shape[0], seed)
