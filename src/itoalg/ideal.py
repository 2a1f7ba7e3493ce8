"""Faithfulness ideal of an Ito *-algebra and the quotient by it.

An element b lies in the ideal iff l vanishes on b and on every one- and
two-sided product with b.  The state then descends to the quotient, which is
faithful; the quotient keeps the death and its normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    AlgebraError,
    Element,
    ItoAlgebra,
    gram_schmidt,
    lead_labels,
    pair_products,
    pin_phase,
    rel_residual,
    rel_residuals,
)

__all__ = ["IdealBasis", "Quotient", "faithfulness_ideal", "quotient"]


@dataclass(frozen=True)
class IdealBasis:
    """Orthonormal basis (rows of ``matrix``) of the faithfulness ideal."""

    algebra: ItoAlgebra
    matrix: np.ndarray  # (dim_ideal, n)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_trivial(self) -> bool:
        return self.dim == 0

    @property
    def elements(self) -> list[Element]:
        return [Element(self.algebra, row) for row in self.matrix]

    def contains(self, vec: np.ndarray, tol: float | None = None) -> bool:
        tol = self.algebra.tol if tol is None else tol
        if self.dim == 0:
            return float(np.max(np.abs(vec))) <= tol * max(1.0, float(np.max(np.abs(vec))))
        proj = (np.conj(self.matrix) @ vec) @ self.matrix
        return rel_residual(proj, vec) <= tol


def faithfulness_ideal(alg: ItoAlgebra) -> IdealBasis:
    """Null space of the stacked linear system l(x), l(a.x), l(x.a), l(a.x.c).

    The rank decision uses a singular-value threshold of tol times the
    largest singular value.
    """
    c, l = alg.mult, alg.state
    n = alg.dim
    L2 = c @ l  # L2[i, j] = l(a_i . a_j)
    rows = [l[np.newaxis, :]]
    rows.append(L2)        # rows over i: x -> l(a_i . x)
    rows.append(L2.T)      # rows over j: x -> l(x . a_j)
    triple = c @ L2  # l(a_i . a_m . a_j) as [i, m, j]
    rows.append(np.transpose(triple, (0, 2, 1)).reshape(n * n, n))
    A = np.vstack(rows)
    _, svals, vh = np.linalg.svd(A, full_matrices=False)
    cutoff = alg.tol * (float(svals[0]) if svals.size else 0.0)
    rank = int(np.sum(svals > cutoff))
    null = vh[rank:]
    basis = np.array([pin_phase(row.conj()) for row in null]) if null.size else null.conj()
    return IdealBasis(alg, basis.reshape(-1, n))


@dataclass(frozen=True)
class Quotient:
    """Quotient algebra together with the induced *-homomorphism.

    ``matrix`` maps original coefficient vectors to quotient coordinates;
    ``section`` embeds quotient coordinates back using the chosen complement
    basis (rows of ``complement``).
    """

    algebra: ItoAlgebra
    source: ItoAlgebra
    matrix: np.ndarray       # (r, n)
    complement: np.ndarray   # (r, n)
    ideal: IdealBasis

    def map(self, a: Element) -> Element:
        return Element(self.algebra, self.matrix @ a.coeffs)

    def section(self, a: Element) -> Element:
        return Element(self.source, a.coeffs @ self.complement)


def quotient(alg: ItoAlgebra, ideal: IdealBasis) -> Quotient:
    """Factor the algebra by a two-sided *-ideal on which l vanishes.

    The complement basis comes from projecting the original basis vectors
    away from the ideal and keeping a maximal independent set in index order,
    so quotients of the builtins reproduce their standard presentations.
    """
    tol = alg.tol
    n = alg.dim
    B = np.asarray(ideal.matrix, dtype=complex).reshape(-1, n)
    m = B.shape[0]
    if m == 0:
        ident = np.eye(n, dtype=complex)
        return Quotient(alg, alg, ident, ident, ideal)

    scale_b = max(1.0, float(np.max(np.abs(B))))
    if np.linalg.matrix_rank(B, tol=tol * scale_b) != m:
        raise AlgebraError("ideal basis rows must be linearly independent")

    # Orthonormalize the ideal span and validate it is a star-closed two-sided ideal.
    q_ideal, _ = np.linalg.qr(B.T)
    U = q_ideal.T  # (m, n) rows spanning the ideal, orthonormal for conj(u) @ v

    def outside(vecs: np.ndarray) -> bool:
        """True if any row leaves the ideal span."""
        proj = (vecs @ np.conj(U).T) @ U
        return bool(np.any(~(rel_residuals(proj, vecs) <= tol)))

    if not np.all(np.abs(B @ alg.state) <= tol * max(1.0, float(np.max(np.abs(alg.state))))):
        raise AlgebraError("state does not vanish on the proposed ideal")
    if outside(np.conj(B) @ alg.star):
        raise AlgebraError("span is not star-closed")
    basis = np.eye(n, dtype=complex)
    left = pair_products(alg, basis, B)    # a_i . y
    right = pair_products(alg, B, basis)   # y . a_i
    if outside(left.reshape(-1, n)) or outside(right.reshape(-1, n)):
        raise AlgebraError("span is not a two-sided ideal")

    # Complement basis: Gram-Schmidt over the standard basis projected away
    # from the ideal (each projected row has norm at most 1).
    _, C = gram_schmidt(np.eye(n, dtype=complex) - np.conj(U).T @ U, tol)
    r = C.shape[0]
    if r + m != n:
        raise AlgebraError("complement construction failed to span")

    full = np.vstack([C, U])  # invertible n x n, rows = complement then ideal
    to_coords = np.linalg.inv(full.T)
    qmatrix = to_coords[:r, :]

    death_new = qmatrix @ alg.death
    if float(np.max(np.abs(death_new))) <= tol:
        raise AlgebraError("death falls into the ideal; input state is inconsistent")

    mult = pair_products(alg, C, C) @ qmatrix.T
    star_m = (np.conj(C) @ alg.star) @ qmatrix.T
    state = C @ alg.state

    new_alg = ItoAlgebra(
        labels=tuple(lead_labels(alg.labels, C, set())),
        mult=mult,
        star=star_m,
        death=death_new,
        state=state,
        tol=tol,
        name=f"{alg.name}/ideal" if alg.name else None,
    )
    return Quotient(new_alg, alg, qmatrix, C, ideal)
