"""Faithfulness ideal of an Ito *-algebra and the quotient by it.

An element b lies in the ideal iff l vanishes on b and on every one- and
two-sided product with b, that is iff its triangular matrix
[[0, kdag, l], [0, i, k], [0, 0, 0]] in the GNS construction vanishes: the
ideal is the kernel of the fundamental representation a -> triangular(a).
The state then descends to the quotient, which is faithful; the quotient
keeps the death and its normalization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    AlgebraError,
    Element,
    ItoAlgebra,
    cutoff,
    gram_schmidt,
    lead_labels,
    rel_residual,
    subalgebra,
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
        proj = (np.conj(self.matrix) @ vec) @ self.matrix
        return rel_residual(proj, vec) <= tol


def faithfulness_ideal(alg: ItoAlgebra) -> IdealBasis:
    """Kernel of the fundamental representation a -> triangular(a): ``alg.gns.kernel``.

    Raises ``RepresentationError`` when the GNS covariance system is
    inconsistent, which happens only for a table whose axioms fail.
    """
    return IdealBasis(alg, alg.gns.kernel)


@dataclass(frozen=True)
class Quotient:
    """Quotient algebra together with the induced *-homomorphism.

    ``matrix`` maps coefficient vectors of ``ideal.algebra``, the algebra
    factored, to quotient coordinates; the rows of ``complement`` are the
    chosen complement basis.
    """

    algebra: ItoAlgebra
    matrix: np.ndarray       # (r, n)
    complement: np.ndarray   # (r, n)
    ideal: IdealBasis

    def map(self, a: Element) -> Element:
        return Element(self.algebra, self.matrix @ a.coeffs)


def quotient(alg: ItoAlgebra, ideal: IdealBasis) -> Quotient:
    """Factor the algebra by a two-sided *-ideal on which l vanishes.

    The algebra is re-expressed with ``subalgebra`` on the basis
    ``[complement; ideal]``.  The complement is the death, then the standard
    basis vectors that stay independent modulo the ideal, in index order, so
    quotients of the builtins reproduce their standard presentations and the
    quotient's death is its basis element 0.  On the transported table the
    ideal conditions are zero blocks, and the quotient is the leading block.
    """
    tol = alg.tol
    n = alg.dim
    B = np.asarray(ideal.matrix, dtype=complex).reshape(-1, n)
    m = B.shape[0]
    if m == 0:
        ident = np.eye(n, dtype=complex)
        return Quotient(alg, ident, ident, ideal)

    rows = np.vstack([B, alg.death, np.eye(n, dtype=complex)])
    kept, _ = gram_schmidt(rows, tol)
    if m not in kept:
        raise AlgebraError("death falls into the ideal; input state is inconsistent")
    C = rows[[k for k in kept if k >= m]]
    r = C.shape[0]
    basis = np.vstack([C, B])
    full = subalgebra(alg, basis)

    def nonzero(block: np.ndarray, whole: np.ndarray) -> bool:
        """True unless ``block`` is zero within tol on the scale of ``whole``; NaN is nonzero."""
        return not float(np.max(np.abs(block))) <= cutoff(np.abs(whole), tol)

    if nonzero(full.state[r:], full.state):
        raise AlgebraError("state does not vanish on the proposed ideal")
    if nonzero(full.star[r:, :r], full.star):
        raise AlgebraError("span is not star-closed")
    if nonzero(full.mult[r:, :, :r], full.mult) or nonzero(full.mult[:, r:, :r], full.mult):
        raise AlgebraError("span is not a two-sided ideal")

    new_alg = ItoAlgebra(
        labels=tuple(lead_labels(alg.labels, C, set())),
        mult=full.mult[:r, :r, :r],
        star=full.star[:r, :r],
        death=0,
        state=full.state[:r],
        tol=tol,
        name=f"{alg.name}/ideal" if alg.name else None,
    )
    return Quotient(new_alg, np.linalg.inv(basis.T)[:r], C, ideal)
