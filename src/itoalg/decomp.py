"""Orthogonal decomposition into Brownian and Levy components.

Every faithful algebra splits as b + c with b.c = {0}: the Brownian part
collects the zero-mean directions killed by the operator algebra (all their
products fall back into the death line), the Levy part carries the
nondegenerate operator action.  The split is governed by the maximal
orthoprojector P on the representation space annihilated by every i(a) from
both sides; the overlap of the two components is exactly the death line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    AlgebraError,
    Check,
    Element,
    ItoAlgebra,
    Report,
    complex_pairs,
    gram_schmidt,
    null_space,
    numerical_rank,
    pair_products,
    rel_residual,
    rel_residuals,
    worst_residual,
)
from .gns import FundamentalRep, _block_columns, build_representation

__all__ = ["Decomposition", "DecompositionError", "decompose", "support_projector"]


class DecompositionError(AlgebraError):
    """Preimage residual above tolerance: the split leaves the algebra."""


def support_projector(rep: FundamentalRep) -> np.ndarray:
    """Orthoprojector onto the common null space of all i(a) and i(a)^dag.

    Its complement E = I - P is the support of the operator algebra.  The
    kernel is computed from one stacked SVD rather than iterated
    intersections.
    """
    null = _support(rep)[0]
    return null.T @ null.conj()


def _support(rep: FundamentalRep) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal rows spanning the common null space of the operator stack [i(a); i(a)^dag], and the stack."""
    n, d = rep.algebra.dim, rep.hdim
    stack = np.vstack(
        [rep.imats.reshape(n * d, d), np.conj(np.transpose(rep.imats, (0, 2, 1))).reshape(n * d, d)]
    )
    return null_space(stack, rep.algebra.tol), stack


@dataclass(frozen=True)
class Decomposition:
    """Brownian/Levy split of a faithful algebra.

    ``brownian`` and ``levy`` both start with the death element; the
    remaining entries span the zero-mean parts.  ``report`` holds the named
    verification checks.
    """

    algebra: ItoAlgebra
    rep: FundamentalRep
    projector: np.ndarray  # P, Brownian support in the representation space
    brownian: tuple[Element, ...]
    levy: tuple[Element, ...]
    report: Report

    def __post_init__(self):
        self.projector.setflags(write=False)

    @property
    def brownian_zero_mean(self) -> tuple[Element, ...]:
        return self.brownian[1:]

    @property
    def levy_zero_mean(self) -> tuple[Element, ...]:
        return self.levy[1:]

    def is_purely_brownian(self) -> bool:
        return len(self.levy) == 1

    def is_purely_levy(self) -> bool:
        return len(self.brownian) == 1

    def to_dict(self) -> dict:
        return {
            "labels": list(self.algebra.labels),
            "hdim": self.rep.hdim,
            "projector": complex_pairs(self.projector),
            "brownian": complex_pairs([e.coeffs for e in self.brownian]),
            "levy": complex_pairs([e.coeffs for e in self.levy]),
            "report": self.report.to_dict(),
        }


def decompose(alg: ItoAlgebra) -> Decomposition:
    """Split the algebra into its Brownian and Levy components.

    For each zero-mean basis element x the triangular matrix is projected
    to the one with kdag(x) P, P k(x) and l = i = 0, and its complement, and
    the parts are pulled back through the injective map a -> triangular(a).
    A failing ``preimage`` check raises ``DecompositionError``: the projected
    matrix leaves the algebra, which the decomposition theorem rules out for
    consistent input.  Every other check is reported in ``report``.
    """
    rep = build_representation(alg)
    tol = alg.tol
    n, d = alg.dim, rep.hdim
    null, stack = _support(rep)
    P = null.T @ null.conj()
    E = np.eye(d, dtype=complex) - P
    K, l, death = rep.kmat, alg.state, alg.death
    B = _block_columns(rep.mats).T

    # Row i is the zero-mean part x_i = a_i - l(a_i) death; the target of its
    # Brownian part is the triangular matrix with kdag(x) P, P k(x), l = i = 0.
    X = np.eye(n, dtype=complex) - np.outer(l, death)
    T = np.zeros_like(rep.mats)
    T[:, 0, 1:-1] = X @ rep.kdmat @ P
    T[:, 1:-1, -1] = X @ K.T @ P.T
    targets = _block_columns(T)
    Y = np.linalg.lstsq(B, targets.T, rcond=None)[0].T
    preimage = Check("preimage", worst_residual(rel_residuals(Y @ B.T, targets)))
    Report((preimage,), tol).require(DecompositionError, "projected quadruple has no preimage in the algebra")
    Z = X - Y

    y_idx, _ = gram_schmidt(Y, tol)
    z_idx, _ = gram_schmidt(Z, tol)
    y_basis = Y[y_idx]
    z_basis = Z[z_idx]

    def pairs(U: np.ndarray, V: np.ndarray) -> np.ndarray:
        """Products u . v of every pair, one per row."""
        return pair_products(alg, U, V).reshape(-1, n)

    y_star = np.conj(y_basis) @ alg.star
    w = pairs(y_basis, y_basis)
    # The death annihilates, so x_i . x_j = a_i . a_j and k of it reads off the table.
    kprods = np.swapaxes(rep._products, 1, 2)  # k(x_i . x_j) as [i, j]
    kept = y_idx + z_idx
    # Levy support: on E H the operator algebra is nondegenerate, and the
    # k-image of the product span matches the Levy k-image (density in
    # finite dimension).
    spans = (kprods.reshape(n * n, d).T, K @ z_basis.T)
    ranks = {numerical_rank(m, tol) for m in (*spans, np.hstack(spans))}
    rank_e = d - len(null)   # the rank of E, from the SVD that cut P
    rank_sum = numerical_rank(np.vstack([y_basis, z_basis]), tol)
    checks = (
        preimage,
        Check("projector_idempotent", rel_residual(P @ P, P)),
        Check("projector_hermitian", rel_residual(P, P.conj().T)),
        Check("projector_kills_operators", worst_residual(
            rel_residuals(rep.imats @ P, 0.0), rel_residuals(P @ rep.imats, 0.0))),
        Check("cross_products", worst_residual(
            rel_residuals(pairs(y_basis, z_basis), 0.0), rel_residuals(pairs(z_basis, y_basis), 0.0))),
        Check("orthogonality", worst_residual(
            rel_residuals(pairs(y_star, z_basis) @ l, 0.0), rel_residuals(pairs(z_basis, y_star) @ l, 0.0))),
        Check("reconstruction", worst_residual(rel_residuals(np.outer(l, death) + Y + Z, np.eye(n)))),
        Check("brownian_second_order", worst_residual(rel_residuals(w, np.outer(w @ l, death)))),
        # pi kills products; the Levy zero-mean span must absorb them
        Check("pi_kills_products", worst_residual(
            rel_residuals((kprods[np.ix_(kept, kept)] @ P.T).reshape(len(kept) ** 2, d), 0.0))),
        Check("levy_k_image", 0.0 if len(ranks) == 1 else 1.0),
        Check("levy_nondegenerate", 0.0 if not z_idx or numerical_rank(stack @ E, tol) >= rank_e else 1.0),
        # the two spans overlap exactly in the death line
        Check("intersection_death_only", 0.0 if rank_sum == len(kept) else 1.0),
    )
    brownian = (Element(alg, death),) + tuple(Element(alg, y) for y in y_basis)
    levy = (Element(alg, death),) + tuple(Element(alg, z) for z in z_basis)
    return Decomposition(alg, rep, P, brownian, levy, Report(checks, tol))
