"""Data model for finite-dimensional Ito *-algebras.

An Ito *-algebra is held as its structure constants over a fixed basis:
a rank-3 multiplication tensor ``c`` with ``a_i . a_j = sum_k c[i,j,k] a_k``,
a star matrix ``S`` with ``a_i* = sum_k S[i,k] a_k``, a distinguished
self-adjoint annihilator (the death, representing dt) and the state
functional ``l`` with ``l(death) = 1``.  Elements are coefficient vectors.

The algebra object is the one source of membership and of tolerance.
Element arithmetic, the triangular representation, a quotient map and
``subalgebra`` take only elements of that same object (``is``, read by
``ItoAlgebra.coeffs_of``) and raise ``AlgebraError`` for any other.  ``tol``
is the field ``ItoAlgebra.tol``, whose default is the only one written; no
check or builtin takes its own.  It is set only by ``dataclasses.replace(alg,
tol=t)``, ``adsl.parse(text, tol=)`` and ``check --tol``.  Every
equality decision is ``rel_residual(s) <= tol``, relative to the largest
magnitude compared with a floor of 1.  A stage names each residual in a
``Check`` and returns them in one ``Report``, whose ``passed`` is the one
comparison with ``tol``: the axioms (``verify_axioms``), the representation
(``FundamentalRep.report``), the decomposition (``Decomposition.report``) and
the B* identities (``verify_bstar``); ``Report.require`` is the one way a
failure raises.  Every rank, support and degeneracy threshold is
``cutoff(values, tol) = tol * max(1, max(values))``, and nothing else
computes one.  It is read by
``numerical_rank`` (the faithfulness ideal and the Brownian support, each the
``null_space`` that cut leaves; the independence check of ``subalgebra``; the
rank checks of ``decomp.decompose``), by the ``gram_schmidt`` keep rule, by
the GNS space and its degenerate window in ``gns._pin_eigenbasis``, by the
zero blocks of ``ideal.quotient``, by the component supports and moving
atoms of the classical sampler and by the positivity of ``group_levy``'s
weights.  Two bounds scale by hand, on purpose: ``ito_product_check`` judges
each dt at tol * max(1, |M_a|, |M_b|), the scale of its inputs, and the
Gram-Schmidt that realigns a degenerate GNS eigenspace cuts at ``sqrt(tol)``:
it picks directions, not a rank, and another cut could move the eigenbases.

``subalgebra`` is the one basis transport: it re-expresses the structure
constants on the rows of any basis of a closed span, with ``np.linalg.solve``
when the basis is square (quotients, rotations) and least squares for a
proper span.  Least squares gave the quotient of the tilted table ``basis dt
f / state f = 1`` the star 0.99999999999999978 dt, where the solve gives dt.
The quotient by an ideal (``ideal.quotient``) is the leading block of the
table transported to the basis (death, the standard basis vectors
independent modulo the ideal in index order, ideal); its death is basis
element 0.

``verify_axioms`` has two paths for its two costly contractions,
associativity and star anti-multiplicativity; both report the same
residuals up to rounding.  The dense path runs blockwise BLAS matmuls:
O(n^5) time, O(n^3) memory per block.  The coordinate join (the sparse
tensor contraction model of the Tensor Algebra Compiler, Kjolstad et al.,
OOPSLA 2017) pairs nonzero coordinates: ``(a_i a_j) a_k`` joins each
nonzero ``c[i,j,m]`` with every nonzero ``c[m,k,r]``, ``a_i (a_j a_k)``
each ``c[j,k,m]`` with every ``c[i,m,r]``, and both sides add into one
keyed table over ``(i, j, k, r)``.  Its cost is the number of pairs it
forms, ``P = sum_m out_m (first_m + second_m + srow_m)`` plus the two
star joins, where ``out_m``, ``first_m`` and ``second_m`` count the
nonzero ``c`` entries with ``m`` as output, first or second index and
``srow_m`` the nonzero entries of row ``m`` of ``S``.  The path rule
``_contractions`` counts ``P`` once, before any work, from the axis sums of
the nonzero masks of ``c`` and ``S``: the per-factor counts of
``_pairs_per_factor``, which also size the join's chunks, plus the star's
shared pairs; only the join takes the nonzero coordinates.  It takes the
join when ``100 * P <= n^5``.  One join pair costs 110 to 130 dense multiply-adds
(about 130 ns against 1.0 ns on a rotated hp(4), one OpenBLAS thread of a
2-vCPU x86-64 machine).  The join runs over consecutive first factors ``i``
in chunks of at most ``_JOIN_MAX_PAIRS = 2^21`` pairs, about 100 MiB at 52
bytes per pair; a single ``i`` with more pairs is a chunk of its own, and
the star's ``a_j* a_q`` terms are built once and shared by the chunks.
Every key holds its ``i``, so the residuals are the same bits for any
chunking.  group_levy(S5) (n = 121, P = 3.5e6) takes two chunks: 0.5 s and
268 MB peak RSS for the whole build, where the dense path took 14.1 s and
the join in one piece 387 MB.  The builtin ladder tables hp(2..7),
group_levy(S4), thermal_matrix(5) and periodic_wiener(16) have
``P / n^5 <= 0.0032`` and take the join.  A table on a random basis keeps
the matmuls: a filled one has ``P / n^5`` from 2.0 to 2.7, and the
block-sparse rotated periodic_wiener(8) has 0.049.

Two derived objects are cached on each algebra, which is frozen with
read-only arrays and so cannot make them stale: ``axioms``, the report of
``verify_axioms``, and ``gns``, the triangular matrices of ``gns.construct_gns``.
The faithfulness ideal is ``gns.kernel``, and the representation and the
Brownian/Levy decomposition read the same ``gns``, so each algebra object
computes each once, whoever asks first; ``dataclasses.replace`` keeps neither.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

import numpy as np

if TYPE_CHECKING:
    from .gns import FundamentalRep

__all__ = [
    "AlgebraError",
    "Check",
    "Element",
    "ItoAlgebra",
    "Report",
    "commutant_check",
    "complex_pairs",
    "cutoff",
    "gram_matrix",
    "gram_schmidt",
    "lead_labels",
    "multiply",
    "null_space",
    "numerical_rank",
    "pair_products",
    "pin_phase",
    "random_element",
    "rel_residual",
    "rel_residuals",
    "row_products",
    "worst_residual",
    "star",
    "state_of",
    "subalgebra",
    "verify_axioms",
]


class AlgebraError(ValueError):
    """Malformed algebra data or an operation on incompatible operands."""


def complex_pairs(a) -> list:
    """A complex array as nested lists with each entry an ``[re, im]`` pair (its JSON form)."""
    a = np.asarray(a, dtype=complex)
    return np.stack((a.real, a.imag), -1).tolist()


def rel_residual(lhs, rhs) -> float:
    """Largest entrywise deviation, relative to the data magnitude.

    The denominator is ``max(1, |lhs|_max, |rhs|_max)`` so comparisons of
    near-zero quantities degrade to an absolute test.  A NaN or inf anywhere
    gives NaN, which fails every ``residual <= tol`` test.
    """
    return float(rel_residuals(np.asarray(lhs)[np.newaxis], np.asarray(rhs)[np.newaxis])[0])


def rel_residuals(lhs, rhs) -> np.ndarray:
    """``rel_residual`` of every slice along the leading axis, as a 1-d array.

    ``lhs`` and ``rhs`` broadcast together; entry ``s`` compares ``lhs[s]``
    with ``rhs[s]`` under its own scale, so the maximum over the result is
    the worst per-pair residual of a batched check.
    """
    lhs, rhs = np.broadcast_arrays(np.asarray(lhs, dtype=complex), np.asarray(rhs, dtype=complex))
    rows = lhs.shape[0]
    if lhs.size == 0:
        return np.zeros(rows)
    with np.errstate(invalid="ignore", over="ignore"):
        num = np.abs(lhs - rhs).reshape(rows, -1).max(axis=1)
        scale = np.maximum(
            np.abs(lhs).reshape(rows, -1).max(axis=1), np.abs(rhs).reshape(rows, -1).max(axis=1)
        )
        return num / np.maximum(scale, 1.0)


def cutoff(values, tol: float) -> float:
    """``tol * max(1, max(values))``, the threshold of every rank, support and degeneracy cut.

    The floor of 1 keeps values that are all rounding noise from promoting
    their own noise to signal.  Empty, NaN or all-negative values give ``tol``.
    """
    return tol * max(1.0, float(np.asarray(values).max(initial=0.0)))


def numerical_rank(values, tol: float) -> int:
    """Number of values above ``cutoff``; a matrix (2-d) counts its singular values."""
    values = np.asarray(values)
    if values.ndim == 2:
        values = np.linalg.svd(values, compute_uv=False)
    return int(np.sum(values > cutoff(values, tol)))


def null_space(matrix: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal rows v with ``matrix @ v = 0``; economy SVD unless ``matrix`` is wide."""
    _, svals, vh = np.linalg.svd(matrix, full_matrices=matrix.shape[0] < matrix.shape[1])
    return vh[numerical_rank(svals, tol):].conj()


def worst_residual(*batches) -> float:
    """Maximum over batches of residuals; NaN-propagating, 0 when all are empty."""
    return float(np.max(np.concatenate([np.ravel(b) for b in batches]), initial=0.0))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ItoAlgebra:
    """Finite-dimensional Ito *-algebra given by structure constants.

    Parameters
    ----------
    labels : basis names, one per dimension.
    mult : complex tensor of shape (n, n, n); ``a_i . a_j = sum_k mult[i,j,k] a_k``.
    star : complex matrix of shape (n, n); ``a_i* = sum_k star[i,k] a_k``.
        The star of a general element conjugates coefficients.
    death : index of a basis element, or an explicit coefficient vector.
    state : complex vector of the values ``l(a_i)``.
    tol : tolerance used by every equality decision involving this algebra.
    """

    labels: tuple[str, ...]
    mult: np.ndarray
    star: np.ndarray
    death: np.ndarray
    state: np.ndarray
    tol: float = 1e-9
    name: str | None = None

    def __post_init__(self):
        labels = tuple(str(s) for s in self.labels)
        n = len(labels)
        if n == 0:
            raise AlgebraError("algebra needs at least one basis element")
        if len(set(labels)) != n:
            raise AlgebraError("duplicate basis labels")
        mult = np.array(self.mult, dtype=complex)
        star_m = np.array(self.star, dtype=complex)
        state = np.array(self.state, dtype=complex).reshape(-1)
        death = self.death
        if np.isscalar(death) or isinstance(death, (int, np.integer)):
            idx = int(death)
            if not 0 <= idx < n:
                raise AlgebraError(f"death index {idx} out of range")
            death = np.zeros(n, dtype=complex)
            death[idx] = 1.0
        else:
            death = np.array(death, dtype=complex).reshape(-1)
        if mult.shape != (n, n, n):
            raise AlgebraError(f"mult tensor must have shape {(n, n, n)}, got {mult.shape}")
        if star_m.shape != (n, n):
            raise AlgebraError(f"star matrix must have shape {(n, n)}, got {star_m.shape}")
        if state.shape != (n,) or death.shape != (n,):
            raise AlgebraError("state and death must be vectors of the basis size")
        if not 0 <= self.tol < np.inf:
            raise AlgebraError("tol must be finite and nonnegative")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "mult", _freeze(mult))
        object.__setattr__(self, "star", _freeze(star_m))
        object.__setattr__(self, "death", _freeze(death))
        object.__setattr__(self, "state", _freeze(state))

    @property
    def dim(self) -> int:
        return len(self.labels)

    @cached_property
    def axioms(self) -> "Report":
        """The axiom report of ``verify_axioms``, computed on first access and kept.

        The algebra is frozen with read-only arrays, so the report cannot go
        stale; ``dataclasses.replace`` builds a new object with no report.
        """
        return _axiom_report(self)

    @cached_property
    def gns(self) -> "FundamentalRep":
        """``gns.construct_gns(self)``, the stack of triangular matrices, built once and kept.

        The faithfulness ideal is its ``kernel``; ``build_representation`` and
        ``decompose`` read the same object.  Like ``axioms`` it cannot go stale.
        When ``axioms`` fails it raises ``RepresentationError`` and keeps nothing.
        """
        from . import gns

        return gns.construct_gns(self)

    def basis_element(self, key: int | str) -> "Element":
        idx = self.index(key) if isinstance(key, str) else int(key)
        coeffs = np.zeros(self.dim, dtype=complex)
        coeffs[idx] = 1.0
        return Element(self, coeffs)

    def element(self, coeffs) -> "Element":
        return Element(self, np.asarray(coeffs, dtype=complex))

    def element_from(self, terms: Mapping[str, complex]) -> "Element":
        coeffs = np.zeros(self.dim, dtype=complex)
        for sym, coef in terms.items():
            coeffs[self.index(sym)] += coef
        return Element(self, coeffs)

    def death_element(self) -> "Element":
        return Element(self, self.death.copy())

    def coeffs_of(self, a: "Element | np.ndarray") -> np.ndarray:
        """``a.coeffs`` for an element of this object, ``a`` as a complex ``(dim,)`` vector; all else raises."""
        if isinstance(a, Element):
            if a.algebra is not self:
                raise AlgebraError("element belongs to another algebra object")
            return a.coeffs
        coeffs = np.asarray(a, dtype=complex)
        if coeffs.shape != (self.dim,):
            got = f"length {coeffs.size}" if coeffs.ndim == 1 else f"shape {coeffs.shape}"
            raise AlgebraError(f"coefficient vector has {got}, expected {self.dim}")
        return coeffs

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise AlgebraError(f"unknown basis symbol {label!r}") from None

    def same_table(self, other: "ItoAlgebra") -> bool:
        """Structural equality of the defining data, within this algebra's tol."""
        if self.dim != other.dim:
            return False
        return (
            rel_residual(self.mult, other.mult) <= self.tol
            and rel_residual(self.star, other.star) <= self.tol
            and rel_residual(self.death, other.death) <= self.tol
            and rel_residual(self.state, other.state) <= self.tol
        )

    def __repr__(self) -> str:
        name = self.name or "ItoAlgebra"
        return f"<{name} dim={self.dim} basis={list(self.labels)}>"


@dataclass(frozen=True, eq=False)
class Element:
    """Algebra member as a coefficient vector over the algebra's basis."""

    algebra: ItoAlgebra
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = self.algebra.coeffs_of(np.array(self.coeffs, dtype=complex))
        object.__setattr__(self, "coeffs", _freeze(coeffs))

    def __add__(self, other: "Element") -> "Element":
        self._check_same(other)
        return Element(self.algebra, self.coeffs + other.coeffs)

    def __sub__(self, other: "Element") -> "Element":
        self._check_same(other)
        return Element(self.algebra, self.coeffs - other.coeffs)

    def __neg__(self) -> "Element":
        return Element(self.algebra, -self.coeffs)

    def __rmul__(self, scalar) -> "Element":
        if isinstance(scalar, Element):
            return NotImplemented
        return Element(self.algebra, complex(scalar) * self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Element):
            return multiply(self, other)
        return Element(self.algebra, complex(other) * self.coeffs)

    def star(self) -> "Element":
        return star(self)

    def state(self) -> complex:
        return state_of(self)

    def is_zero(self) -> bool:
        """True iff ``rel_residual(coeffs, 0)`` is within the algebra's tol."""
        return rel_residual(self.coeffs, 0.0) <= self.algebra.tol

    def allclose(self, other: "Element") -> bool:
        """True iff ``rel_residual`` of the two coefficient vectors is within the algebra's tol."""
        self._check_same(other)
        return rel_residual(self.coeffs, other.coeffs) <= self.algebra.tol

    def _check_same(self, other: "Element") -> None:
        if other.algebra is not self.algebra:
            raise AlgebraError("elements belong to different algebra objects")

    def __repr__(self) -> str:
        terms = []
        for coef, sym in zip(self.coeffs.tolist(), self.algebra.labels):
            if coef != 0:
                terms.append(f"({coef:.6g})*{sym}")
        return " + ".join(terms) if terms else "0"


def multiply(a: Element, b: Element) -> Element:
    """Product of two elements through the structure-constant tensor."""
    a._check_same(b)
    return Element(a.algebra, row_products(a.algebra, a.coeffs, b.coeffs)[0])


def _left_action(alg: ItoAlgebra, U) -> np.ndarray:
    """``u_a . a_q`` for every row ``u_a`` of ``U`` and basis element ``a_q``, as ``[a, q, k]``."""
    n = alg.dim
    U = np.asarray(U, dtype=complex).reshape(-1, n)
    return (U @ alg.mult.reshape(n, n * n)).reshape(-1, n, n)


def pair_products(alg: ItoAlgebra, U, V) -> np.ndarray:
    """Every product ``u_a . v_b`` of two stacks of coefficient rows.

    ``U`` and ``V`` hold one element per row (a single vector is one row);
    the result has shape ``(|U|, |V|, n)``.  Two reshaped matmuls, so the
    cost is ``|U| n^3 + |U| |V| n^2`` and no Python loop runs over pairs.
    """
    V = np.asarray(V, dtype=complex).reshape(-1, alg.dim)
    return V @ _left_action(alg, U)


def row_products(alg: ItoAlgebra, U, V) -> np.ndarray:
    """Products ``u_s . v_s`` of matching rows of two stacks, shape ``(S, n)``."""
    V = np.asarray(V, dtype=complex).reshape(-1, 1, alg.dim)
    return (V @ _left_action(alg, U))[:, 0, :]


def gram_schmidt(rows, cut: float) -> tuple[list[int], np.ndarray]:
    """Gram-Schmidt selection of independent rows, in the given order.

    A row ``v`` is kept when its part orthogonal to the rows kept before it
    has norm above ``cutoff(|v|, cut)``.  That part is classical Gram-Schmidt
    applied twice: ``v`` minus its projection on the whole kept block, then
    the result minus its own projection, which leaves it orthogonal to
    working precision ("twice is enough", Giraud et al., Numer. Math. 2005).
    Returns the kept indices and the orthonormal rows, shape
    ``(len(indices), n)``.
    """
    rows = np.asarray(rows, dtype=complex)
    kept: list[int] = []
    ortho = np.zeros_like(rows)
    for idx, v in enumerate(rows):
        q = ortho[: len(kept)]
        w = v - (q.conj() @ v) @ q
        w -= (q.conj() @ w) @ q
        norm = float(np.linalg.norm(w))
        if norm > cutoff(np.linalg.norm(v), cut):
            ortho[len(kept)] = w / norm
            kept.append(idx)
    return kept, ortho[: len(kept)].reshape(len(kept), rows.shape[-1])


def pin_phase(vec: np.ndarray) -> np.ndarray:
    """The vector rescaled so that its largest-magnitude entry is real positive."""
    pivot = vec[int(np.argmax(np.abs(vec)))]
    if abs(pivot) == 0:
        return vec
    return vec * (np.conj(pivot) / abs(pivot))


def lead_labels(labels: Sequence[str], rows, used: set[str]) -> list[str]:
    """Name each row after the basis label of its largest entry.

    A name already in ``used`` gets the first free suffix ``_2``, ``_3``, ...;
    every name handed out is added to ``used``.
    """
    out = []
    for row in rows:
        base = lab = labels[int(np.argmax(np.abs(row)))]
        suffix = 1
        while lab in used:
            suffix += 1
            lab = f"{base}_{suffix}"
        used.add(lab)
        out.append(lab)
    return out


def star(a: Element) -> Element:
    """Involution: conjugate the coefficients, then apply the basis star map."""
    return Element(a.algebra, np.conj(a.coeffs) @ a.algebra.star)


def state_of(a: Element) -> complex:
    """Value of the state functional l on the element."""
    return complex(a.coeffs @ a.algebra.state)


def gram_matrix(alg: ItoAlgebra) -> np.ndarray:
    """Gram matrix ``H[i,j] = l(a_i* . a_j)`` over the full basis."""
    n = alg.dim
    return alg.star @ (alg.mult.reshape(n * n, n) @ alg.state).reshape(n, n)


def commutant_check(alg: ItoAlgebra) -> bool:
    """True iff all basis products commute within the algebra tolerance."""
    return rel_residual(alg.mult, np.swapaxes(alg.mult, 0, 1)) <= alg.tol


@dataclass(frozen=True)
class Check:
    """One named residual of a stage; the stage's ``Report`` judges it."""

    name: str
    residual: float
    detail: str = ""


@dataclass(frozen=True)
class Report:
    """The checks of one stage, judged at one tol: the one verdict of every stage.

    A check passes iff ``residual <= tol``, so a NaN residual fails.  The
    axioms (``verify_axioms``), the representation (``FundamentalRep.report``),
    the decomposition (``Decomposition.report``) and the B* identities
    (``verify_bstar``) each return one, and raise on it only by ``require``.
    ``inputs`` records what the checks were computed from (``verify_bstar``'s
    samples and seed); ``to_dict`` spreads it beside ``passed``, ``tol`` and
    ``checks``.
    """

    checks: tuple[Check, ...]
    tol: float
    inputs: Mapping = field(default_factory=dict)

    def _holds(self, check: Check) -> bool:
        return check.residual <= self.tol

    @property
    def passed(self) -> bool:
        return all(map(self._holds, self.checks))

    def failures(self) -> list[Check]:
        return [c for c in self.checks if not self._holds(c)]

    def require(self, error: type[Exception], what: str) -> "Report":
        """This report if it passed, else raise ``error("<what>: <name> (residual r), ...")``."""
        failed = ", ".join(f"{c.name} (residual {c.residual:.3e})" for c in self.failures())
        if failed:
            raise error(f"{what}: {failed}")
        return self

    @property
    def max_residual(self) -> float:
        return worst_residual([c.residual for c in self.checks])

    @property
    def residuals(self) -> dict[str, float]:
        return {c.name: c.residual for c in self.checks}

    def to_dict(self) -> dict:
        return {
            **self.inputs,
            "passed": self.passed,
            "tol": self.tol,
            "checks": [
                {"name": c.name, "passed": self._holds(c), "residual": c.residual, "detail": c.detail}
                for c in self.checks
            ],
        }

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if self._holds(c) else "FAIL"
            extra = f"  ({c.detail})" if c.detail else ""
            lines.append(f"{status}  {c.name:24s} residual={c.residual:.3e}{extra}")
        return "\n".join(lines)


# The path rule of verify_axioms and the join's chunk size; the module docstring
# gives the measurement.
_JOIN_COST = 100
_JOIN_MAX_PAIRS = 1 << 21


def _contractions(alg: ItoAlgebra) -> tuple[np.ndarray, float]:
    """Per-``i`` associativity residuals and the anti-multiplicativity residual, by the cheaper path.

    The path rule: the coordinate join when its pairs, the per-factor counts
    that also size its chunks plus the star's shared ``a_j* a_q`` pairs, cost
    at most ``n^5`` dense multiply-adds.
    """
    c, S, n = alg.mult, alg.star, alg.dim
    per_i, shared = _pairs_per_factor(c, S)
    if _JOIN_COST * (int(per_i.sum()) + int(shared)) <= n**5:
        coords = (*np.nonzero(c), *np.nonzero(S))   # I, J, M, si, sk; NaN counts as nonzero
        return _join_contractions(c, S, coords, per_i)
    return _dense_contractions(alg)


def _pairs_per_factor(c: np.ndarray, S: np.ndarray) -> tuple[np.ndarray, int]:
    """The pairs of ``_join_contractions`` keyed by each first factor ``i``, and the shared pairs.

    Counted from the marginals of the nonzero masks of ``c`` and ``S`` (NaN
    counts as nonzero).  The star's ``a_j* a_q`` pairs, which every ``i``
    shares, are the second value.
    """
    nz, ns = c != 0, S != 0
    ij, im = nz.sum(2), nz.sum(1)   # entries c[i, j, .] and c[i, ., m]
    first, out, srow, scol = ij.sum(1), im.sum(0), ns.sum(1), ns.sum(0)
    via = scol @ ij   # the star's terms S[j,p] c[p,q,r] with second index q
    per_i = ij @ out + im @ (first + srow) + ns @ via
    return per_i, int(scol @ first)


def _chunks(weights: np.ndarray, cap: int):
    """Consecutive ranges ``[start, stop)`` whose weights add up to at most ``cap``.

    A range holds at least one index, so one index heavier than ``cap`` is a range of its own.
    """
    start, total = 0, 0
    for i, w in enumerate(weights.tolist()):
        if total + w > cap and i > start:
            yield start, i
            start, total = i, 0
        total += w
    yield start, len(weights)


def _join(left: np.ndarray, right: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every index pair ``(p, q)`` with ``left[p] == right[q]``, for keys in ``range(n)``."""
    order = np.argsort(right, kind="stable")
    counts = np.bincount(right, minlength=n)
    per_p = counts[left]
    p = np.repeat(np.arange(left.size), per_p)
    # q runs through right's run of key left[p], in sorted order
    shift = (np.cumsum(counts) - counts)[left] - (np.cumsum(per_p) - per_p)
    return p, order[np.arange(p.size) + np.repeat(shift, per_p)]


def _keyed_maxima(lhs, rhs, block: int, num: np.ndarray, scale: np.ndarray) -> None:
    """Fold two sparse tensors into the per-block maxima of ``rel_residual``.

    ``lhs`` and ``rhs`` are ``(keys, values)`` term lists whose equal keys
    add up; block ``b`` holds the keys in ``[b * block, (b + 1) * block)``.
    ``num[b]`` and ``scale[b]`` take the largest ``|lhs - rhs|`` and the
    largest ``|lhs|``, ``|rhs|`` of block ``b``; the residual of block ``b``
    is ``num[b] / max(scale[b], 1)``.  A key on neither side is 0 on both
    and changes no residual.
    """
    keys, inverse = np.unique(np.concatenate([lhs[0], rhs[0]]), return_inverse=True)
    sums = np.zeros((2, keys.size), dtype=complex)
    np.add.at(sums[0], inverse[: lhs[0].size], lhs[1])
    np.add.at(sums[1], inverse[lhs[0].size:], rhs[1])
    np.maximum.at(num, keys // block, np.abs(sums[0] - sums[1]))
    np.maximum.at(scale, keys // block, np.abs(sums).max(axis=0, initial=0.0))


def _join_contractions(c: np.ndarray, S: np.ndarray, coords, per_i: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-``i`` associativity residuals and the anti-multiplicativity residual, by join.

    ``coords`` are the nonzero coordinates ``(I, J, M, si, sk)`` of ``c`` and
    ``S``, and ``per_i`` their ``_pairs_per_factor``.  The first factors ``i``
    go in consecutive chunks of at most ``_JOIN_MAX_PAIRS`` pairs
    (``_chunks``).  Every key holds its first factor, so each chunk's keys are
    complete, and a chunk is a contiguous slice of the sorted coordinates, so
    each key adds its terms in the same order for any chunking: the residuals
    are the same bits.
    """
    n = c.shape[0]
    I, J, M, si, sk = coords
    v = c[I, J, M]
    s = S[si, sk]
    # A non-finite entry without join partners would drop out of every sum.
    if not np.all(np.isfinite(v)):
        return np.full(n, np.nan), np.nan
    finite_s = bool(np.all(np.isfinite(s)))
    if finite_s:
        p, q = _join(sk, I, n)    # a_j* a_q = sum S[j,p] c[p,q,r] a_r, as terms t
        tj, tq, tr, tv = si[p], J[q], M[q], s[p] * v[q]
    # rows: associativity per i, anti-multiplicativity per i (one residual over all i)
    num, scale = np.zeros((2, n)), np.zeros((2, n))
    for lo, hi in _chunks(per_i, _JOIN_MAX_PAIRS):
        a, b = np.searchsorted(I, (lo, hi))   # the entries c[i, ., .] with lo <= i < hi
        Ic, Jc, Mc, vc = I[a:b], J[a:b], M[a:b], v[a:b]
        p, q = _join(Mc, I, n)    # (a_i a_j) a_k: c[i,j,m] c[m,k,r]
        lhs = (((Ic[p] * n + Jc[p]) * n + J[q]) * n + M[q], vc[p] * v[q])
        p, q = _join(Jc, M, n)    # a_i (a_j a_k): c[i,m,r] c[j,k,m]
        rhs = (((Ic[p] * n + I[q]) * n + J[q]) * n + Mc[p], vc[p] * v[q])
        _keyed_maxima(lhs, rhs, n**3, num[0], scale[0])
        if finite_s:
            p, q = _join(Mc, si, n)   # (a_i a_j)* = sum conj(c[i,j,m]) S[m,r] a_r
            lhs = ((Ic[p] * n + Jc[p]) * n + sk[q], np.conj(vc[p]) * s[q])
            a, b = np.searchsorted(si, (lo, hi))   # the entries S[i, .] with lo <= i < hi
            p, q = _join(sk[a:b], tq, n)   # a_j* a_i* = sum S[i,q] t[j,q,r]
            rhs = ((si[a:b][p] * n + tj[q]) * n + tr[q], s[a:b][p] * tv[q])
            _keyed_maxima(lhs, rhs, n**2, num[1], scale[1])
    antimult = num[1].max() / np.maximum(scale[1].max(), 1.0) if finite_s else np.nan
    return num[0] / np.maximum(scale[0], 1.0), float(antimult)


def _dense_contractions(alg: ItoAlgebra) -> tuple[np.ndarray, float]:
    """Per-``i`` associativity residuals and the anti-multiplicativity residual, by matmuls."""
    c, S, n = alg.mult, alg.star, alg.dim
    rows = c.reshape(n, n * n)   # row m: the products a_m . a_k for every k
    cols = c.reshape(n * n, n)   # row (j, k): the product a_j . a_k
    # Blockwise over the first factor keeps memory at n^3 per step.
    assoc = np.empty(n)
    for i in range(n):
        lhs = c[i] @ rows   # (a_i a_j) a_k as [j, (k, r)]
        rhs = cols @ c[i]   # a_i (a_j a_k) as [(j, k), r]
        assoc[i] = rel_residual(lhs, rhs.reshape(n, n * n))
    prod_star = (np.conj(cols) @ S).reshape(n, n, n)          # (a_i a_j)*
    star_prod = np.swapaxes(pair_products(alg, S, S), 0, 1)   # a_j* a_i*
    return assoc, rel_residual(prod_star, star_prod)


def verify_axioms(alg: ItoAlgebra) -> Report:
    """Check every defining axiom, reporting a named residual per check.

    Covers associativity, the star involution and its anti-multiplicativity,
    the death properties, the *-symmetry and normalization of the state, and
    positive semidefiniteness of the Gram matrix.  Failures are report
    entries, never exceptions.

    Associativity is judged per first factor: block ``i`` compares
    ``(a_i a_j) a_k`` with ``a_i (a_j a_k)`` over all ``j, k`` by
    ``rel_residual``, and the check reports the worst block.  Sparse tables
    take the coordinate join for it and for star anti-multiplicativity,
    dense tables the blockwise matmuls; the module docstring states the rule.
    Both paths report the same residuals up to rounding.  Every call returns
    the one report kept on the algebra object, ``alg.axioms``.
    """
    return alg.axioms


def _axiom_report(alg: ItoAlgebra) -> Report:
    """The report of ``verify_axioms``, computed; only ``ItoAlgebra.axioms`` calls it."""
    c, S, l, d, tol = alg.mult, alg.star, alg.state, alg.death, alg.tol
    n = alg.dim
    checks = []

    def add(name, residual, detail=""):
        checks.append(Check(name, float(residual), detail))

    with np.errstate(all="ignore"):
        assoc, antimult = _contractions(alg)
        add("associativity", worst_residual(assoc))
        add("star_involution", rel_residual(np.conj(S) @ S, np.eye(n)))
        add("star_antimultiplicative", antimult)

        add("death_self_adjoint", rel_residual(np.conj(d) @ S, d))

        left = (d @ c.reshape(n, n * n)).reshape(n, n)   # d . a_i
        right = d @ c                                    # a_i . d
        add("death_annihilates", worst_residual(rel_residual(left, 0.0), rel_residual(right, 0.0)))

        add("state_star_symmetry", rel_residual(S @ l, np.conj(l)))
        add("state_normalized", rel_residual(d @ l, 1.0))

        H = gram_matrix(alg)
        Hh = (H + H.conj().T) / 2.0
        add("gram_hermitian", rel_residual(H, H.conj().T))
        # eigvalsh cannot take a non-finite matrix; NaN then fails the check
        eigs = np.linalg.eigvalsh(Hh) if np.all(np.isfinite(Hh)) else np.full(n, np.nan)
        # the negative part of the spectrum: NaN propagates, a zero gives +0.0
        add(
            "state_positive",
            rel_residual(eigs, np.maximum(eigs, 0.0)),
            detail=f"min Gram eigenvalue {eigs[0]:.3e}",
        )

    return Report(tuple(checks), tol)


def random_element(alg: ItoAlgebra, rng: np.random.Generator, scale: float = 1.0) -> Element:
    """Element with i.i.d. complex Gaussian coefficients; used by samplers and tests."""
    coeffs = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    return Element(alg, scale * coeffs)


def subalgebra(
    alg: ItoAlgebra,
    vectors: Sequence,
    labels: Iterable[str] | None = None,
    name: str | None = None,
) -> ItoAlgebra:
    """Restrict the algebra to the span of the given coefficient vectors.

    The vectors are elements of ``alg`` or coefficient vectors; their span
    must contain the death and be closed under product and star (verified
    within tol).  The induced structure constants express products in them.
    """
    B = np.array([alg.coeffs_of(v) for v in vectors], dtype=complex).reshape(-1, alg.dim)
    m = B.shape[0]
    if not m:
        raise AlgebraError("subalgebra needs at least one spanning vector")
    labels = [f"b{i}" for i in range(m)] if labels is None else list(labels)
    if len(labels) != m:
        raise AlgebraError(f"expected {m} labels, one per spanning vector, got {len(labels)}")
    if not np.isfinite(B).all():
        raise AlgebraError("spanning vectors must be finite")
    if numerical_rank(B, alg.tol) != m:
        raise AlgebraError("spanning vectors are linearly dependent")

    def coords(vecs: np.ndarray, what) -> np.ndarray:
        if m == alg.dim:
            sol = np.linalg.solve(B.T, vecs.T).T
        else:
            sol = np.linalg.lstsq(B.T, vecs.T, rcond=None)[0].T
        bad = np.flatnonzero(~(rel_residuals(sol @ B, vecs) <= alg.tol))
        if bad.size:
            raise AlgebraError(f"span is not closed: {what(bad[0])} falls outside")
        return sol

    prods = pair_products(alg, B, B).reshape(m * m, alg.dim)
    mult = coords(prods, lambda s: f"product {s // m}*{s % m}").reshape(m, m, m)
    star_m = coords(np.conj(B) @ alg.star, lambda s: f"star of {s}")
    death = coords(alg.death[np.newaxis], lambda s: "death")[0]
    state = B @ alg.state
    return ItoAlgebra(
        labels=tuple(labels),
        mult=mult,
        star=star_m,
        death=death,
        state=state,
        tol=alg.tol,
        name=name,
    )
