"""Constructors for the standard Ito *-algebras, at finite truncation.

Every builtin shares one presentation, set in one place, ``_algebra``: the
death is basis element 0, labelled ``dt``, the state is ``l = e_0`` and the
result is verified (the axiom suite is run on it and a failure raises) at
``ItoAlgebra.tol``, or ``orthogonal_sum``'s larger summand tolerance.  Each
constructor states only its own table, as ``(i, j, k, value)`` entries for
``_table``, and its star, a permutation of the basis given as ``np.eye(n)[perm]``;
``orthogonal_sum`` alone passes the star matrix transported from its summands.
All labels are plain whitespace-free tokens so each algebra round-trips
through the ``.ito`` text format.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Mapping, Sequence

import numpy as np

from .core import AlgebraError, ItoAlgebra, cutoff, gram_schmidt, lead_labels, rel_residual, subalgebra

__all__ = [
    "FiniteGroup",
    "cyclic_group",
    "group_levy",
    "hp",
    "newton",
    "orthogonal_sum",
    "periodic_wiener",
    "poisson",
    "symmetric_group",
    "thermal_brownian",
    "thermal_matrix",
    "wiener",
    "zero_intensity_poisson",
]


def _table(n: int, entries: Sequence[tuple[int, int, int, complex]]) -> np.ndarray:
    """Structure tensor with ``a_i . a_j`` holding ``value a_k`` per entry; repeats add up."""
    mult = np.zeros((n, n, n), dtype=complex)
    if entries:
        i, j, k, value = zip(*entries)
        np.add.at(mult, (i, j, k), value)
    return mult


def _algebra(
    labels: Sequence[str], mult: np.ndarray, star: np.ndarray, name: str, summands: Sequence[ItoAlgebra] = ()
) -> ItoAlgebra:
    """The builtin presentation of a table: death ``dt`` at index 0 and ``l = e_0``, verified."""
    state = np.zeros(len(labels))
    state[0] = 1.0
    tol = max((part.tol for part in summands), default=ItoAlgebra.tol)
    alg = ItoAlgebra(labels=labels, mult=mult, star=star, death=0, state=state, tol=tol, name=name)
    alg.axioms.require(AlgebraError, "constructed algebra violates axioms")
    return alg


def newton() -> ItoAlgebra:
    """One-dimensional algebra of smooth motion: dt^2 = 0, l(dt) = 1."""
    return _algebra(("dt",), _table(1, []), np.eye(1), "newton")


def wiener() -> ItoAlgebra:
    """Standard Brownian differentials: dw^2 = dt, dw dt = 0 = dt dw."""
    return _algebra(("dt", "dw"), _table(2, [(1, 1, 0, 1.0)]), np.eye(2), "wiener")


def poisson() -> ItoAlgebra:
    """Compensated Poisson differentials: dm^2 = dm + dt."""
    mult = _table(2, [(1, 1, 0, 1.0), (1, 1, 1, 1.0)])
    return _algebra(("dt", "dm"), mult, np.eye(2), "poisson")


def zero_intensity_poisson() -> ItoAlgebra:
    """Poisson differentials at zero intensity: e^2 = e, l(e) = 0.

    The unique non-faithful case; its faithfulness ideal is the span of e.
    """
    mult = _table(2, [(1, 1, 1, 1.0)])
    return _algebra(("dt", "e"), mult, np.eye(2), "zero_intensity_poisson")


def hp(d: int) -> ItoAlgebra:
    """Hudson-Parthasarathy algebra of a d-mode quantum noise.

    Basis: dt, annihilators e-^i, creators e+_j and exchange units e^i_j,
    multiplying by composition of the underlying matrix units:

        e-^i . e+_j = delta^i_j dt      e-^i . e^k_j = delta^i_k e-^j
        e^i_j . e+_k = delta^k_j e+_i   e^i_j . e^k_m = delta^k_j e^i_m

    with all other products zero, (e-^i)* = e+_i and (e^i_j)* = e^j_i.
    """
    if d < 1:
        raise AlgebraError("hp requires d >= 1")
    n = 1 + 2 * d + d * d
    if d == 1:
        labels = ["dt", "e-", "e+", "e"]
    else:
        labels = ["dt"]
        labels += [f"e-^{i + 1}" for i in range(d)]
        labels += [f"e+_{j + 1}" for j in range(d)]
        labels += [f"e^{i + 1}_{j + 1}" for i in range(d) for j in range(d)]

    def ann(i):
        return 1 + i

    def cre(j):
        return 1 + d + j

    def exc(i, j):
        return 1 + 2 * d + i * d + j

    modes = range(d)
    entries = [(ann(i), cre(i), 0, 1.0) for i in modes]
    entries += [(ann(i), exc(i, j), ann(j), 1.0) for i in modes for j in modes]
    entries += [(exc(j, i), cre(i), cre(j), 1.0) for i in modes for j in modes]
    entries += [(exc(i, j), exc(j, m), exc(i, m), 1.0) for i in modes for j in modes for m in modes]
    perm = [0] + [cre(i) for i in modes] + [ann(i) for i in modes]
    perm += [exc(j, i) for i in modes for j in modes]
    return _algebra(labels, _table(n, entries), np.eye(n)[perm], f"hp{d}")


def thermal_brownian(rho_plus: float, rho_minus: float) -> ItoAlgebra:
    """Quantum Brownian pair at finite temperature.

    Table: dw . dw* = rho_plus dt, dw* . dw = rho_minus dt, squares zero.
    Commutative only when rho_plus == rho_minus; rho_plus = 1, rho_minus = 0
    is the vacuum Brownian pair (the creation/annihilation span inside hp(1)).
    """
    if not 0 < rho_plus < np.inf:
        raise AlgebraError("rho_plus must be a positive finite real")
    if not 0 <= rho_minus < np.inf:
        raise AlgebraError("rho_minus must be a nonnegative finite real")
    mult = _table(3, [(1, 2, 0, rho_plus), (2, 1, 0, rho_minus)])
    return _algebra(("dt", "dw", "dw*"), mult, np.eye(3)[[0, 2, 1]], "thermal_brownian")


def periodic_wiener(K: int, rho: Sequence[float]) -> ItoAlgebra:
    """Finite truncation of the quantum Wiener periodic motion.

    Modes k = +-1..+-K with d_k* = d_{-k} and the self-inverse spectral
    weights rho_{-k} = 1/rho_k; the only nonzero products are
    d_k . d_{-k} = rho_k dt, so the algebra is second-order nilpotent.
    """
    if K < 1:
        raise AlgebraError("K must be >= 1")
    rho = [float(r) for r in rho]
    if len(rho) != K or not all(0 < r < np.inf for r in rho):
        raise AlgebraError("rho must contain K positive finite reals")
    # basis dt, d1..dK, d-1..d-K: d_k sits at 1 + idx and d_{-k} K places further round
    weights = rho + [1.0 / r for r in rho]
    if not all(w < np.inf for w in weights):
        raise AlgebraError("rho must have finite inverses 1/rho_k")
    perm = [0] + [1 + (idx + K) % (2 * K) for idx in range(2 * K)]
    mult = _table(1 + 2 * K, [(i, perm[i], 0, w) for i, w in enumerate(weights, 1)])
    labels = ["dt"] + [f"d{k + 1}" for k in range(K)] + [f"d{-(k + 1)}" for k in range(K)]
    return _algebra(labels, mult, np.eye(1 + 2 * K)[perm], f"periodic_wiener{K}")


@dataclass(frozen=True)
class FiniteGroup:
    """Finite group as element names plus a Cayley table of indices."""

    names: tuple[str, ...]
    table: np.ndarray  # table[i, j] = index of names[i] * names[j]
    name: str = "group"

    def __post_init__(self):
        table = np.array(self.table, dtype=int)
        n = len(self.names)
        if table.shape != (n, n):
            raise AlgebraError("Cayley table must be square over the element list")
        if table.min() < 0 or table.max() >= n:
            raise AlgebraError("Cayley table entries out of range")
        rows_latin = (np.sort(table, axis=1) == np.arange(n)).all()
        columns_latin = (np.sort(table, axis=0).T == np.arange(n)).all()
        if not (rows_latin and columns_latin):
            raise AlgebraError("Cayley table rows/columns must be permutations")
        # (g h) k against g (h k) over all h, k, one g at a time: O(n^2) memory
        if any(not np.array_equal(table[row], row[table]) for row in table):
            raise AlgebraError("Cayley table is not associative")
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "names", tuple(self.names))
        if self.identity() is None:
            raise AlgebraError("Cayley table has no identity element")
        if self.inverse() is None:
            raise AlgebraError("Cayley table has missing inverses")

    @property
    def order(self) -> int:
        return len(self.names)

    def identity(self) -> int | None:
        for e in range(self.order):
            if all(self.table[e, g] == g == self.table[g, e] for g in range(self.order)):
                return e
        return None

    def inverse(self) -> np.ndarray | None:
        e = self.identity()
        inv = np.full(self.order, -1, dtype=int)
        for g in range(self.order):
            hits = np.where(self.table[g] == e)[0]
            if hits.size != 1 or self.table[hits[0], g] != e:
                return None
            inv[g] = hits[0]
        return inv


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise AlgebraError("cyclic group order must be >= 1")
    table = np.add.outer(np.arange(n), np.arange(n)) % n
    return FiniteGroup(tuple(f"g{i}" for i in range(n)), table, name=f"z{n}")


def symmetric_group(n: int) -> FiniteGroup:
    """Symmetric group S_n with elements named by one-line notation."""
    if not 1 <= n <= 5:
        raise AlgebraError("symmetric_group supports 1 <= n <= 5")
    perms = sorted(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    m = len(perms)
    table = np.zeros((m, m), dtype=int)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            comp = tuple(p[q[k]] for k in range(n))
            table[i, j] = index[comp]
    names = tuple("p" + "".join(str(v) for v in p) for p in perms)
    return FiniteGroup(names, table, name=f"s{n}")


def group_levy(
    group: FiniteGroup,
    lam: Mapping[str, complex] | Sequence[complex] | None = None,
) -> ItoAlgebra:
    """Quantum compensated Poisson motion over a finite group.

    Table: d_g . d_h = lam_{gh} dt + d_{gh} with d_g* = d_{g^-1}.  The weight
    function must satisfy lam_{g^-1} = conj(lam_g), be self-inverse under
    convolution (sum_h conj(lam_{g h^-1}) lam_h = delta_{g,identity}) and
    induce a positive semidefinite Gram form [lam_{g^-1 h}].  The default is
    the delta function at the identity.
    """
    m = group.order
    e = group.identity()
    inv = group.inverse()
    table = group.table
    if lam is None:
        lam_vec = np.zeros(m, dtype=complex)
        lam_vec[e] = 1.0
    elif isinstance(lam, Mapping):
        lam_vec = np.zeros(m, dtype=complex)
        for key, val in lam.items():
            try:
                lam_vec[group.names.index(key)] = complex(val)
            except ValueError:
                raise AlgebraError(f"unknown group element {key!r}") from None
    else:
        lam_vec = np.asarray(list(lam), dtype=complex)
        if lam_vec.shape != (m,):
            raise AlgebraError("lam must assign one value per group element")

    if not rel_residual(lam_vec[inv], np.conj(lam_vec)) <= ItoAlgebra.tol:
        raise AlgebraError("lam violates the star symmetry lam(g^-1) = conj(lam(g))")
    conv = np.conj(lam_vec[table[:, inv]]) @ lam_vec
    delta = np.zeros(m, dtype=complex)
    delta[e] = 1.0
    if not rel_residual(conv, delta) <= ItoAlgebra.tol:
        raise AlgebraError("lam is not self-inverse under convolution")
    gram = lam_vec[table[inv]]
    eigs = np.linalg.eigvalsh((gram + gram.conj().T) / 2.0)
    if eigs.size and eigs[0] < -cutoff(np.abs(eigs), ItoAlgebra.tol):
        raise AlgebraError("lam is not positive definite on the group")

    pairs = [(g, h, table[g, h]) for g in range(m) for h in range(m)]
    entries = [(1 + g, 1 + h, 0, lam_vec[gh]) for g, h, gh in pairs]
    entries += [(1 + g, 1 + h, 1 + gh, 1.0) for g, h, gh in pairs]
    labels = ["dt"] + [f"d_{name}" for name in group.names]
    star = np.eye(1 + m)[[0, *(1 + inv)]]
    return _algebra(labels, _table(1 + m, entries), star, f"group_levy_{group.name}")


def thermal_matrix(n: int, rho: Sequence[float]) -> ItoAlgebra:
    """Thermal Levy motion over the full matrix algebra with diagonal weights.

    Basis: dt plus the matrix units x_pq; the weighted trace
    <xi|zeta> = tr(diag(rho) xi^dag zeta) supplies the dt part of products:

        x_pq . x_rs = delta_qr (rho_p delta_ps dt + x_ps)

    with (x_pq)* = x_qp.  Every nonzero zero-mean element has l(a* . a) > 0.
    """
    if n < 1:
        raise AlgebraError("n must be >= 1")
    rho = [float(r) for r in rho]
    if len(rho) != n or not all(0 < r < np.inf for r in rho):
        raise AlgebraError("rho must contain n positive finite reals")

    def unit(p, q):
        return 1 + p * n + q

    units = [(p, q) for p in range(n) for q in range(n)]
    entries = [(unit(p, q), unit(q, s), unit(p, s), 1.0) for p, q in units for s in range(n)]
    entries += [(unit(p, q), unit(q, p), 0, rho[p]) for p, q in units]
    perm = [0] + [unit(q, p) for p, q in units]
    labels = ["dt"] + [f"x{p + 1}{q + 1}" for p, q in units]
    dim = 1 + n * n
    return _algebra(labels, _table(dim, entries), np.eye(dim)[perm], f"thermal_matrix{n}")


def _zero_mean_basis(alg: ItoAlgebra) -> np.ndarray:
    """Independent spanning set of {a_i - l(a_i) d} in basis-index order, as rows."""
    vectors = np.eye(alg.dim, dtype=complex) - np.outer(alg.state, alg.death)
    return vectors[gram_schmidt(vectors, alg.tol)[0]]


def orthogonal_sum(a1: ItoAlgebra, a2: ItoAlgebra) -> ItoAlgebra:
    """Orthogonal sum sharing the death: all cross products vanish.

    The zero-mean parts of the summands are placed side by side; products,
    star and state act blockwise with the dt contribution redirected to the
    shared death.  The sum carries the larger of the summands' tolerances.
    """
    zm1 = _zero_mean_basis(a1)
    zm2 = _zero_mean_basis(a2)
    n = 1 + len(zm1) + len(zm2)
    used = {"dt"}
    labels = ["dt"] + lead_labels(a1.labels, zm1, used) + lead_labels(a2.labels, zm2, used)

    mult = np.zeros((n, n, n), dtype=complex)
    star_m = np.zeros((n, n), dtype=complex)
    star_m[0, 0] = 1.0
    offset = 1
    for alg, zm in ((a1, zm1), (a2, zm2)):
        # The summand on the basis (death, zero-mean rows): index 0 is dt.
        sub = subalgebra(alg, [alg.death, *zm])
        block = [0, *range(offset, offset + len(zm))]
        mult[np.ix_(block[1:], block[1:], block)] = sub.mult[1:, 1:]
        star_m[np.ix_(block[1:], block)] = sub.star[1:]
        offset += len(zm)
    name = f"{a1.name or 'a'}+{a2.name or 'b'}"
    return _algebra(labels, mult, star_m, name, (a1, a2))
