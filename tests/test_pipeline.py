"""Randomized end-to-end checks with construction-time ground truth.

Build an orthogonal sum whose Brownian/Levy content is known from the
chosen components, hide it behind a random well-conditioned change of
basis, and require the whole pipeline (axioms, representation, seminorms,
decomposition, serialization) to recover the structure.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import itoalg as ia
from itoalg.adsl import parse, serialize
from itoalg.builtins import _zero_mean_basis
from itoalg.core import rel_residual
from itoalg.gns import build_representation, minkowski_metric, triangular, verify_bstar

from conftest import make_catalog, ref_brownian_space, same_row_span


def _component(kind: str, rng: np.random.Generator):
    """Returns (algebra, brownian_zero_mean_dim, levy_zero_mean_dim)."""
    if kind == "wiener":
        return ia.wiener(), 1, 0
    if kind == "poisson":
        return ia.poisson(), 0, 1
    if kind == "thermal_brownian":
        return ia.thermal_brownian(rng.uniform(0.5, 4.0), rng.uniform(0.0, 4.0)), 2, 0
    if kind == "periodic_wiener":
        return ia.periodic_wiener(1, [rng.uniform(0.5, 3.0)]), 2, 0
    if kind == "hp1":
        return ia.hp(1), 0, 3
    if kind == "thermal_matrix":
        return ia.thermal_matrix(1, [rng.uniform(0.3, 3.0)]), 0, 1
    if kind == "group_levy_z2":
        return ia.group_levy(ia.cyclic_group(2)), 0, 2
    raise AssertionError(kind)


KINDS = [
    "wiener",
    "poisson",
    "thermal_brownian",
    "periodic_wiener",
    "hp1",
    "thermal_matrix",
    "group_levy_z2",
]


def _random_rotation(alg: ia.ItoAlgebra, rng: np.random.Generator) -> ia.ItoAlgebra:
    """Re-express the algebra on death + a random basis of the zero-mean part."""
    keep = _zero_mean_basis(alg)
    m = len(keep)
    raw = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    Q, _ = np.linalg.qr(raw)
    R = Q * rng.uniform(0.5, 2.0, size=m)[:, None]  # unitary rows, mild scaling
    mixed = R @ keep
    vectors = [alg.death] + [row for row in mixed]
    labels = ["dt"] + [f"v{i}" for i in range(m)]
    return ia.subalgebra(alg, vectors, labels=labels), np.array(vectors)


def _death_shear(alg: ia.ItoAlgebra, rng: np.random.Generator) -> ia.ItoAlgebra:
    """Re-express the algebra on a_i + c_i dt, keeping the death itself."""
    c = rng.uniform(-2.0, 2.0, size=alg.dim) * (alg.death == 0)
    return ia.subalgebra(alg, np.eye(alg.dim) + np.outer(c, alg.death), labels=alg.labels)


def _invariants(alg: ia.ItoAlgebra) -> dict[str, int]:
    """Ideal dimension, then hdim and component sizes of the faithful quotient."""
    ideal = ia.faithfulness_ideal(alg)
    faithful = ia.quotient(alg, ideal).algebra
    dec = ia.decompose(faithful)
    return {
        "ideal": ideal.dim,
        "hdim": dec.rep.hdim,
        "brownian": len(dec.brownian_zero_mean),
        "levy": len(dec.levy_zero_mean),
    }


@pytest.mark.parametrize("name", sorted(make_catalog()))
@pytest.mark.parametrize("seed", [0, 1])
def test_dimensions_invariant_under_basis_change(name, seed):
    alg = make_catalog()[name]
    rng = np.random.default_rng(seed)
    expected = _invariants(alg)
    assert _invariants(_random_rotation(alg, rng)[0]) == expected
    assert _invariants(_death_shear(alg, rng)) == expected


@st.composite
def scenarios(draw):
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=2))
    seed = draw(st.integers(0, 2**31 - 1))
    return kinds, seed


@settings(max_examples=15, deadline=None)
@given(scenarios())
def test_random_sum_roundtrip_through_rotation(scenario):
    kinds, seed = scenario
    rng = np.random.default_rng(seed)

    parts = [_component(k, rng) for k in kinds]
    alg = parts[0][0]
    nb = parts[0][1]
    nz = parts[0][2]
    for part, b, z in parts[1:]:
        alg = ia.orthogonal_sum(alg, part)
        nb += b
        nz += z

    # ground truth spans in the unrotated sum coordinates
    offsets = []
    pos = 1
    for part, b, z in parts:
        offsets.append((pos, b, z))
        pos += b + z
    brown_rows, levy_rows = [], []
    for (start, b, z), (part, _, _) in zip(offsets, parts):
        dec_part = ia.decompose(part)
        for e in dec_part.brownian_zero_mean:
            row = np.zeros(alg.dim, dtype=complex)
            row[start : start + part.dim - 1] = e.coeffs[1:]
            brown_rows.append(row)
        for e in dec_part.levy_zero_mean:
            row = np.zeros(alg.dim, dtype=complex)
            row[start : start + part.dim - 1] = e.coeffs[1:]
            levy_rows.append(row)

    rotated, span = _random_rotation(alg, rng)
    assert ia.verify_axioms(rotated).passed

    rep = build_representation(rotated)
    G = minkowski_metric(rep.hdim)
    for i in range(rotated.dim):
        Ti = triangular(rep, rotated.basis_element(i))
        for j in range(rotated.dim):
            Tj = triangular(rep, rotated.basis_element(j))
            prod = rotated.basis_element(i) * rotated.basis_element(j)
            assert rel_residual(Ti @ Tj, triangular(rep, prod)) <= 1e-8
        assert rel_residual(
            triangular(rep, rotated.basis_element(i).star()), G @ Ti.conj().T @ G
        ) <= 1e-8

    assert verify_bstar(rep, count=40, seed=seed).passed

    dec = ia.decompose(rotated)
    assert dec.report.passed, dec.report.residuals
    assert len(dec.brownian_zero_mean) == nb
    assert len(dec.levy_zero_mean) == nz
    # the Brownian zero-mean span is the table-only space B0
    brownian = np.array([e.coeffs for e in dec.brownian_zero_mean]).reshape(-1, rotated.dim)
    assert same_row_span(brownian, ref_brownian_space(rotated))

    # map the recovered spans back to the original coordinates and compare
    def back(elements):
        return np.array([e.coeffs @ span for e in elements])

    for rows, expected in ((back(dec.brownian_zero_mean), brown_rows),
                           (back(dec.levy_zero_mean), levy_rows)):
        if not len(expected):
            assert rows.shape[0] == 0
            continue
        assert same_row_span(rows, expected, 1e-8)

    # canonical text form survives ugly floating-point tables bit-exactly
    text = serialize(rotated)
    again = parse(text)
    assert again.ok
    assert np.array_equal(again.algebra.mult, rotated.mult)
    assert np.array_equal(again.algebra.star, rotated.star)
    assert np.array_equal(again.algebra.state, rotated.state)
    assert not again.diagnostics
    assert ia.verify_axioms(again.algebra).passed
