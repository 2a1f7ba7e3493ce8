import numpy as np
import pytest

import itoalg as ia


def make_catalog() -> dict[str, ia.ItoAlgebra]:
    """The standard instances exercised throughout the suite."""
    return {
        "newton": ia.newton(),
        "wiener": ia.wiener(),
        "poisson": ia.poisson(),
        "zero_intensity_poisson": ia.zero_intensity_poisson(),
        "hp1": ia.hp(1),
        "hp2": ia.hp(2),
        "hp3": ia.hp(3),
        "thermal_brownian": ia.thermal_brownian(2.0, 0.5),
        "periodic_wiener": ia.periodic_wiener(2, (2.0, 3.0)),
        "group_levy_s3": ia.group_levy(ia.symmetric_group(3)),
        "thermal_matrix": ia.thermal_matrix(2, (2.0 / 3.0, 1.0 / 3.0)),
        "wiener+poisson": ia.orthogonal_sum(ia.wiener(), ia.poisson()),
    }


@pytest.fixture(scope="session")
def catalog():
    return make_catalog()


@pytest.fixture(scope="session")
def faithful_catalog(catalog):
    """Every builtin except the Poisson process of zero intensity."""
    return {k: v for k, v in catalog.items() if k != "zero_intensity_poisson"}


def ref_multiply(alg: ia.ItoAlgebra, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Reference product by explicit loops, independent of the einsum path."""
    n = alg.dim
    out = np.zeros(n, dtype=complex)
    for i in range(n):
        if x[i] == 0:
            continue
        for j in range(n):
            if y[j] == 0:
                continue
            for k in range(n):
                out[k] += x[i] * y[j] * alg.mult[i, j, k]
    return out


def ref_star(alg: ia.ItoAlgebra, x: np.ndarray) -> np.ndarray:
    n = alg.dim
    out = np.zeros(n, dtype=complex)
    for i in range(n):
        for k in range(n):
            out[k] += np.conj(x[i]) * alg.star[i, k]
    return out


def ref_faithfulness_ideal(alg: ia.ItoAlgebra) -> np.ndarray:
    """Reference ideal: orthonormal rows spanning the null space of the system
    l(x), l(a_i . x), l(x . a_j), l(a_i . x . a_j), built from the table alone."""
    c, l = alg.mult, alg.state
    n = alg.dim
    L2 = c @ l  # L2[i, j] = l(a_i . a_j)
    triple = np.transpose(c @ L2, (0, 2, 1)).reshape(n * n, n)  # x -> l(a_i . x . a_j)
    system = np.vstack([l[np.newaxis, :], L2, L2.T, triple])
    _, svals, vh = np.linalg.svd(system, full_matrices=False)
    return vh[ia.core.numerical_rank(svals, alg.tol):].conj()
