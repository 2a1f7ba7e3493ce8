"""Output oracles for the benchmark.

Each check takes a program output and the ground truth known when the input
was built, and returns None when they agree or a one-line reason when they do
not.  The ground truth never comes from the code under test: closed forms of
the builtin families, the input tables themselves, and invariance under a
change of basis.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

# Tolerances, fixed before any run.
REL_TOL = 1e-9         # exact identities (vacuum moments, targets)
SLOPE_TOL = 0.05       # fitted log-log slopes of ito_product_check
Z_BOUND = 6.0          # classical Monte Carlo estimates vs their targets
SLOPE_EXPECTED = {"corner": 2.0, "creation": 1.5, "annihilation": 1.5, "exchange": 1.0}


@dataclass(frozen=True)
class Expect:
    """Closed-form facts of an input algebra.

    ``hdim``, ``brownian`` and ``levy`` describe the faithful algebra (the
    quotient when ``ideal`` is nonzero); the split counts zero-mean dimensions.
    """

    n: int
    hdim: int
    ideal: int
    brownian: int
    levy: int


def hp_expect(d: int) -> Expect:
    return Expect(n=1 + 2 * d + d * d, hdim=d, ideal=0, brownian=0, levy=2 * d + d * d)


def thermal_matrix_expect(k: int) -> Expect:
    return Expect(n=1 + k * k, hdim=k * k, ideal=0, brownian=0, levy=k * k)


def periodic_wiener_expect(K: int) -> Expect:
    return Expect(n=1 + 2 * K, hdim=2 * K, ideal=0, brownian=2 * K, levy=0)


def group_levy_expect(order: int) -> Expect:
    # delta weight at the identity: the Gram form on the d_g is the identity
    return Expect(n=1 + order, hdim=order, ideal=0, brownian=0, levy=order)


def close(value, target, tol: float = REL_TOL) -> bool:
    value, target = complex(value), complex(target)
    return abs(value - target) <= tol * max(1.0, abs(value), abs(target))


def _num(raw) -> complex:
    """Number as the library's JSON writes it: a real, or [re, im]."""
    if isinstance(raw, list):
        return complex(raw[0], raw[1])
    return complex(raw)


def _load_json(code: int, text: str, expected_code: int = 0):
    if code != expected_code:
        return None, f"exit code {code}, expected {expected_code}"
    try:
        return json.loads(text), None
    except json.JSONDecodeError as exc:
        return None, f"output is not JSON: {exc}"


# --- CLI outputs (ladder) ---------------------------------------------------

def check_cli_check(code: int, text: str, exp: Expect) -> str | None:
    payload, err = _load_json(code, text, 3 if exp.ideal else 0)
    if err:
        return err
    if payload["axioms"]["passed"] is not True:
        return "axioms reported failing"
    if payload.get("ideal_dimension") != exp.ideal:
        return f"ideal dimension {payload.get('ideal_dimension')}, expected {exp.ideal}"
    return None


def check_cli_represent(code: int, text: str, exp: Expect) -> str | None:
    payload, err = _load_json(code, text)
    if err:
        return err
    if payload["hdim"] != exp.hdim:
        return f"hdim {payload['hdim']}, expected {exp.hdim}"
    if len(payload["labels"]) != exp.n or len(payload["quadruples"]) != exp.n:
        return f"representation covers {len(payload['quadruples'])} of {exp.n} basis elements"
    return None


def check_cli_decompose(code: int, text: str, exp: Expect) -> str | None:
    payload, err = _load_json(code, text)
    if err:
        return err
    return check_split(payload["hdim"], len(payload["brownian"]) - 1,
                       len(payload["levy"]) - 1, payload["report"]["passed"], exp)


def check_cli_fock(code: int, text: str, labels, state, t: float) -> str | None:
    """Every basis element's vacuum mean is l(a_i) t, read off the input state."""
    payload, err = _load_json(code, text)
    if err:
        return err
    if len(payload) != len(labels):
        return f"{len(payload)} reports for {len(labels)} basis elements"
    for rpt in payload:
        idx = labels.index(rpt["inputs"]["element"])
        mean = next(_num(e["value"]) for e in rpt["estimates"] if e["name"] == "mean")
        if not close(mean, state[idx] * t):
            return f"vacuum mean of {labels[idx]} is {mean}, expected {state[idx] * t}"
    return None


def check_split(hdim: int, brownian: int, levy: int, passed: bool, exp: Expect) -> str | None:
    if hdim != exp.hdim:
        return f"hdim {hdim}, expected {exp.hdim}"
    if (brownian, levy) != (exp.brownian, exp.levy):
        return f"split {brownian}/{levy}, expected {exp.brownian}/{exp.levy}"
    if passed is not True:
        return "decomposition report failing"
    return None


# --- library pipeline (rotated) ---------------------------------------------

def check_roundtrip(original, parsed) -> str | None:
    """parse(serialize(alg)) reproduces the tables bit-exactly."""
    if parsed is None:
        return "serialized text does not parse"
    for field in ("mult", "star", "state"):
        if not np.array_equal(getattr(parsed, field), getattr(original, field)):
            return f"round trip changes the {field} table"
    if parsed.labels != original.labels:
        return "round trip changes the basis labels"
    return None


def check_pipeline(res: dict, exp: Expect) -> str | None:
    """Invariants of a rotated input: they must match the unrotated family."""
    reason = check_roundtrip(res["original"], res["parsed"])
    if reason:
        return reason
    if res["axioms_passed"] is not True:
        return "axioms reported failing"
    if res["ideal_dim"] != exp.ideal:
        return f"ideal dimension {res['ideal_dim']}, expected {exp.ideal}"
    if res["faithful_dim"] != exp.n - exp.ideal:
        return f"quotient dimension {res['faithful_dim']}, expected {exp.n - exp.ideal}"
    reason = check_split(res["hdim"], res["brownian"], res["levy"], res["split_passed"], exp)
    if reason:
        return reason
    if res["bstar_passed"] is not True:
        return f"B*-identities fail: {res['bstar_residuals']}"
    return None


# --- simulators (stochastic) ------------------------------------------------

def check_vacuum(report, l_a: complex, l_sa: complex, t: float) -> str | None:
    """Mean l(a) t and second moment |l(a) t|^2 + l(a*.a) t, from the input table."""
    mean = report.estimate("mean").value
    if not close(mean, l_a * t):
        return f"vacuum mean {mean}, expected {l_a * t}"
    second = report.estimate("second_moment").value
    want = abs(l_a * t) ** 2 + l_sa * t
    if not close(second, want):
        return f"vacuum second moment {second}, expected {want}"
    return None


def check_slopes(report) -> str | None:
    for name, slope in report.slopes.items():
        want = SLOPE_EXPECTED[name]
        if not abs(slope - want) <= SLOPE_TOL:
            return f"{name} mismatch slope {slope:.4f}, expected {want}"
    return None


_EST = re.compile(r"^(mean|var|cov)\[([^,\]]+)(?:,([^\]]+))?\]$")


def classical_target(alg, name: str, t: float) -> float:
    """Target of a named classical estimate, read off the input table."""
    m = _EST.match(name)
    if not m:
        raise ValueError(f"unknown estimate {name!r}")
    kind, x, y = m.groups()
    if x not in alg.labels or (y is not None and y not in alg.labels):
        raise ValueError(f"estimate {name!r} names no basis element")
    if kind == "mean":
        return 0.0
    i = alg.labels.index(x)
    j = alg.labels.index(y if kind == "cov" else x)
    l_xy = complex(alg.mult[i, j] @ alg.state)
    return (l_xy * t).real if kind == "var" else l_xy.real


def check_classical(report, alg, t: float, n_paths: int, n_steps: int) -> str | None:
    """Every estimate sits within Z_BOUND standard errors of its table value."""
    if (report.inputs["n_paths"], report.inputs["n_steps"]) != (n_paths, n_steps):
        return f"sampled {report.inputs['n_paths']} x {report.inputs['n_steps']}, asked {n_paths} x {n_steps}"
    nc = alg.dim - 1
    if len(report.estimates) != 2 * nc + nc * (nc + 1) // 2:
        return f"{len(report.estimates)} estimates for {nc} components"
    for est in report.estimates:
        try:
            target = classical_target(alg, est.name, t)
        except ValueError as exc:
            return str(exc)
        if est.target is None or not close(est.target, target):
            return f"{est.name} target {est.target}, table gives {target}"
        se = est.stderr
        if se is None or not (0.0 < se < math.inf):
            return f"{est.name} has no usable standard error ({se})"
        if not abs(complex(est.value) - target) <= Z_BOUND * se:
            return f"{est.name} = {est.value} is more than {Z_BOUND} se from {target}"
    return None
