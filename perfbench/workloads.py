"""The three workloads: inputs made from the seed, a schedule of operations, oracles.

Every operation calls the program through module attributes looked up at
call time, so a traced run sees the same calls as an untraced one.  A pass
is the workload's schedule in order.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from typing import Callable

import numpy as np

import itoalg
from itoalg import cli, focksim

import oracles as orc


@dataclass(frozen=True)
class Op:
    """One operation: ``call`` is timed, ``check`` (the oracle) is not."""

    name: str
    call: Callable[[int], object]           # pass index -> raw output
    check: Callable[[object], str | None]   # raw output -> failure reason or None
    known_errors: tuple[str, ...] = ()       # exception types of documented defects
    info: Callable[[object], dict] | None = None


class SetupError(RuntimeError):
    """An input could not be built as its closed form says."""


def derive_seed(seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def _built(build, exp: orc.Expect, what: str):
    alg = build()
    if alg.dim != exp.n:
        raise SetupError(f"{what} has {alg.dim} basis elements, expected {exp.n}")
    return alg


# --- ladder -----------------------------------------------------------------

LADDER_COMMANDS = (("check",), ("represent",), ("decompose",), ("simulate", "--model", "fock"))
# The four commands on hp(6) take about 35 s together on a 2-core Xeon, more
# than a run can spend; its check alone covers parsing above adsl.VERIFY_LIMIT.
HP6_COMMANDS = LADDER_COMMANDS[:1]
CLI_T = 1.0  # the CLI's default --t


def ladder_rungs(rng: np.random.Generator):
    """ROADMAP size ladder in increasing basis size; weights drawn from the seed."""
    rho5 = rng.uniform(0.5, 2.0, 5).tolist()
    rho16 = rng.uniform(0.5, 2.0, 16).tolist()
    return [
        ("hp2", lambda: itoalg.hp(2), orc.hp_expect(2)),
        ("hp3", lambda: itoalg.hp(3), orc.hp_expect(3)),
        ("hp4", lambda: itoalg.hp(4), orc.hp_expect(4)),
        ("s4", lambda: itoalg.group_levy(itoalg.symmetric_group(4)), orc.group_levy_expect(24)),
        ("tm5", lambda: itoalg.thermal_matrix(5, rho5), orc.thermal_matrix_expect(5)),
        ("pw16", lambda: itoalg.periodic_wiener(16, rho16), orc.periodic_wiener_expect(16)),
        ("hp5", lambda: itoalg.hp(5), orc.hp_expect(5)),
        ("hp6", lambda: itoalg.hp(6), orc.hp_expect(6)),
    ]


def cli_op(rung: str, command: tuple, path, alg, exp: orc.Expect) -> Op:
    argv = [command[0], str(path), *command[1:], "--json"]

    def call(_pass):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue()

    kind = command[0]
    if kind == "check":
        check = lambda raw: orc.check_cli_check(*raw, exp)
    elif kind == "represent":
        check = lambda raw: orc.check_cli_represent(*raw, exp)
    elif kind == "decompose":
        check = lambda raw: orc.check_cli_decompose(*raw, exp)
    else:
        check = lambda raw: orc.check_cli_fock(*raw, list(alg.labels), alg.state, CLI_T)
    # ROADMAP defect 3b: the fock model's memory cap escapes cli.main.
    known = ("MemoryCapError",) if kind == "simulate" else ()
    return Op(f"{kind} {rung}", call, check, known,
              lambda raw: {"cli.main.out_bytes": len(raw[1].encode("utf-8"))})


def setup_ladder(seed: int, workdir):
    ops = []
    for rung, build, exp in ladder_rungs(np.random.default_rng(seed)):
        alg = _built(build, exp, rung)
        path = workdir / f"{rung}.ito"
        path.write_text(itoalg.serialize(alg), encoding="utf-8")
        commands = HP6_COMMANDS if rung == "hp6" else LADDER_COMMANDS
        ops.extend(cli_op(rung, command, path, alg, exp) for command in commands)
    return ops, ops[0]


# --- rotated ----------------------------------------------------------------

BSTAR_SAMPLES = 100


def rotate(alg, rng: np.random.Generator):
    """Re-express the algebra on the death plus a random basis of its zero-mean part.

    Rows of a random unitary scaled by factors in [0.5, 2] keep the change of
    basis well conditioned (condition number at most 4).
    """
    n = alg.dim
    keep, ortho = [], []
    for i in range(n):
        v = -alg.state[i] * alg.death
        v[i] += 1.0
        w = v.copy()
        for u in ortho:
            w -= (np.conj(u) @ w) * u
        if np.linalg.norm(w) > 1e-9:
            ortho.append(w / np.linalg.norm(w))
            keep.append(v)
    m = len(keep)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    mixed = (q * rng.uniform(0.5, 2.0, size=m)[:, None]) @ np.array(keep)
    vectors = [alg.death, *mixed]
    labels = ["dt"] + [f"v{i}" for i in range(m)]
    return itoalg.subalgebra(alg, vectors, labels=labels, name=f"{alg.name}_rotated")


def rotated_inputs(rng: np.random.Generator):
    rho4 = rng.uniform(0.5, 2.0, 4).tolist()
    rho8 = rng.uniform(0.5, 2.0, 8).tolist()
    return [
        ("hp3+zip",
         lambda: itoalg.orthogonal_sum(itoalg.hp(3), itoalg.zero_intensity_poisson()),
         orc.Expect(n=17, hdim=3, ideal=1, brownian=0, levy=15)),
        ("pw8", lambda: itoalg.periodic_wiener(8, rho8), orc.periodic_wiener_expect(8)),
        ("tm4", lambda: itoalg.thermal_matrix(4, rho4), orc.thermal_matrix_expect(4)),
        ("hp4", lambda: itoalg.hp(4), orc.hp_expect(4)),
        ("s4", lambda: itoalg.group_levy(itoalg.symmetric_group(4)), orc.group_levy_expect(24)),
        ("hp5", lambda: itoalg.hp(5), orc.hp_expect(5)),
    ]


def _pipeline_op(name: str, alg, exp: orc.Expect, seed: int, index: int) -> Op:
    def call(pass_idx):
        parsed = itoalg.parse(itoalg.serialize(alg)).algebra
        res = {"original": alg, "parsed": parsed}
        if parsed is None:
            return res
        res["axioms_passed"] = itoalg.verify_axioms(parsed).passed
        ideal = itoalg.faithfulness_ideal(parsed)
        faithful = parsed if ideal.is_trivial else itoalg.quotient(parsed, ideal).algebra
        rep = itoalg.build_representation(faithful)
        dec = itoalg.decompose(faithful)
        bstar = itoalg.verify_bstar(rep, count=BSTAR_SAMPLES,
                                    seed=derive_seed(seed, index, pass_idx))
        res.update(
            ideal_dim=ideal.dim,
            faithful_dim=faithful.dim,
            hdim=rep.hdim,
            brownian=len(dec.brownian_zero_mean),
            levy=len(dec.levy_zero_mean),
            split_passed=dec.report.passed,
            bstar_passed=bstar.passed,
            bstar_residuals=bstar.residuals,
        )
        return res

    return Op(f"pipeline {name}", call, lambda res: orc.check_pipeline(res, exp))


def setup_rotated(seed: int, workdir):
    rng = np.random.default_rng(seed)
    ops = []
    for index, (name, build, exp) in enumerate(rotated_inputs(rng)):
        rotated = rotate(_built(build, exp, name), rng)
        ops.append(_pipeline_op(name, rotated, exp, seed, index))
    return ops, ops[0]


# --- stochastic -------------------------------------------------------------

FOCK_T = 1.0
FOCK_SLOTS = 250        # fits the default state-vector cap for hdim <= 4
DTS = (0.1, 0.03, 0.01, 0.003, 0.001)
RANDOM_ELEMENTS = 8
CLASSICAL_T = 1.0


def fock_algebras(rng: np.random.Generator):
    rho2 = rng.uniform(0.5, 2.0, 2).tolist()
    return [
        ("hp1", lambda: itoalg.hp(1)),
        ("hp2", lambda: itoalg.hp(2)),
        ("hp3", lambda: itoalg.hp(3)),
        ("tb", lambda: itoalg.thermal_brownian(2.0, 0.5)),
        ("tm2", lambda: itoalg.thermal_matrix(2, rho2)),
    ]


def classical_sum(kinds: str):
    """Orthogonal sum of wiener (w) and poisson (m) components."""
    make = {"w": itoalg.wiener, "m": itoalg.poisson}
    alg = make[kinds[0]]()
    for kind in kinds[1:]:
        alg = itoalg.orthogonal_sum(alg, make[kind]())
    return alg


def _fock_ops(name: str, alg, rep, rng: np.random.Generator):
    """One operation per element: its vacuum moments and its Ito product check."""
    n = alg.dim
    coeffs = [np.eye(n, dtype=complex)[i] for i in range(n)]
    coeffs += [rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(RANDOM_ELEMENTS)]
    ops = []
    for k, a in enumerate(coeffs):
        a_star = np.conj(a) @ alg.star
        l_a = complex(a @ alg.state)
        l_sa = complex(np.einsum("p,q,pqk,k->", a_star, a, alg.mult, alg.state))
        x, x_star = alg.element(a), alg.element(a_star)
        ops.append(Op(
            f"fock {name}[{k}]",
            lambda _p, x=x, x_star=x_star: (
                focksim.vacuum_moments(rep, x, FOCK_T, FOCK_SLOTS),
                focksim.ito_product_check(rep, x, x_star, DTS),
            ),
            lambda r, l_a=l_a, l_sa=l_sa: (
                orc.check_vacuum(r[0], l_a, l_sa, FOCK_T) or orc.check_slopes(r[1])
            ),
        ))
    return ops


def _classical_op(kinds: str, n_paths: int, n_steps: int, seed: int, index: int) -> Op:
    alg = classical_sum(kinds)
    dt = CLASSICAL_T / n_steps
    return Op(
        f"classical_paths {kinds} {n_paths}x{n_steps}",
        lambda pass_idx: focksim.classical_paths(
            alg, CLASSICAL_T, dt, n_paths, derive_seed(seed, index, pass_idx)),
        lambda r: orc.check_classical(r, alg, CLASSICAL_T, n_paths, n_steps),
    )


def setup_stochastic(seed: int, workdir):
    rng = np.random.default_rng(seed)
    fock = []
    for name, build in fock_algebras(rng):
        alg = build()
        fock.extend(_fock_ops(name, alg, itoalg.build_representation(alg), rng))
    # The fock calls run twice per pass: more samples, spread over the window.
    ops = [*fock, _classical_op("wmm", 100_000, 100, seed, 0),
           *fock, _classical_op("wwmmm", 20_000, 1000, seed, 1)]
    return ops, fock[0]


WORKLOADS = {
    "ladder": setup_ladder,
    "rotated": setup_rotated,
    "stochastic": setup_stochastic,
}
