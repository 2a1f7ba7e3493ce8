"""Command-line surface: check, represent, decompose, norms, simulate, catalog.

Exit codes: 0 success, 1 I/O or parse error, 2 axiom failure or any other
library error, including an allocation the machine refuses (``MemoryError``),
3 non-faithful input (check prints the quotient in that case).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np

from . import builtins as catalog_mod
from .adsl import parse, parse_lincomb, serialize, _tokenize
from .core import AlgebraError, Element
from .decomp import decompose
from .focksim import classical_paths, vacuum_moments
from .gns import NonFaithfulError, build_representation, seminorms, triangular
from .ideal import faithfulness_ideal, quotient

EXIT_OK = 0
EXIT_IO = 1
EXIT_AXIOMS = 2
EXIT_NONFAITHFUL = 3

_CATALOG = {
    "newton": (catalog_mod.newton, {}),
    "wiener": (catalog_mod.wiener, {}),
    "poisson": (catalog_mod.poisson, {}),
    "zero_intensity_poisson": (catalog_mod.zero_intensity_poisson, {}),
    "hp": (catalog_mod.hp, {"d": 1}),
    "thermal_brownian": (catalog_mod.thermal_brownian, {"rho_plus": 2.0, "rho_minus": 0.5}),
    "periodic_wiener": (catalog_mod.periodic_wiener, {"K": 2, "rho": [2.0, 3.0]}),
    "group_levy": (None, {"group": "s3"}),
    "thermal_matrix": (catalog_mod.thermal_matrix, {"n": 2, "rho": [2.0 / 3.0, 1.0 / 3.0]}),
    "orthogonal_sum": (None, {"of": ["wiener", "poisson"]}),
}


def _mat_json(M: np.ndarray) -> list:
    """Row-major matrix as [re, im] pairs."""
    M = np.atleast_2d(np.asarray(M, dtype=complex))
    return [[[z.real, z.imag] for z in row] for row in M]


def _vec_json(v: np.ndarray) -> list:
    return [[z.real, z.imag] for z in np.asarray(v, dtype=complex).reshape(-1)]


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None, EXIT_IO
    result = parse(text)
    for diag in result.diagnostics:
        print(str(diag), file=sys.stderr)
    if not result.ok:
        return None, EXIT_IO
    return result.algebra, EXIT_OK


def _cmd_check(args) -> int:
    alg, code = _load(args.file)
    if alg is None:
        return code
    if args.tol is not None:
        alg = dataclasses.replace(alg, tol=args.tol)
    report = alg.axioms
    payload = {"axioms": report.to_dict()}
    code = EXIT_OK
    ideal_dim = None
    quotient_text = None
    if not report.passed:
        code = EXIT_AXIOMS
    else:
        result, code = _run_stage(_faithfulness, alg)
        if result is None:
            return code
        ideal_dim, quotient_text = result
        payload["ideal_dimension"] = ideal_dim
        if quotient_text is not None:
            code = EXIT_NONFAITHFUL
            payload["quotient"] = quotient_text
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(report.summary())
        if ideal_dim is not None:
            print(f"faithfulness ideal dimension: {ideal_dim}")
        if quotient_text is not None:
            print("quotient algebra:")
            print(quotient_text, end="")
    return code


def _faithfulness(alg) -> tuple[int, str | None]:
    """Dimension of the faithfulness ideal, and the quotient's text when it is nontrivial."""
    ideal = faithfulness_ideal(alg)
    return ideal.dim, None if ideal.is_trivial else serialize(quotient(alg, ideal).algebra)


def _run_stage(stage, alg, *args):
    """``stage(alg, *args)`` behind the algebra's axiom report; returns (result, exit code).

    A failing report is printed and the stage is not run; a library error
    from the stage is printed and mapped to its exit code.
    """
    report = alg.axioms
    if not report.passed:
        print(report.summary(), file=sys.stderr)
        return None, EXIT_AXIOMS
    try:
        return stage(alg, *args), EXIT_OK
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, EXIT_NONFAITHFUL if isinstance(exc, NonFaithfulError) else EXIT_AXIOMS


def _cmd_represent(args) -> int:
    alg, code = _load(args.file)
    if alg is None:
        return code
    rep, code = _run_stage(build_representation, alg)
    if rep is None:
        return code
    mats = {lab: triangular(rep, alg.basis_element(i)) for i, lab in enumerate(alg.labels)}
    if args.json:
        payload = {
            "hdim": rep.hdim,
            "labels": list(alg.labels),
            "quadruples": [
                {
                    "label": lab,
                    "l": _vec_json(np.array([rep.l_of(alg.basis_element(i))]))[0],
                    "k": _vec_json(rep.k_of(alg.basis_element(i))),
                    "kdag": _vec_json(rep.kdag_of(alg.basis_element(i))),
                    "i": _mat_json(rep.i_of(alg.basis_element(i))),
                }
                for i, lab in enumerate(alg.labels)
            ],
            "triangular": {lab: _mat_json(M) for lab, M in mats.items()},
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.latex:
        print(f"% hdim = {rep.hdim}")
        for lab, M in mats.items():
            rows = " \\\\\n".join(
                " & ".join(_fmt_num(z) for z in row) for row in M
            )
            print(f"% {lab}\n\\begin{{pmatrix}}\n{rows}\n\\end{{pmatrix}}")
    else:
        print(f"hdim: {rep.hdim}")
        for lab, M in mats.items():
            print(f"triangular({lab}):")
            for row in M:
                print("  [" + "  ".join(f"{_fmt_num(z):>10s}" for z in row) + "]")
    return EXIT_OK


def _fmt_num(z: complex) -> str:
    z = complex(z)
    if z.imag == 0:
        return f"{z.real:.6g}"
    return f"{z.real:.6g}{z.imag:+.6g}i"


def _cmd_decompose(args) -> int:
    alg, code = _load(args.file)
    if alg is None:
        return code
    dec, code = _run_stage(decompose, alg)
    if dec is None:
        return code
    if args.json:
        print(json.dumps(dec.to_dict(), indent=2, sort_keys=True))
    else:
        def show(title, elems):
            print(f"{title} ({len(elems)} elements):")
            for e in elems:
                print(f"  {e}")

        show("brownian component", dec.brownian)
        show("levy component", dec.levy)
        status = "pass" if dec.report.passed else "FAIL"
        print(f"verification: {status}")
        for name, resid in dec.report.residuals.items():
            print(f"  {name:24s} {resid:.3e}")
    return EXIT_OK if dec.report.passed else EXIT_AXIOMS


def _cmd_norms(args) -> int:
    alg, code = _load(args.file)
    if alg is None:
        return code
    rep, code = _run_stage(build_representation, alg)
    if rep is None:
        return code
    tokens = _tokenize(args.element)
    diags = []
    vec = parse_lincomb(tokens, {lab: i for i, lab in enumerate(alg.labels)}, alg.dim, 1, diags)
    if vec is None:
        for d in diags:
            print(str(d), file=sys.stderr)
        return EXIT_IO
    norms = seminorms(rep, Element(alg, vec))
    print(f"operator: {norms.op:.12g}")
    print(f"plus:     {norms.plus:.12g}")
    print(f"minus:    {norms.minus:.12g}")
    print(f"corner:   {norms.corner:.12g}")
    return EXIT_OK


def _fock_reports(alg, t: float, dt: float) -> list:
    """Vacuum moments of every basis element on round(t / dt) slots."""
    if not dt > 0:
        raise AlgebraError("dt must be positive")
    rep = build_representation(alg)
    n_slots = max(1, int(round(t / dt)))
    reports = []
    for i, lab in enumerate(alg.labels):
        rpt = vacuum_moments(rep, alg.basis_element(i), t, n_slots)
        rpt.inputs["element"] = lab
        reports.append(rpt)
    return reports


def _cmd_simulate(args) -> int:
    alg, code = _load(args.file)
    if alg is None:
        return code
    if args.model == "fock":
        reports, code = _run_stage(_fock_reports, alg, args.t, args.dt)
        if reports is None:
            return code
        if args.json:
            print(json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True))
        else:
            for rpt in reports:
                print(f"element {rpt.inputs['element']}:")
                for est in rpt.estimates:
                    tgt = "" if est.target is None else f" (target {est._num(est.target)})"
                    print(f"  {est.name:28s} {est._num(est.value)}{tgt}")
        return EXIT_OK
    rpt, code = _run_stage(classical_paths, alg, args.t, args.dt, args.paths, args.seed)
    if rpt is None:
        return code
    if args.json:
        print(json.dumps(rpt.to_dict(), indent=2, sort_keys=True))
    else:
        for est in rpt.estimates:
            se = "" if est.stderr is None else f" +- {est.stderr:.3g}"
            tgt = "" if est.target is None else f" (target {est._num(est.target)})"
            print(f"{est.name:24s} {est._num(est.value):.6g}{se}{tgt}")
    return EXIT_OK


def _parse_params(raw: str | None) -> dict:
    out = {}
    if not raw:
        return out
    for chunk in raw.split(","):
        if not chunk.strip():
            continue
        if "=" not in chunk:
            raise ValueError(f"bad parameter {chunk!r}, expected key=value")
        key, value = chunk.split("=", 1)
        key, value = key.strip(), value.strip()
        if ":" in value:
            out[key] = [float(v) for v in value.split(":")]
        else:
            try:
                out[key] = int(value)
            except ValueError:
                try:
                    out[key] = float(value)
                except ValueError:
                    out[key] = value
    return out


def _make_builtin(name: str, params: dict):
    if name == "group_levy":
        group_name = str(params.pop("group", "s3")).lower()
        if group_name.startswith("s"):
            group = catalog_mod.symmetric_group(int(group_name[1:] or 3))
        elif group_name.startswith("z"):
            group = catalog_mod.cyclic_group(int(group_name[1:] or 2))
        else:
            raise ValueError(f"unknown group {group_name!r} (use sN or zN)")
        return catalog_mod.group_levy(group, None, **params)
    if name == "orthogonal_sum":
        parts = params.pop("of", ["wiener", "poisson"])
        if isinstance(parts, str):
            parts = parts.split(":")
        algs = [_make_builtin(p, dict(_CATALOG[p][1])) for p in parts]
        out = algs[0]
        for nxt in algs[1:]:
            out = catalog_mod.orthogonal_sum(out, nxt)
        return out
    fn, defaults = _CATALOG[name]
    merged = dict(defaults)
    for key, value in params.items():
        # a list-valued parameter given one value on the command line
        wrap = isinstance(defaults.get(key), list) and not isinstance(value, list)
        merged[key] = [value] if wrap else value
    return fn(**merged)


def _cmd_catalog(args) -> int:
    if not args.name:
        for name, (_, defaults) in _CATALOG.items():
            shown = ", ".join(f"{k}={v}" for k, v in defaults.items())
            print(f"{name}({shown})")
        return EXIT_OK
    if args.name not in _CATALOG:
        print(f"error: unknown builtin {args.name!r}", file=sys.stderr)
        return EXIT_IO
    try:
        alg = _make_builtin(args.name, _parse_params(args.params))
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    text = serialize(alg)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="itoalg", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="verify axioms and faithfulness")
    c.add_argument("file")
    c.add_argument("--tol", type=float, default=None)
    c.add_argument("--json", action="store_true")
    c.set_defaults(fn=_cmd_check)

    r = sub.add_parser("represent", help="canonical triangular representation")
    r.add_argument("file")
    grp = r.add_mutually_exclusive_group()
    grp.add_argument("--json", action="store_true")
    grp.add_argument("--latex", action="store_true")
    r.set_defaults(fn=_cmd_represent)

    d = sub.add_parser("decompose", help="Brownian/Levy decomposition")
    d.add_argument("file")
    d.add_argument("--json", action="store_true")
    d.set_defaults(fn=_cmd_decompose)

    n = sub.add_parser("norms", help="four seminorms of an element")
    n.add_argument("file")
    n.add_argument("--element", required=True, help='lincomb, e.g. "1 dt + 2i dw"')
    n.set_defaults(fn=_cmd_norms)

    s = sub.add_parser("simulate", help="toy-Fock or classical Monte Carlo report")
    s.add_argument("file")
    s.add_argument("--model", choices=("fock", "classical"), required=True)
    s.add_argument("--t", type=float, default=1.0)
    s.add_argument("--dt", type=float, default=0.01)
    s.add_argument("--paths", type=int, default=10000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--json", action="store_true")
    s.set_defaults(fn=_cmd_simulate)

    k = sub.add_parser("catalog", help="list or emit builtin algebras")
    k.add_argument("--name")
    k.add_argument("--params", help="comma-separated key=value, lists use ':'")
    k.add_argument("-o", "--output")
    k.set_defaults(fn=_cmd_catalog)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except MemoryError as exc:
        # numpy's message names the size and shape that could not be allocated
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_AXIOMS


if __name__ == "__main__":
    sys.exit(main())
