"""Command-line surface: check, represent, decompose, norms, simulate, catalog.

Every file command is one pipeline in ``main``: the file is read and parsed
once, at the command's tolerance; the command runs its stage behind the one
axiom gate ``_run_stage`` and returns its exit code, its JSON payload (a
callable) and its text lines; the one writer ``_emit`` prints the payload
under ``--json`` and the lines otherwise.  A failure prints its message and
raises ``_Failed``, which ``main`` turns into the exit code.

The JSON form is strict RFC 8259 JSON on one line: keys sorted, no spaces
after separators, and a non-finite number (a NaN residual, an overflowing
moment) written as the string ``"nan"``, ``"inf"`` or ``"-inf"``, which
``float()`` reads back.  A payload may hold complex ndarrays, written as
``core.complex_pairs`` writes them.  ``_dumps`` walks the payload once: a
dict key by key in sorted order, a list whole through the C encoder unless
it holds an array or a non-finite float, and an array as one ``%`` format
of words into a bracket template cached by shape, each distinct real (by
bit pattern) formatted once per payload.  ``represent`` hands it views of
one stack of triangular matrices, so the quadruples, which repeat the
matrices' entries, format nothing again.  The argument parser is built
once per process.

Exit codes: 0 success, 1 I/O or parse error, 2 axiom failure or any other
library error, including an allocation the machine refuses (``MemoryError``),
3 non-faithful input (check prints the quotient in that case).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import builtins as catalog_mod
from .adsl import parse, parse_lincomb, serialize
from .core import AlgebraError, ItoAlgebra
from .decomp import decompose
from .focksim import classical_paths, vacuum_moments
from .gns import NonFaithfulError, build_representation, seminorms
from .ideal import faithfulness_ideal, quotient

EXIT_OK = 0
EXIT_IO = 1
EXIT_AXIOMS = 2
EXIT_NONFAITHFUL = 3


def _group_levy(group: str):
    """``group_levy`` over the symmetric group ``sN`` or the cyclic group ``zN``."""
    group = group.lower()
    if group.startswith("s"):
        finite_group = catalog_mod.symmetric_group(int(group[1:] or 3))
    elif group.startswith("z"):
        finite_group = catalog_mod.cyclic_group(int(group[1:] or 2))
    else:
        raise ValueError(f"unknown group {group!r} (use sN or zN)")
    return catalog_mod.group_levy(finite_group)


def _orthogonal_sum(of: list):
    """Orthogonal sum of the named builtins, each at its catalog defaults."""
    return functools.reduce(catalog_mod.orthogonal_sum, [_make_builtin(name, None) for name in of])


_CATALOG = {
    "newton": (catalog_mod.newton, {}),
    "wiener": (catalog_mod.wiener, {}),
    "poisson": (catalog_mod.poisson, {}),
    "zero_intensity_poisson": (catalog_mod.zero_intensity_poisson, {}),
    "hp": (catalog_mod.hp, {"d": 1}),
    "thermal_brownian": (catalog_mod.thermal_brownian, {"rho_plus": 2.0, "rho_minus": 0.5}),
    "periodic_wiener": (catalog_mod.periodic_wiener, {"K": 2, "rho": [2.0, 3.0]}),
    "group_levy": (_group_levy, {"group": "s3"}),
    "thermal_matrix": (catalog_mod.thermal_matrix, {"n": 2, "rho": [2.0 / 3.0, 1.0 / 3.0]}),
    "orthogonal_sum": (_orthogonal_sum, {"of": ["wiener", "poisson"]}),
}


class _Failed(Exception):
    """Ends the command with exit code ``args[0]``; its message is already on stderr."""


def _load(path: str, tol: float):
    """The algebra in ``path``, parsed at ``tol``, with its diagnostics printed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise _Failed(EXIT_IO) from exc
    result = parse(text, tol=tol)
    for diag in result.diagnostics:
        print(str(diag), file=sys.stderr)
    if not result.ok:
        raise _Failed(EXIT_IO)
    return result.algebra


def _run_stage(stage, alg, *args):
    """``stage(alg, *args)`` behind the algebra's axiom report.

    A failing report is printed and the stage is not run; a library error
    from the stage is printed.  Either ends the command with its exit code.
    """
    report = alg.axioms
    if not report.passed:
        print(report.summary(), file=sys.stderr)
        raise _Failed(EXIT_AXIOMS)
    try:
        return stage(alg, *args)
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise _Failed(EXIT_NONFAITHFUL if isinstance(exc, NonFaithfulError) else EXIT_AXIOMS) from exc


@functools.lru_cache(maxsize=64)
def _template(shape: tuple) -> str:
    """The bracket text of a complex array of ``shape``, with ``[%s,%s]`` for each entry."""
    text = "[%s,%s]"
    for size in reversed(shape):
        text = "[" + ",".join([text] * size) + "]"
    return text


def _distinct(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted distinct values of the integers ``keys``, and the index of each key among them."""
    # np.unique(..., return_inverse=True) argsorts: several times slower on mostly equal keys
    ordered = np.sort(keys)
    distinct = np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))
    return distinct, np.searchsorted(distinct, keys)


def _array_text(a: np.ndarray, words: dict) -> str:
    """The JSON text of ``complex_pairs(a)``, each real looked up in or added to ``words``.

    ``words`` maps the bit pattern of a real to its word: ``repr``, or the
    string "nan", "inf" or "-inf".  The bracket template of ``a``'s shape
    takes the words of its reals, real and imaginary parts in turn, in one
    ``%`` format.
    """
    reals, index = _distinct(np.asarray(a, dtype=complex).ravel().view(np.uint64))
    real_words = []
    for bits, x in zip(reals.tolist(), reals.view(np.float64).tolist()):
        if bits not in words:
            words[bits] = repr(x) if math.isfinite(x) else f'"{x}"'
        real_words.append(words[bits])
    return _template(a.shape) % tuple(np.array(real_words, dtype=object)[index].tolist())


def _dumps(obj) -> str:
    """``obj`` as compact JSON with sorted keys, a complex ndarray written as ``complex_pairs``.

    One walk: a list or tuple with no array and no non-finite float in it is
    written whole by the C encoder, a NaN or inf is written as its string,
    and a real that several arrays share is formatted once.
    """
    words: dict[int, str] = {}

    def walk(obj) -> str:
        if isinstance(obj, np.ndarray):
            return _array_text(obj, words)
        if isinstance(obj, dict):
            return "{" + ",".join(f"{json.dumps(key)}:{walk(obj[key])}" for key in sorted(obj)) + "}"
        if isinstance(obj, float) and not math.isfinite(obj):
            return f'"{obj}"'
        if isinstance(obj, (list, tuple)):
            try:
                # no indent: an indent forces the pure-Python encoder, many times slower
                return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
            except (TypeError, ValueError):  # it holds an array or a NaN or inf
                return "[" + ",".join(map(walk, obj)) + "]"
        return json.dumps(obj)

    return walk(obj)


def _emit(as_json: bool, payload, lines) -> None:
    """The one writer: ``payload()`` as JSON under ``--json``, else the text ``lines``."""
    if as_json:
        print(_dumps(payload()))
    else:
        for line in lines:
            print(line)


def _faithfulness(alg) -> tuple[int, str | None]:
    """Dimension of the faithfulness ideal, and the quotient's text when it is nontrivial."""
    ideal = faithfulness_ideal(alg)
    return ideal.dim, None if ideal.is_trivial else serialize(quotient(alg, ideal).algebra)


def _cmd_check(alg, args):
    report = alg.axioms
    payload = {"axioms": report.to_dict()}
    lines = [report.summary()]
    code = EXIT_OK if report.passed else EXIT_AXIOMS
    if report.passed:
        ideal_dim, quotient_text = _run_stage(_faithfulness, alg)
        payload["ideal_dimension"] = ideal_dim
        lines.append(f"faithfulness ideal dimension: {ideal_dim}")
        if quotient_text is not None:
            code = EXIT_NONFAITHFUL
            payload["quotient"] = quotient_text
            lines += ["quotient algebra:", quotient_text.removesuffix("\n")]
    return code, lambda: payload, lines


def _cmd_represent(alg, args):
    rep = _run_stage(build_representation, alg)
    # triangular(a) = [[0, kdag(a), l(a)], [0, i(a), k(a)], [0, 0, 0]]
    mats = dict(zip(alg.labels, rep.mats))

    def payload():
        # views of one stack: _dumps formats each distinct real of the payload once
        return {
            "hdim": rep.hdim,
            "labels": list(alg.labels),
            "report": rep.report.to_dict(),
            "quadruples": [
                {
                    "label": lab,
                    "l": M[0, -1, ...],  # a 0-d view, not a numpy scalar
                    "k": M[1:-1, -1],
                    "kdag": M[0, 1:-1],
                    "i": M[1:-1, 1:-1],
                }
                for lab, M in mats.items()
            ],
            "triangular": mats,
        }

    def lines():
        if args.latex:
            yield f"% hdim = {rep.hdim}"
            for lab, M in mats.items():
                rows = " \\\\\n".join(" & ".join(_fmt_num(z) for z in row) for row in M)
                yield f"% {lab}\n\\begin{{pmatrix}}\n{rows}\n\\end{{pmatrix}}"
        else:
            yield f"hdim: {rep.hdim}"
            for lab, M in mats.items():
                yield f"triangular({lab}):"
                yield from ("  [" + "  ".join(f"{_fmt_num(z):>10s}" for z in row) + "]" for row in M)

    return EXIT_OK, payload, lines()


def _fmt_num(z: complex) -> str:
    z = complex(z)
    if z.imag == 0:
        return f"{z.real:.6g}"
    return f"{z.real:.6g}{z.imag:+.6g}i"


def _cmd_decompose(alg, args):
    dec = _run_stage(decompose, alg)

    def lines():
        for title, elems in (("brownian component", dec.brownian), ("levy component", dec.levy)):
            yield f"{title} ({len(elems)} elements):"
            yield from (f"  {e}" for e in elems)
        yield f"verification: {'pass' if dec.report.passed else 'FAIL'}"
        yield dec.report.summary()

    return (EXIT_OK if dec.report.passed else EXIT_AXIOMS), dec.to_dict, lines()


def _cmd_norms(alg, args):
    rep = _run_stage(build_representation, alg)
    vec, diags = parse_lincomb(args.element, alg.labels)
    for diag in diags:
        print(str(diag), file=sys.stderr)
    if diags:
        raise _Failed(EXIT_IO)
    norms = seminorms(rep, vec)
    labels = ("operator", "plus", "minus", "corner")
    return EXIT_OK, norms._asdict, (f"{lab + ':':10s}{v:.12g}" for lab, v in zip(labels, norms))


def _fock_reports(alg, t: float, dt: float) -> list:
    """Vacuum moments of every basis element on round(t / dt) slots."""
    if not dt > 0:
        raise AlgebraError("dt must be positive")
    if not np.isfinite(t / dt):
        raise AlgebraError("t/dt must be finite")
    rep = build_representation(alg)
    n_slots = max(1, int(round(t / dt)))
    reports = [vacuum_moments(rep, alg.basis_element(i), t, n_slots) for i in range(alg.dim)]
    for rpt, lab in zip(reports, alg.labels):
        rpt.inputs["element"] = lab
    return reports


def _cmd_simulate(alg, args):
    if args.model == "fock":
        reports = _run_stage(_fock_reports, alg, args.t, args.dt)

        def lines():
            for rpt in reports:
                yield f"element {rpt.inputs['element']}:"
                for est in rpt.estimates:
                    tgt = "" if est.target is None else f" (target {est._num(est.target)})"
                    yield f"  {est.name:28s} {est._num(est.value)}{tgt}"

        return EXIT_OK, lambda: [r.to_dict() for r in reports], lines()
    rpt = _run_stage(classical_paths, alg, args.t, args.dt, args.paths, args.seed)

    def lines():
        for est in rpt.estimates:
            se = "" if est.stderr is None else f" +- {est.stderr:.3g}"
            tgt = "" if est.target is None else f" (target {est._num(est.target)})"
            yield f"{est.name:24s} {est._num(est.value):.6g}{se}{tgt}"

    return EXIT_OK, rpt.to_dict, lines()


def _parse_params(name: str, raw: str | None) -> dict:
    """``name``'s catalog defaults updated from ``key=value,...``, each value read as its default's type.

    A list default splits its value on ':' and reads each item as the type of
    the default's items; a key that is not one of the defaults is an error.
    """
    defaults = _CATALOG[name][1]
    out = dict(defaults)
    for chunk in filter(str.strip, (raw or "").split(",")):
        if "=" not in chunk:
            raise ValueError(f"bad parameter {chunk!r}, expected key=value")
        key, value = (part.strip() for part in chunk.split("=", 1))
        if key not in defaults:
            raise ValueError(f"unknown parameter {key!r} for {name}")
        default = defaults[key]
        if isinstance(default, list):
            out[key] = [type(default[0])(item.strip()) for item in value.split(":")]
        else:
            out[key] = type(default)(value)
    return out


def _make_builtin(name: str, raw_params: str | None):
    """The builtin ``name`` at its catalog defaults updated from ``--params`` text."""
    if name not in _CATALOG:
        raise ValueError(f"unknown builtin {name!r}")
    return _CATALOG[name][0](**_parse_params(name, raw_params))


def _cmd_catalog(args) -> int:
    if not args.name:
        for name, (_, defaults) in _CATALOG.items():
            shown = ", ".join(f"{k}={v}" for k, v in defaults.items())
            print(f"{name}({shown})")
        return EXIT_OK
    try:
        text = serialize(_make_builtin(args.name, args.params))
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``itoalg`` argument parser, built once per process: ``parse_args`` keeps no state."""
    p = argparse.ArgumentParser(prog="itoalg", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def file_command(name, fn, help):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("file")
        # the library's default tolerance, and no --json, unless the command adds them
        sp.set_defaults(fn=fn, tol=ItoAlgebra.tol, json=False)
        return sp

    c = file_command("check", _cmd_check, "verify axioms and faithfulness")
    c.add_argument("--tol", type=float)
    c.add_argument("--json", action="store_true")

    r = file_command("represent", _cmd_represent, "canonical triangular representation")
    grp = r.add_mutually_exclusive_group()
    grp.add_argument("--json", action="store_true")
    grp.add_argument("--latex", action="store_true")

    d = file_command("decompose", _cmd_decompose, "Brownian/Levy decomposition")
    d.add_argument("--json", action="store_true")

    n = file_command("norms", _cmd_norms, "four seminorms of an element")
    n.add_argument("--element", required=True, help='lincomb, e.g. "1 dt + 2i dw"')
    n.add_argument("--json", action="store_true")

    s = file_command("simulate", _cmd_simulate, "toy-Fock or classical Monte Carlo report")
    s.add_argument("--model", choices=("fock", "classical"), required=True)
    s.add_argument("--t", type=float, default=1.0)
    s.add_argument("--dt", type=float, default=0.01)
    s.add_argument("--paths", type=int, default=10000)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--json", action="store_true")

    k = sub.add_parser("catalog", help="list or emit builtin algebras")
    k.add_argument("--name")
    k.add_argument("--params", help="comma-separated key=value, lists use ':'")
    k.add_argument("-o", "--output")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "catalog":
            return _cmd_catalog(args)
        code, payload, lines = args.fn(_load(args.file, args.tol), args)
        _emit(args.json, payload, lines)
        return code
    except _Failed as exc:
        return exc.args[0]
    except MemoryError as exc:
        # numpy's message names the size and shape that could not be allocated
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_AXIOMS


if __name__ == "__main__":
    sys.exit(main())
