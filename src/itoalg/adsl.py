"""Line-oriented text format for algebra definitions.

Grammar (UTF-8, one declaration per line, ``#`` starts a comment):

    algebra <name>              optional header
    basis <sym> <sym> ...       first declaration, required
    death <sym>                 required
    state <sym> = <complex>     repeatable; the death must be declared 1
    star <sym> = <lincomb>      repeatable; omitted symbols are self-adjoint
    mul <sym> <sym> = <lincomb> repeatable; omitted products are zero

A lincomb is ``coef sym [+ coef sym ...]`` or the literal ``0``, the only
way to write zero: an empty lincomb is an error.  Complex literals are
``a``, ``ai``, ``a+bi`` or ``a-bi`` with decimal reals; a literal, or a sum
of coefficients of one symbol, that is not finite is an error.  A basis
symbol is one token that is not a keyword, ``+``, ``=`` or a complex literal.

``death``, ``state``, ``star`` and ``mul`` are rows of one declaration
table (``_DECLARATIONS``): how many symbols the keyword names, what follows
``=`` and what a duplicate is called.  Their usage text, symbol lookup,
duplicate rule and storage are the same code for all four.  A line reports
at most one fault, at the column of the token it names.

The parser is total: any input yields an algebra or diagnostics, never an
exception.  Serialization is canonical (declaration order above, table rows
lexicographic, reals printed with 17 significant digits), so
parse(serialize(alg)) reproduces the algebra bit-exactly; ``serialize``
refuses a label or name that this parser would not read back.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass

import numpy as np

from .core import ItoAlgebra

__all__ = ["ParseDiagnostic", "ParseResult", "parse", "parse_strict", "parse_lincomb", "serialize"]

_UNSIGNED = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(rf"[+-]?{_UNSIGNED}(?:[+-]{_UNSIGNED})?i|[+-]?{_UNSIGNED}")

# keyword: (symbols it names, its value after '=', its duplicate message).
# A declaration without a value, the death, is made once for the algebra.
_DECLARATIONS = {
    "death": (1, None, "duplicate death declaration"),
    "state": (1, "<complex>", "duplicate state entry for {0!r}"),
    "star": (1, "<lincomb>", "duplicate star entry for {0!r}"),
    "mul": (2, "<lincomb>", "duplicate table entry for {0} {1}"),
}
_KEYWORDS = ("algebra", "basis", *_DECLARATIONS)

MAX_BASIS = 64        # hard capacity of the text format (desk-scale algebras)


@dataclass(frozen=True)
class ParseDiagnostic:
    severity: str  # "error" | "warning"
    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: line {self.line}, col {self.column}: {self.message}"


@dataclass
class ParseResult:
    algebra: ItoAlgebra | None
    diagnostics: list[ParseDiagnostic]

    @property
    def ok(self) -> bool:
        return self.algebra is not None

    def errors(self) -> list[ParseDiagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    def warnings(self) -> list[ParseDiagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]


class ParseFailure(ValueError):
    def __init__(self, diagnostics: list[ParseDiagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


class _Fault(Exception):
    """The one fault of a line: the index of the token it names, and its message."""

    def __init__(self, token: int, message: str):
        super().__init__(message)
        self.token = token
        self.message = message

    def diagnostic(self, lineno: int, line: str) -> ParseDiagnostic:
        """The error on ``line``, at the 1-based column of the token (past the last if none)."""
        code = line.split("#", 1)[0]
        starts = [m.start() + 1 for m in re.finditer(r"\S+", code)]
        column = starts[self.token] if self.token < len(starts) else len(code.rstrip()) + 1
        return ParseDiagnostic("error", lineno, column, self.message)


def parse_complex(token: str) -> complex | None:
    """The complex literal ``token``, or None if it is not one."""
    if _COMPLEX_RE.fullmatch(token) is None:
        return None
    return complex(token.replace("i", "j"))


def _is_token(text: str) -> bool:
    return text.split() == [text] and "#" not in text


def _symbol_problem(sym: str) -> str | None:
    """Why ``sym`` cannot be a basis symbol, or None; the ``basis`` line and ``serialize`` share it."""
    if not _is_token(sym):
        return "is not one token"
    if sym in _KEYWORDS or sym in ("+", "=") or parse_complex(sym) is not None:
        return "collides with the grammar"
    return None


def _index(tokens: list[str], k: int, index: dict[str, int]) -> int:
    try:
        return index[tokens[k]]
    except KeyError:
        raise _Fault(k, f"unknown basis symbol {tokens[k]!r}") from None


def _read_complex(tokens: list[str], k: int, malformed: str) -> complex:
    """The finite complex literal at token ``k``; ``malformed`` formats the fault otherwise."""
    z = parse_complex(tokens[k])
    if z is None:
        raise _Fault(k, malformed.format(tokens[k]))
    if not cmath.isfinite(z):
        raise _Fault(k, "non-finite coefficient")
    return z


def _read_lincomb(tokens: list[str], start: int, index: dict[str, int]) -> np.ndarray:
    """The coefficient vector of ``coef sym [+ coef sym ...]`` or ``0`` in ``tokens[start:]``."""
    vec = np.zeros(len(index), dtype=complex)
    if len(tokens) == start + 1 and tokens[start] == "0":
        return vec
    if start == len(tokens):
        raise _Fault(start, "empty linear combination (zero is written 0)")
    terms: dict[int, complex] = {}
    pos = start
    while True:
        coef = _read_complex(tokens, pos, "expected a complex coefficient, got {!r}")
        if pos + 1 == len(tokens):
            raise _Fault(pos, "coefficient without a basis symbol")
        k = _index(tokens, pos + 1, index)
        terms[k] = terms.get(k, 0j) + coef
        pos += 2
        if pos == len(tokens):
            break
        if tokens[pos] != "+":
            raise _Fault(pos, f"expected '+', got {tokens[pos]!r}")
        pos += 1
        if pos == len(tokens):
            raise _Fault(pos - 1, "dangling '+' at end of line")
    if not all(map(cmath.isfinite, terms.values())):  # finite coefficients can sum to inf
        raise _Fault(start, "non-finite coefficient")
    vec[list(terms)] = list(terms.values())
    return vec


def parse_lincomb(text: str, labels) -> tuple[np.ndarray | None, list[ParseDiagnostic]]:
    """The coefficient vector of the lincomb ``text`` over ``labels``, and its diagnostics.

    ``text`` is read as line 1; on success the diagnostics are empty, on a
    fault the vector is None and the one diagnostic names the fault.
    """
    try:
        vec = _read_lincomb(text.split("#", 1)[0].split(), 0, {lab: i for i, lab in enumerate(labels)})
    except _Fault as fault:
        return None, [fault.diagnostic(1, text)]
    return vec, []


def _declare(tokens: list[str], row, index: dict[str, int], table: dict) -> tuple:
    """Store one ``death``, ``state``, ``star`` or ``mul`` line in its ``table``; return its key."""
    n_sym, value, duplicate = row
    eq = 1 + n_sym
    size = eq if value is None else eq + 2  # the keyword and its symbols, then '=' and a value
    if (len(tokens) < size or (len(tokens) > size and value != "<lincomb>")
            or (value and tokens[eq] != "=")):
        shape = ["<sym>"] * n_sym + (["=", value] if value else [])
        raise _Fault(0, " ".join(["usage:", tokens[0], *shape]))
    key = tuple(_index(tokens, k, index) for k in range(1, eq))
    if value is None:  # the death: one declaration for the algebra, stored under ()
        key, stored = (), key[0]
    if key in table:
        raise _Fault(1 if key else 0, duplicate.format(*tokens[1:eq]))
    if value == "<complex>":
        stored = _read_complex(tokens, eq + 1, "bad complex literal {!r}")
    elif value == "<lincomb>":
        stored = _read_lincomb(tokens, eq + 1, index)
    table[key] = stored
    return key


def parse(text: str, tol: float = 1e-9) -> ParseResult:
    """Parse an algebra definition; diagnostics carry line and column.

    On success the algebra is verified against the axioms, and any failing
    axiom is reported as a warning with its residual.  A ``tol`` that is not
    finite and nonnegative is an error.
    """
    if not 0 <= tol < np.inf:
        diag = ParseDiagnostic("error", 0, 0, "tol must be finite and nonnegative")
        return ParseResult(None, [diag])
    diags: list[ParseDiagnostic] = []
    name: str | None = None
    labels: list[str] | None = None
    index: dict[str, int] = {}
    declared: dict[str, dict] = {kw: {} for kw in _DECLARATIONS}
    declared_at: dict[tuple, int] = {}  # (keyword, key) -> line number
    lines = text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        kw = tokens[0]
        try:
            if kw == "algebra":
                if len(tokens) != 2:
                    raise _Fault(0, "usage: algebra <name>")
                if name is not None:
                    raise _Fault(0, "duplicate algebra header")
                if labels is not None:
                    raise _Fault(0, "algebra header must precede the basis declaration")
                name = tokens[1]
            elif kw == "basis":
                if labels is not None:
                    raise _Fault(0, "duplicate basis declaration")
                if len(tokens) < 2:
                    raise _Fault(0, "basis needs at least one symbol")
                if len(tokens) - 1 > MAX_BASIS:
                    raise _Fault(0, f"basis exceeds the format capacity of {MAX_BASIS} symbols")
                # the usable symbols are declared even when the line has a fault
                problems = {sym: _symbol_problem(sym) for sym in tokens[1:]}
                labels = [sym for sym, problem in problems.items() if problem is None]
                index.update((sym, i) for i, sym in enumerate(labels))
                for k, sym in enumerate(tokens[1:], start=1):
                    if problems[sym] is not None:
                        raise _Fault(k, f"basis symbol {sym!r} {problems[sym]}")
                    if tokens.index(sym) < k:
                        raise _Fault(k, f"duplicate basis symbol {sym!r}")
            elif labels is None:
                raise _Fault(0, "the basis must be declared before any other definition")
            elif kw in _DECLARATIONS:
                declared_at[kw, _declare(tokens, _DECLARATIONS[kw], index, declared[kw])] = lineno
            else:
                raise _Fault(0, f"unknown keyword {kw!r}")
        except _Fault as fault:
            diags.append(fault.diagnostic(lineno, line))

    end = len(lines) + 1
    if labels is None:
        diags.append(ParseDiagnostic("error", end, 1, "missing basis declaration"))
    if () not in declared["death"]:
        diags.append(ParseDiagnostic("error", end, 1, "missing death declaration"))
    if diags:
        return ParseResult(None, diags)

    n = len(labels)
    death = declared["death"][()]
    dval = declared["state"].get((death,), 0j)
    if abs(dval - 1.0) > tol:  # at the death's state value, else at the death's symbol
        lineno, token = declared_at.get(("state", (death,))), 3
        if lineno is None:
            lineno, token = declared_at["death", ()], 1
        fault = _Fault(token, f"death state must be 1, got {dval}")
        diags.append(fault.diagnostic(lineno, lines[lineno - 1]))
        return ParseResult(None, diags)

    mult = np.zeros((n, n, n), dtype=complex)
    for (i, j), vec in declared["mul"].items():
        mult[i, j] = vec
    star_m = np.eye(n, dtype=complex)
    for (i,), vec in declared["star"].items():
        star_m[i] = vec
    state = np.zeros(n, dtype=complex)
    for (i,), val in declared["state"].items():
        state[i] = val

    alg = ItoAlgebra(
        labels=tuple(labels),
        mult=mult,
        star=star_m,
        death=death,
        state=state,
        tol=tol,
        name=name,
    )
    try:
        report = alg.axioms
    except Exception as exc:  # totality: verification must never crash the parser
        diags.append(ParseDiagnostic("warning", 0, 0, f"axiom verification failed: {exc}"))
        return ParseResult(alg, diags)
    for check in report.failures():
        diags.append(
            ParseDiagnostic(
                "warning", 0, 0,
                f"axiom {check.name} fails with residual {check.residual:.3e}",
            )
        )
    return ParseResult(alg, diags)


def parse_strict(text: str, tol: float = 1e-9) -> ItoAlgebra:
    result = parse(text, tol=tol)
    if not result.ok:
        raise ParseFailure(result.errors())
    return result.algebra


def format_real(x: float) -> str:
    return f"{x:.17g}"


def format_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return format_real(z.real)
    if z.real == 0.0:
        return format_real(z.imag) + "i"
    sign = "+" if z.imag > 0 else "-"
    return f"{format_real(z.real)}{sign}{format_real(abs(z.imag))}i"


def format_lincomb(vec: np.ndarray, labels) -> str:
    terms = [f"{format_complex(coef)} {labels[k]}" for k, coef in enumerate(vec.tolist()) if coef]
    return " + ".join(terms) if terms else "0"


def serialize(alg: ItoAlgebra) -> str:
    """Canonical text form; omits zero products, identity stars, zero states.

    The grammar writes the death as a single symbol, so the death vector must
    coincide with a basis element within the algebra tolerance (it is snapped
    to that element in the output); everything else round-trips bit-exactly.
    Every label must pass the ``basis`` line's symbol rule and the name must
    be one token without ``#``; otherwise this raises ``ValueError``.
    """
    n, labels = alg.dim, alg.labels
    eye = np.eye(n, dtype=complex)
    death_hits = np.flatnonzero(np.abs(alg.death - eye).max(axis=1) <= alg.tol)
    if len(death_hits) != 1:
        raise ValueError(
            "only algebras whose death is a basis element can be serialized; "
            "re-express the algebra first"
        )
    for sym in labels:
        problem = _symbol_problem(sym)
        if problem is not None:
            raise ValueError(f"basis symbol {sym!r} {problem}")
    if alg.name and not _is_token(alg.name):
        raise ValueError(f"algebra name {alg.name!r} is not one token")
    lines = [f"algebra {alg.name}"] if alg.name else []
    lines.append("basis " + " ".join(labels))
    lines.append(f"death {labels[death_hits[0]]}")
    lines += [f"state {labels[i]} = {format_complex(alg.state[i])}" for i in np.flatnonzero(alg.state)]
    lines += [
        f"star {labels[i]} = {format_lincomb(alg.star[i], labels)}"
        for i in np.flatnonzero((alg.star != eye).any(axis=1))
    ]
    lines += [
        f"mul {labels[i]} {labels[j]} = {format_lincomb(alg.mult[i, j], labels)}"
        for i, j in zip(*np.nonzero(alg.mult.any(axis=2)))
    ]
    return "\n".join(lines) + "\n"
