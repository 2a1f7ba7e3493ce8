"""Line-oriented text format for algebra definitions.

Grammar (UTF-8, one declaration per line, ``#`` starts a comment):

    algebra <name>              optional header
    basis <sym> <sym> ...       first declaration, required
    death <sym>                 required
    state <sym> = <complex>     repeatable; the death must be declared 1
    star <sym> = <lincomb>      repeatable; omitted symbols are self-adjoint
    mul <sym> <sym> = <lincomb> repeatable; omitted products are zero

A lincomb is ``coef sym [+ coef sym ...]`` or the literal ``0``; complex
literals are ``a``, ``ai``, ``a+bi`` or ``a-bi`` with decimal reals.  The
parser is total: any input yields an algebra or diagnostics, never an
exception.  Serialization is canonical (declaration order above, table rows
lexicographic, reals printed with 17 significant digits), so
parse(serialize(alg)) reproduces the algebra bit-exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .core import ItoAlgebra

__all__ = ["ParseDiagnostic", "ParseResult", "parse", "parse_strict", "parse_lincomb", "serialize"]

_REAL = r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_COMPLEX_RE = re.compile(
    rf"^(?:(?P<re>{_REAL})(?P<im>[+-](?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)i"
    rf"|(?P<imonly>{_REAL})i"
    rf"|(?P<reonly>{_REAL}))$"
)
_KEYWORDS = ("algebra", "basis", "death", "state", "star", "mul")

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


def parse_complex(token: str) -> complex | None:
    m = _COMPLEX_RE.match(token)
    if not m:
        return None
    if m.group("reonly") is not None:
        return complex(float(m.group("reonly")), 0.0)
    if m.group("imonly") is not None:
        return complex(0.0, float(m.group("imonly")))
    return complex(float(m.group("re")), float(m.group("im")))


def _tokenize(line: str) -> list[tuple[str, int]]:
    """Tokens with 1-based column positions; text after '#' is a comment."""
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    return [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", line)]


def parse_lincomb(
    tokens: list[tuple[str, int]],
    index: dict[str, int],
    dim: int,
    lineno: int,
    errors: list[ParseDiagnostic],
) -> np.ndarray | None:
    """Parse ``coef sym [+ coef sym ...]`` or ``0`` into a coefficient vector."""
    vec = np.zeros(dim, dtype=complex)
    if len(tokens) == 1 and tokens[0][0] == "0":
        return vec
    pos = 0
    while pos < len(tokens):
        tok, col = tokens[pos]
        coef = parse_complex(tok)
        if coef is None:
            errors.append(ParseDiagnostic("error", lineno, col, f"expected a complex coefficient, got {tok!r}"))
            return None
        if pos + 1 >= len(tokens):
            errors.append(ParseDiagnostic("error", lineno, col, "coefficient without a basis symbol"))
            return None
        sym, symcol = tokens[pos + 1]
        if sym not in index:
            errors.append(ParseDiagnostic("error", lineno, symcol, f"unknown basis symbol {sym!r}"))
            return None
        vec[index[sym]] += coef
        pos += 2
        if pos < len(tokens):
            sep, sepcol = tokens[pos]
            if sep != "+":
                errors.append(ParseDiagnostic("error", lineno, sepcol, f"expected '+', got {sep!r}"))
                return None
            pos += 1
            if pos >= len(tokens):
                errors.append(ParseDiagnostic("error", lineno, sepcol, "dangling '+' at end of line"))
                return None
    return vec


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
    death_sym: tuple[str, int] | None = None
    state_decl: dict[int, complex] = {}
    star_decl: dict[int, np.ndarray] = {}
    mul_decl: dict[tuple[int, int], np.ndarray] = {}

    def err(lineno, col, msg):
        diags.append(ParseDiagnostic("error", lineno, col, msg))

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(raw)
        if not tokens:
            continue
        kw, col0 = tokens[0]
        if kw == "algebra":
            if len(tokens) != 2:
                err(lineno, col0, "usage: algebra <name>")
                continue
            if name is not None:
                err(lineno, col0, "duplicate algebra header")
                continue
            if labels is not None:
                err(lineno, col0, "algebra header must precede the basis declaration")
                continue
            name = tokens[1][0]
        elif kw == "basis":
            if labels is not None:
                err(lineno, col0, "duplicate basis declaration")
                continue
            if len(tokens) < 2:
                err(lineno, col0, "basis needs at least one symbol")
                continue
            if len(tokens) - 1 > MAX_BASIS:
                err(lineno, col0, f"basis exceeds the format capacity of {MAX_BASIS} symbols")
                continue
            labels = []
            for sym, c in tokens[1:]:
                if sym in index:
                    err(lineno, c, f"duplicate basis symbol {sym!r}")
                elif sym in _KEYWORDS or sym == "+" or parse_complex(sym) is not None:
                    err(lineno, c, f"basis symbol {sym!r} collides with the grammar")
                else:
                    index[sym] = len(labels)
                    labels.append(sym)
        elif labels is None:
            err(lineno, col0, "the basis must be declared before any other definition")
        elif kw == "death":
            if len(tokens) != 2:
                err(lineno, col0, "usage: death <sym>")
                continue
            sym, c = tokens[1]
            if sym not in index:
                err(lineno, c, f"unknown basis symbol {sym!r}")
                continue
            if death_sym is not None:
                err(lineno, col0, "duplicate death declaration")
                continue
            death_sym = (sym, index[sym])
        elif kw == "state":
            if len(tokens) != 4 or tokens[2][0] != "=":
                err(lineno, col0, "usage: state <sym> = <complex>")
                continue
            sym, c = tokens[1]
            if sym not in index:
                err(lineno, c, f"unknown basis symbol {sym!r}")
                continue
            val = parse_complex(tokens[3][0])
            if val is None:
                err(lineno, tokens[3][1], f"bad complex literal {tokens[3][0]!r}")
                continue
            if index[sym] in state_decl:
                err(lineno, c, f"duplicate state entry for {sym!r}")
                continue
            state_decl[index[sym]] = val
        elif kw == "star":
            if len(tokens) < 4 or tokens[2][0] != "=":
                err(lineno, col0, "usage: star <sym> = <lincomb>")
                continue
            sym, c = tokens[1]
            if sym not in index:
                err(lineno, c, f"unknown basis symbol {sym!r}")
                continue
            if index[sym] in star_decl:
                err(lineno, c, f"duplicate star entry for {sym!r}")
                continue
            vec = parse_lincomb(tokens[3:], index, len(labels), lineno, diags)
            if vec is not None:
                star_decl[index[sym]] = vec
        elif kw == "mul":
            if len(tokens) < 5 or tokens[3][0] != "=":
                err(lineno, col0, "usage: mul <sym> <sym> = <lincomb>")
                continue
            s1, c1 = tokens[1]
            s2, c2 = tokens[2]
            if s1 not in index:
                err(lineno, c1, f"unknown basis symbol {s1!r}")
                continue
            if s2 not in index:
                err(lineno, c2, f"unknown basis symbol {s2!r}")
                continue
            key = (index[s1], index[s2])
            if key in mul_decl:
                err(lineno, c1, f"duplicate table entry for {s1} {s2}")
                continue
            vec = parse_lincomb(tokens[4:], index, len(labels), lineno, diags)
            if vec is not None:
                mul_decl[key] = vec
        else:
            err(lineno, col0, f"unknown keyword {kw!r}")

    if labels is None:
        err(len(text.splitlines()) + 1, 1, "missing basis declaration")
    if death_sym is None:
        diags.append(
            ParseDiagnostic("error", len(text.splitlines()) + 1, 1, "missing death declaration")
        )
    if any(d.severity == "error" for d in diags):
        return ParseResult(None, diags)

    n = len(labels)
    death_idx = death_sym[1]
    dval = state_decl.get(death_idx, complex(0.0))
    if abs(dval - 1.0) > tol:
        diags.append(
            ParseDiagnostic(
                "error", len(text.splitlines()) + 1, 1,
                f"death state must be 1, got {dval}",
            )
        )
        return ParseResult(None, diags)

    mult = np.zeros((n, n, n), dtype=complex)
    for (i, j), vec in mul_decl.items():
        mult[i, j] = vec
    star_m = np.eye(n, dtype=complex)
    for i, vec in star_decl.items():
        star_m[i] = vec
    state = np.zeros(n, dtype=complex)
    for i, val in state_decl.items():
        state[i] = val

    if not (np.all(np.isfinite(mult)) and np.all(np.isfinite(star_m)) and np.all(np.isfinite(state))):
        diags.append(
            ParseDiagnostic("error", len(text.splitlines()) + 1, 1, "non-finite coefficient")
        )
        return ParseResult(None, diags)

    alg = ItoAlgebra(
        labels=tuple(labels),
        mult=mult,
        star=star_m,
        death=death_idx,
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
    terms = [
        f"{format_complex(coef)} {labels[k]}" for k, coef in enumerate(vec) if coef != 0
    ]
    return " + ".join(terms) if terms else "0"


def serialize(alg: ItoAlgebra) -> str:
    """Canonical text form; omits zero products, identity stars, zero states.

    The grammar writes the death as a single symbol, so the death vector must
    coincide with a basis element within the algebra tolerance (it is snapped
    to that element in the output); everything else round-trips bit-exactly.
    """
    death_hits = [
        i for i in range(alg.dim)
        if float(np.max(np.abs(alg.death - np.eye(alg.dim)[i]))) <= alg.tol
    ]
    if len(death_hits) != 1:
        raise ValueError(
            "only algebras whose death is a basis element can be serialized; "
            "re-express the algebra first"
        )
    lines = []
    if alg.name:
        lines.append(f"algebra {alg.name}")
    lines.append("basis " + " ".join(alg.labels))
    lines.append(f"death {alg.labels[death_hits[0]]}")
    for i in range(alg.dim):
        if alg.state[i] != 0:
            lines.append(f"state {alg.labels[i]} = {format_complex(alg.state[i])}")
    identity = np.eye(alg.dim, dtype=complex)
    for i in range(alg.dim):
        if not np.array_equal(alg.star[i], identity[i]):
            lines.append(f"star {alg.labels[i]} = {format_lincomb(alg.star[i], alg.labels)}")
    for i in range(alg.dim):
        for j in range(alg.dim):
            if np.any(alg.mult[i, j] != 0):
                lines.append(
                    f"mul {alg.labels[i]} {alg.labels[j]} = "
                    f"{format_lincomb(alg.mult[i, j], alg.labels)}"
                )
    return "\n".join(lines) + "\n"
