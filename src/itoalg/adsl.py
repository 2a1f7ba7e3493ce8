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
``a``, ``ai``, ``a+bi`` or ``a-bi`` with decimal reals in ASCII digits; a
literal, or a sum of coefficients of one symbol, that is not finite is an
error.  A basis symbol is one token that is not a keyword, ``+``, ``=`` or a
complex literal, so a non-ASCII digit such as ``٣`` is a symbol.

``death``, ``state``, ``star`` and ``mul`` are rows of one declaration
table (``_DECLARATIONS``): how many symbols the keyword names, what follows
``=`` and what a duplicate is called.  Their usage text, symbol lookup,
duplicate rule and storage are the same code for all four.  A line reports
at most one fault, at the column of the token it names: the earliest bad
token in token order, and a line with a fault stores nothing.

The text is read once, a line at a time.  Each ``star`` and ``mul`` line
converts its own lincomb (``_lincomb``): its shape (``+`` separators, a
symbol after every coefficient), C-level scans of its joined coefficient
column for what ``complex`` reads beyond the grammar (non-ASCII text,
``inf``/``nan``, parentheses, underscores, ``j``, a lone ``i``), one
``map(complex, ...)`` that checks the rest, one dictionary lookup per
symbol, and a finiteness check of each symbol's sum only when the line
repeats a symbol.  The line keeps Python lists of values and symbol
indices; only on a fault are its terms walked in token order, over the
values read, for the first bad token.  An accepted line appends its values
and symbol indices to its table's two flat lists (``_Lincombs``); after the
last line, each table becomes its vectors by one ``np.add.at`` scatter
(``_vectors``).  ``parse_lincomb`` is ``_lincomb`` and that scatter on one
line.

The parser is total: any input yields an algebra or diagnostics, never an
exception.  It only reads text and checks no axiom: each consumer checks
the one report kept on the algebra.  Serialization is canonical
(declaration order above, table rows lexicographic, reals printed with 17
significant digits), so parse(serialize(alg)) reproduces the algebra
bit-exactly up to the sign of a zero: a -0.0 part is not written and reads
back as 0.0.  ``serialize`` refuses a basis above the format's capacity of
``MAX_BASIS`` symbols, a label or name that this parser would not read
back, and a structure constant, star entry or state value that is not
finite.  It writes each table with one ``%`` format: a template assembled
from one piece per coefficient form and label, and one flat tuple of the
reals.
"""

from __future__ import annotations

from cmath import isfinite
from dataclasses import dataclass

import numpy as np

from .core import ItoAlgebra, rel_residual, rel_residuals

__all__ = ["ParseDiagnostic", "ParseResult", "parse", "parse_strict", "parse_lincomb", "serialize"]

# what complex() reads beyond the grammar: inf and nan in any case (each holds an n or N),
# parentheses, underscores, j, and an i after a space or a sign
_BEYOND = ("n", "N", "(", ")", "_", "j", "J", " i", "+i", "-i")
_COEFFICIENT = "expected a complex coefficient, got {!r}"

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
    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"error: line {self.line}, col {self.column}: {self.message}"


@dataclass
class ParseResult:
    algebra: ItoAlgebra | None
    diagnostics: list[ParseDiagnostic]

    @property
    def ok(self) -> bool:
        return self.algebra is not None


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
        rest = code.split(None, self.token)   # rest[token] is the line from that token on
        column = len(code) - len(rest[-1]) + 1 if len(rest) > self.token else len(code.rstrip()) + 1
        return ParseDiagnostic(lineno, column, self.message)


def parse_complex(token: str) -> complex | None:
    """The complex literal ``token``, or None if it is not one."""
    vals = _complexes([token]) if _is_token(token) else []
    return vals[0] if vals else None


def _is_token(text: str) -> bool:
    return text.split() == [text] and "#" not in text


def _symbol_problem(sym: str) -> str | None:
    """Why ``sym`` cannot be a basis symbol, or None; the ``basis`` line and ``serialize`` share it."""
    if not _is_token(sym):
        return "is not one token"
    if sym in _KEYWORDS or sym in ("+", "=") or parse_complex(sym) is not None:
        return "collides with the grammar"
    return None


def _complexes(coefs: list[str]) -> list[complex]:
    """The values of the literals that start ``coefs``, up to the first token that is not one.

    A literal is an ASCII token that ``complex`` reads with ``j`` for ``i``,
    less what ``complex`` accepts beyond the grammar: non-ASCII digits,
    ``inf`` and ``nan`` (each holds an ``n`` or ``N``), parentheses,
    underscores, ``j``, and an ``i`` that starts a token or follows a sign
    (``i``, ``+i``, ``1-i``), the only lone ``i`` that ``complex`` reads.
    Those are found by C-level scans of the joined column, and the one
    ``map(complex, ...)`` that converts the tokens before the first of them
    checks the rest of the syntax, stopping at the first token it cannot
    read.  Each is linear in the column.
    """
    column = " ".join(coefs)
    good = len(coefs) if column.isascii() else list(map(str.isascii, coefs)).index(False)
    hits = [p for p in map(column.find, _BEYOND) if p >= 0]
    if hits:
        good = min(good, column.count(" ", 0, min(hits) + 1))
    if column.startswith("i"):
        good = 0
    if good < len(coefs):
        column = " ".join(coefs[:good])
    vals: list[complex] = []
    try:
        vals.extend(map(complex, column.replace("i", "j").split(" ")))
    except ValueError:  # list.extend keeps the values before it: 1e, 1+2, 1.2.3, 1ei, x, no token
        pass
    return vals


def _read_terms(coefs: list[str], syms: list[str], index: dict[str, int], start: int = 0,
                malformed: str = _COEFFICIENT) -> tuple[list[complex], list[int]]:
    """The values of the literals ``coefs`` and the indices of the symbols ``syms``.

    The two columns interleave as a lincomb written from token ``start``:
    ``coefs[t]`` is token ``start + 3t`` and ``syms[t]`` token ``start + 3t + 1``.
    Each column is converted at once; on a fault, the terms are walked in
    token order over the values read and the first bad token is the fault.
    """
    vals = _complexes(coefs)
    cols = list(map(index.get, syms))
    if len(vals) == len(coefs) and all(map(isfinite, vals)) and None not in cols:
        return vals, cols
    for t, coef in enumerate(coefs):
        if t == len(vals):
            raise _Fault(start + 3 * t, malformed.format(coef))
        if not isfinite(vals[t]):
            raise _Fault(start + 3 * t, "non-finite coefficient")
        if t < len(syms) and cols[t] is None:
            raise _Fault(start + 3 * t + 1, f"unknown basis symbol {syms[t]!r}")


def _lincomb(tokens: list[str], start: int, index: dict[str, int]) -> tuple[list[complex], list[int]]:
    """The values and symbol indices of the lincomb in ``tokens[start:]``.

    A bad literal or symbol before a shape fault is the fault reported; a
    sum of one symbol's coefficients is checked only when a symbol repeats.
    """
    body = tokens[start:]
    if body == ["0"]:
        return [], []
    if not body:
        raise _Fault(start, "empty linear combination (zero is written 0)")
    coefs, syms, plus = body[::3], body[1::3], body[2::3]
    shape = None
    if plus.count("+") != len(plus):
        q = next(q for q, sep in enumerate(plus) if sep != "+")
        shape = _Fault(start + 3 * q + 2, f"expected '+', got {plus[q]!r}")
        coefs, syms = coefs[:q + 1], syms[:q + 1]
    elif len(body) % 3 == 1:
        shape = _Fault(len(tokens) - 1, "coefficient without a basis symbol")
    elif len(body) % 3 == 0:
        shape = _Fault(len(tokens) - 1, "dangling '+' at end of line")
    vals, cols = _read_terms(coefs, syms, index, start)
    if shape is not None:
        raise shape
    if len(set(cols)) < len(cols):  # finite coefficients can sum to inf
        sums: dict[int, complex] = {}
        for col, val in zip(cols, vals):
            sums[col] = sums.get(col, 0j) + val
        if not all(map(isfinite, sums.values())):
            raise _Fault(start, "non-finite coefficient")
    return vals, cols


def _vectors(counts: list[int], vals: list[complex], cols: list[int], n: int) -> np.ndarray:
    """The length-``n`` vectors of lincombs read by ``_lincomb``, built by one scatter.

    Lincomb ``r`` has ``counts[r]`` terms, which follow the terms of the
    lincombs before it in the flat lists ``vals`` and ``cols``.  ``np.add.at``
    sums the coefficients of a repeated symbol in the order ``_lincomb``
    summed them to check them.
    """
    out = np.zeros((len(counts), n), dtype=complex)
    rows = np.repeat(np.arange(len(counts)), counts)
    np.add.at(out, (rows, np.fromiter(cols, np.intp, len(cols))), np.fromiter(vals, complex, len(vals)))
    return out


def parse_lincomb(text: str, labels) -> tuple[np.ndarray | None, list[ParseDiagnostic]]:
    """The coefficient vector of the lincomb ``text`` over ``labels``, and its diagnostics.

    ``text`` is read as line 1; on success the diagnostics are empty, on a
    fault the vector is None and the one diagnostic names the fault.
    """
    tokens = text.split("#", 1)[0].split()
    index = {lab: i for i, lab in enumerate(labels)}
    try:
        vals, cols = _lincomb(tokens, 0, index)
    except _Fault as fault:
        return None, [fault.diagnostic(1, text)]
    return _vectors([len(cols)], vals, cols, len(index))[0], []


class _Lincombs(dict):
    """A ``star`` or ``mul`` table: key -> term count, with the terms of its lines in flat lists."""

    def __init__(self):
        super().__init__()
        self.vals: list[complex] = []
        self.cols: list[int] = []


def _declare(tokens: list[str], row, index: dict[str, int], table: dict) -> tuple:
    """Store one ``death``, ``state``, ``star`` or ``mul`` line in its ``table``; return its key.

    A lincomb's values and symbol indices, as ``_lincomb`` reads them, are
    appended to the flat lists of its ``_Lincombs`` table.
    """
    n_sym, value, duplicate = row
    eq = 1 + n_sym
    size = eq if value is None else eq + 2  # the keyword and its symbols, then '=' and a value
    if (len(tokens) < size or (len(tokens) > size and value != "<lincomb>")
            or (value and tokens[eq] != "=")):
        shape = ["<sym>"] * n_sym + (["=", value] if value else [])
        raise _Fault(0, " ".join(["usage:", tokens[0], *shape]))
    key = tuple(map(index.get, tokens[1:eq]))
    if None in key:
        k = 1 + key.index(None)
        raise _Fault(k, f"unknown basis symbol {tokens[k]!r}")
    if value is None:  # the death: one declaration for the algebra, stored under ()
        key, stored = (), key[0]
    if key in table:
        raise _Fault(1 if key else 0, duplicate.format(*tokens[1:eq]))
    if value == "<complex>":
        (stored,), _ = _read_terms(tokens[eq + 1:], [], index, eq + 1, "bad complex literal {!r}")
    elif value == "<lincomb>":
        vals, cols = _lincomb(tokens, eq + 1, index)
        table.vals += vals
        table.cols += cols
        stored = len(cols)
    table[key] = stored
    return key


def _read(lines: list[str]):
    """Every declaration of ``lines``: name, labels, declared, declared_at, diagnostics.

    Each line is read once and reports at most one fault; a line with a
    fault stores nothing.
    """
    diags: list[ParseDiagnostic] = []
    name: str | None = None
    labels: list[str] | None = None
    index: dict[str, int] = {}
    declared: dict[str, dict] = {kw: _Lincombs() if row[1] == "<lincomb>" else {}
                                 for kw, row in _DECLARATIONS.items()}
    declared_at: dict[tuple, int] = {}  # (keyword, key) -> line number
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
                # the usable symbols are declared even when the line has a fault,
                # so each later line is checked against them
                problems = {sym: _symbol_problem(sym) for sym in tokens[1:]}
                labels = [sym for sym, problem in problems.items() if problem is None]
                index.update((sym, i) for i, sym in enumerate(labels))
                if len(tokens) - 1 > MAX_BASIS:
                    raise _Fault(0, f"basis exceeds the format capacity of {MAX_BASIS} symbols")
                for k, sym in enumerate(tokens[1:], start=1):
                    if problems[sym] is not None:
                        raise _Fault(k, f"basis symbol {sym!r} {problems[sym]}")
                    if tokens.index(sym) < k:
                        raise _Fault(k, f"duplicate basis symbol {sym!r}")
            elif labels is None:
                raise _Fault(0, "the basis must be declared before any other definition")
            elif kw in _DECLARATIONS:
                key = _declare(tokens, _DECLARATIONS[kw], index, declared[kw])
                declared_at[kw, key] = lineno
            else:
                raise _Fault(0, f"unknown keyword {kw!r}")
        except _Fault as fault:
            diags.append(fault.diagnostic(lineno, line))
    return name, labels, declared, declared_at, diags


def _rows(table: _Lincombs, n_sym: int, n: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """A ``star`` or ``mul`` table: one index array per key symbol, and the vectors."""
    keys = np.array(list(table), dtype=np.intp).reshape(-1, n_sym)
    return tuple(keys.T), _vectors(list(table.values()), table.vals, table.cols, n)


def parse(text: str, tol: float = ItoAlgebra.tol) -> ParseResult:
    """Parse an algebra definition; diagnostics carry line and column.

    On success the diagnostics are empty and the algebra carries ``tol``; its
    axioms are not checked here.  A ``tol`` that is not finite and
    nonnegative is an error.
    """
    if not 0 <= tol < np.inf:
        diag = ParseDiagnostic(0, 0, "tol must be finite and nonnegative")
        return ParseResult(None, [diag])
    lines = text.splitlines()
    name, labels, declared, declared_at, diags = _read(lines)

    end = len(lines) + 1
    if labels is None:
        diags.append(ParseDiagnostic(end, 1, "missing basis declaration"))
    if () not in declared["death"]:
        diags.append(ParseDiagnostic(end, 1, "missing death declaration"))
    if diags:
        return ParseResult(None, diags)

    n = len(labels)
    death = declared["death"][()]
    dval = declared["state"].get((death,), 0j)
    if not rel_residual(dval, 1.0) <= tol:  # at the death's state value, else at the death's symbol
        lineno, token = declared_at.get(("state", (death,))), 3
        if lineno is None:
            lineno, token = declared_at["death", ()], 1
        fault = _Fault(token, f"death state must be 1, got {dval}")
        diags.append(fault.diagnostic(lineno, lines[lineno - 1]))
        return ParseResult(None, diags)

    mult = np.zeros((n, n, n), dtype=complex)
    where, vecs = _rows(declared["mul"], 2, n)
    mult[where] = vecs
    star_m = np.eye(n, dtype=complex)
    where, vecs = _rows(declared["star"], 1, n)
    star_m[where] = vecs
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
    return ParseResult(alg, diags)


def parse_strict(text: str) -> ItoAlgebra:
    result = parse(text)
    if not result.ok:
        raise ParseFailure(result.diagnostics)
    return result.algebra


# the literal forms a, bi, a+bi and a-bi, each with its reals written %.17g
_FORMS = ("%.17g", "%.17gi", "%.17g+%.17gi", "%.17g-%.17gi")


def _format_rows(heads: list[str], rows: np.ndarray, names: list[str]) -> str:
    """The lines ``heads[r] + <lincomb of rows[r] over names>``, written by one ``%`` format.

    A term is its literal followed by ``names[k]``; a row without a nonzero
    entry is written ``0``.  The template holds one piece per line head and
    per (separator, form, name); ``%`` in heads and names is escaped.
    """
    m, w = rows.shape
    r, k = np.nonzero(rows)
    z = rows[r, k]
    form = np.select([z.imag == 0, z.real == 0, z.imag > 0], [0, 1, 2], 3)
    # the piece of term k in form f is f * w + k, plus 4w after a row's first term;
    # then come the m heads, "0" and the newline
    names = [name.replace("%", "%%") for name in names]
    pieces = [sep + f + name for sep in ("", " + ") for f in _FORMS for name in names]
    pieces += [head.replace("%", "%%") for head in heads] + ["0", "\n"]
    pieces = np.array(pieces, dtype=object)
    # each row is its head, its terms (or 0) and a newline
    counts = np.bincount(r, minlength=m)
    width = np.maximum(counts, 1) + 2
    starts = np.cumsum(width) - width
    codes = np.full(width.sum(), 8 * w + m + 1)
    codes[starts] = 8 * w + np.arange(m)
    codes[starts[counts == 0] + 1] = 8 * w + m
    rank = np.arange(len(r)) - np.repeat(np.cumsum(counts) - counts, counts)  # place in its row
    codes[starts[r] + 1 + rank] = (rank > 0) * 4 * w + form * w + k
    reals = np.stack([z.real, np.where(form == 3, -z.imag, z.imag)], axis=1)
    written = np.stack([form != 1, form != 0], axis=1)
    return "".join(pieces[codes].tolist()) % tuple(reals[written].tolist())


def serialize(alg: ItoAlgebra) -> str:
    """Canonical text form; omits zero products, identity stars, zero states.

    The grammar writes the death as a single symbol, so the death vector must
    coincide with a basis element within the algebra tolerance (it is snapped
    to that element in the output); everything else round-trips bit-exactly
    up to the sign of a zero part.
    The basis must fit the format's capacity of ``MAX_BASIS`` symbols, every
    label must pass the ``basis`` line's symbol rule, the name must be one
    token without ``#``, and every structure constant, star entry and state
    value must be finite; otherwise this raises ``ValueError``.
    """
    n, labels = alg.dim, alg.labels
    if n > MAX_BASIS:
        raise ValueError(f"a basis of {n} symbols exceeds the format capacity of {MAX_BASIS} symbols")
    eye = np.eye(n, dtype=complex)
    death_hits = np.flatnonzero(rel_residuals(alg.death, eye) <= alg.tol)
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
    if not all(np.isfinite(a).all() for a in (alg.mult, alg.star, alg.state)):
        raise ValueError("the table, star and state must be finite to be serialized")
    lines = [f"algebra {alg.name}"] if alg.name else []
    lines.append("basis " + " ".join(labels))
    lines.append(f"death {labels[death_hits[0]]}")
    states = np.flatnonzero(alg.state)
    stars = np.flatnonzero((alg.star != eye).any(axis=1))
    left, right = np.nonzero(alg.mult.any(axis=2))
    names = [" " + sym for sym in labels]
    return "".join([
        "\n".join(lines), "\n",
        _format_rows([f"state {labels[i]} = " for i in states], alg.state[states, None], [""]),
        _format_rows([f"star {labels[i]} = " for i in stars], alg.star[stars], names),
        _format_rows([f"mul {labels[i]} {labels[j]} = " for i, j in zip(left, right)],
                     alg.mult[left, right], names),
    ])
