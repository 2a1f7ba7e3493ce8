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
``=`` and what a duplicate is called.  Their usage text, symbol lookup and
duplicate rule are the same code for all four.  A line reports
at most one fault, at the column of the token it names: the earliest bad
token in token order, and a line with a fault stores nothing.

Lines end at ``\n``, ``\r\n`` or ``\r``, the line ends that text-mode
``open()`` reads; every other whitespace character separates tokens.  The
lines are read in order, and a ``star`` or ``mul`` line is converted and
stored one way, by its table (``_Lincombs``).  As the line is read it gets
the checks that need no conversion (usage and ``=``, key symbols, a
duplicate key, ``+`` separators, a symbol after every coefficient); its key
is stored and its coefficient and symbol tokens are staged.  Once a table's
staged lines hold ``_BATCH_TERMS`` terms, and at the end of the text, they
are converted at once (``_terms``): the one literal rule (``_literals``) on
the joined coefficient column, one ``map(index.get, ...)``, one
``np.add.at`` scatter into their vectors and one finiteness test of those.
A conversion that finds a fault takes the staged keys back and stages and
converts each staged line alone.  The per-line code only says where a
refused line fails: ``_declare`` runs its usage, key and duplicate checks,
and ``_lincomb_fault`` walks its terms in token order, over one conversion
of its coefficient column, to the first bad token.  ``parse_lincomb`` is
the same shape check and ``_terms`` on one line.

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
from itertools import chain

import numpy as np

from .core import ItoAlgebra, rel_residual, rel_residuals

__all__ = ["ParseDiagnostic", "ParseResult", "parse", "parse_strict", "parse_lincomb", "serialize"]

# the bytes of a column of literals: ASCII digits, '.', exponents, signs, i and the separator
_LITERAL_BYTES = b"0123456789.eE+-i "
_BATCH_TERMS = 4096  # a table converts its staged lines once they hold this many terms

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
    """The complex literal ``token``, or None if it is not one (``_literals``)."""
    vals = _literals([token]) if _is_token(token) else []
    return vals[0] if vals else None


def _is_token(text: str) -> bool:
    return text.split() == [text] and "#" not in text


def _symbol_problem(sym: str) -> str | None:
    """Why ``sym`` cannot be a basis symbol, or None; the ``basis`` line and ``serialize`` share it."""
    if not _is_token(sym):
        return "is not one token"
    if sym in _KEYWORDS or sym in ("+", "=") or _literals([sym]):
        return "collides with the grammar"
    return None


def _literals(tokens: list[str]) -> list[complex]:
    """The values of the literals that start ``tokens``, up to the first token that is not one.

    The one literal rule.  A literal is an ASCII token that ``complex`` reads
    with ``j`` for ``i``, less what ``complex`` accepts beyond the grammar.
    ``bytes.translate`` leaves the bytes of the joined column outside the
    literals' alphabet: non-ASCII text, ``inf`` and ``nan``, parentheses,
    underscores and ``j``; the first byte it leaves is the first bad byte.
    Within the alphabet that leaves an ``i`` that starts a token or follows a
    sign (``i``, ``+i``, ``1-i``), the only lone ``i`` that ``complex``
    reads, found by one numpy scan.  One map of ``complex`` over the tokens
    before the first of these converts them and checks the rest of the
    syntax, stopping at the first token it cannot read.  Each step is linear
    in the column.
    """
    column = " ".join(tokens)
    raw = column.encode("utf-8", "surrogatepass")
    left = raw.translate(None, _LITERAL_BYTES)
    stop = raw.find(left[:1]) if left else len(raw)
    if raw.find(b"i", 0, stop) >= 0:
        text = np.frombuffer(raw, np.uint8, stop)
        at = np.flatnonzero(text == ord("i"))
        lone = at[(at == 0) | (text[at - 1] < ord("."))]  # after a space or a sign, the bytes below '.'
        stop = lone[0] if len(lone) else stop
    if stop < len(raw):  # the tokens wholly before the first bad byte, which is ASCII
        column = raw[:stop].rpartition(b" ")[0].decode("ascii")
        if not column:
            return []
    vals: list[complex] = []
    try:
        vals.extend(map(complex, column.replace("i", "j").split(" ")))
    except ValueError:  # list.extend keeps the values before it: 1e, 1+2, 1.2.3, 1ei, +, no token
        pass
    return vals


def _lincomb_fault(tokens: list[str], start: int, index: dict[str, int]) -> _Fault:
    """The fault of the refused lincomb ``tokens[start:]``: its first bad token in token order.

    Its coefficients up to its first bad separator are converted by one
    ``_literals`` call, and its terms are walked over the values read: a bad
    literal, a non-finite value or an unknown symbol before its shape fault
    is the fault.  A refused lincomb of sound shape and tokens has a symbol
    whose coefficients sum past the float range.
    """
    body = tokens[start:]
    if not body:
        return _Fault(start, "empty linear combination (zero is written 0)")
    coefs, syms, plus = body[::3], body[1::3], body[2::3]
    fault = _Fault(start, "non-finite coefficient")
    if plus.count("+") != len(plus):
        q = next(q for q, sep in enumerate(plus) if sep != "+")
        fault = _Fault(start + 3 * q + 2, f"expected '+', got {plus[q]!r}")
        coefs = coefs[:q + 1]
    elif len(body) % 3 == 1:
        fault = _Fault(len(tokens) - 1, "coefficient without a basis symbol")
    elif len(body) % 3 == 0:
        fault = _Fault(len(tokens) - 1, "dangling '+' at end of line")
    vals = _literals(coefs)
    for t, coef in enumerate(coefs):
        if t == len(vals):
            return _Fault(start + 3 * t, f"expected a complex coefficient, got {coef!r}")
        if not isfinite(vals[t]):
            return _Fault(start + 3 * t, "non-finite coefficient")
        if t < len(syms) and syms[t] not in index:
            return _Fault(start + 3 * t + 1, f"unknown basis symbol {syms[t]!r}")
    return fault


def _terms(coefs: list[str], syms: list[str], counts: list[int], index: dict[str, int]) -> np.ndarray | None:
    """The vectors over ``index`` of staged lincombs, or None if any of them is faulty.

    Lincomb ``r`` has ``counts[r]`` terms, which follow those of the lincombs
    before it in ``coefs`` (coefficient tokens) and ``syms`` (symbol tokens).
    They are accepted exactly when every literal reads (``_literals``), every
    symbol is known and every vector is finite.  One ``np.add.at`` scatters
    the values; it sums the coefficients of a repeated symbol in term order
    from 0, so a non-finite value, or a sum of finite ones past the float
    range, shows in its vector.
    """
    vals = _literals(coefs)
    if len(vals) < len(coefs):
        return None
    try:
        cols = np.fromiter(map(index.get, syms), np.intp, len(syms))
    except TypeError:  # an unknown symbol (None)
        return None
    vecs = np.zeros((len(counts), len(index)), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(vecs, (np.repeat(np.arange(len(counts)), counts), cols), vals)
    return vecs if np.isfinite(vecs).all() else None


def _is_lincomb(body: list[str]) -> bool:
    """Whether ``body`` has the shape of a lincomb: ``0``, or ``coef sym`` terms joined by ``+``."""
    plus = body[2::3]
    return body == ["0"] or len(body) % 3 == 2 and plus.count("+") == len(plus)


def parse_lincomb(text: str, labels) -> tuple[np.ndarray | None, list[ParseDiagnostic]]:
    """The coefficient vector of the lincomb ``text`` over ``labels``, and its diagnostics.

    ``text`` is read as line 1; on success the diagnostics are empty, on a
    fault the vector is None and the one diagnostic names the fault.
    """
    tokens = text.split("#", 1)[0].split()
    index = {lab: i for i, lab in enumerate(labels)}
    vecs = None
    if _is_lincomb(tokens):
        body = [] if tokens == ["0"] else tokens
        vecs = _terms(body[::3], body[1::3], [len(body[1::3])], index)
    if vecs is None:
        return None, [_lincomb_fault(tokens, 0, index).diagnostic(1, text)]
    return vecs[0], []


def _declare(tokens: list[str], row, index: dict[str, int], table: dict) -> tuple:
    """Check one ``death``, ``state``, ``star`` or ``mul`` line against its ``table``; return its key.

    A death or a state is stored in ``table``.  A ``star`` or ``mul`` line
    comes here only when its table has refused it, and this raises its
    fault: a failed usage, key or duplicate check, else its lincomb's first
    bad token (``_lincomb_fault``).
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
    if value == "<lincomb>":
        raise _lincomb_fault(tokens, eq + 1, index)
    if value == "<complex>":
        stored = parse_complex(tokens[eq + 1])
        if stored is None:
            raise _Fault(eq + 1, f"bad complex literal {tokens[eq + 1]!r}")
        if not isfinite(stored):
            raise _Fault(eq + 1, "non-finite coefficient")
    table[key] = stored
    return key


class _Lincombs(dict):
    """A ``star`` or ``mul`` table of ``lines``: key -> line number, and the vectors of its lines.

    ``stage`` gives a line the checks that need no conversion, stores its
    key and stages its coefficient and symbol tokens in ``coefs`` and
    ``syms`` and its term count in ``counts``; the staged lines are the last
    ``len(counts)`` keys.  ``convert`` converts them at once (``_terms``)
    and appends their vectors to ``vecs``, in line order.  A conversion that
    finds a fault takes the staged keys back and stages and converts each
    staged line alone; a line refused alone gets its diagnostic, in
    ``diags``, from ``_declare``.  So a refused line stores nothing, and a
    later line with its key is no duplicate.
    """

    def __init__(self, keyword: str, lines: list[str], index: dict[str, int]):
        super().__init__()
        self.row, self.lines, self.index = _DECLARATIONS[keyword], lines, index
        self.eq = 1 + self.row[0]  # the index of the '=' token
        self.vecs: list[np.ndarray] = []
        self.diags: list[ParseDiagnostic] = []
        self.coefs: list[str] = []
        self.syms: list[str] = []
        self.counts: list[int] = []

    def stage(self, lineno: int, tokens: list[str]) -> bool:
        """Store line ``lineno``'s key and stage its terms; False, storing nothing, if it is refused.

        It is refused for a wrong usage or ``=``, an unknown key symbol, a
        duplicate key, a missing ``+``, a coefficient without a symbol or a
        dangling ``+``.  A key of a staged line is a duplicate only once that
        line is converted, so the table is converted first.  The table is
        also converted once its staged lines hold ``_BATCH_TERMS`` terms.
        """
        eq = self.eq
        if len(tokens) < eq:   # no whole key, so no staged line's key either
            return False
        body, get = tokens[eq + 1:], self.index.get
        key = (get(tokens[1]),) if eq == 2 else (get(tokens[1]), get(tokens[2]))
        if not _is_lincomb(body) or tokens[eq] != "=" or None in key or key in self:
            if key in self and self.counts:
                self.convert()
                return self.stage(lineno, tokens)
            return False
        self[key] = lineno
        syms = body[1::3]  # none for 0
        self.counts.append(len(syms))
        if syms:
            self.coefs += body[::3]
            self.syms += syms
            if len(self.coefs) >= _BATCH_TERMS:
                self.convert()
        return True

    def convert(self) -> None:
        """Convert the staged lines, or read them again on a fault."""
        vecs = _terms(self.coefs, self.syms, self.counts, self.index)
        staged = len(self.counts)
        self.coefs, self.syms, self.counts = [], [], []
        if vecs is not None:
            self.vecs.append(vecs)
            return
        for lineno in [self.popitem()[1] for _ in range(staged)][::-1]:  # the staged keys, stored last
            line = self.lines[lineno - 1]
            tokens = line.split("#", 1)[0].split()
            if staged == 1:  # refused alone
                try:
                    _declare(tokens, self.row, self.index, self)
                except _Fault as fault:
                    self.diags.append(fault.diagnostic(lineno, line))
            elif self.stage(lineno, tokens) and self.counts:
                self.convert()


def _read(lines: list[str]):
    """Every declaration of ``lines``: name, labels, declared, declared_at, diagnostics.

    Each line reports at most one fault, and a line with a fault stores
    nothing.  A ``star`` or ``mul`` line is staged in its table
    (``_Lincombs``), which holds its diagnostic if it is refused in
    conversion; the diagnostics are returned in line order.
    """
    diags: list[ParseDiagnostic] = []
    name: str | None = None
    labels: list[str] | None = None
    index: dict[str, int] = {}
    declared: dict[str, dict] = {kw: _Lincombs(kw, lines, index) if row[1] == "<lincomb>" else {}
                                 for kw, row in _DECLARATIONS.items()}
    tables = {kw: table for kw, table in declared.items() if isinstance(table, _Lincombs)}
    declared_at: dict[tuple, int] = {}  # (keyword, key) -> line number, for the death and states
    for lineno, line in enumerate(lines, start=1):
        tokens = line.split("#", 1)[0].split()
        if not tokens:
            continue
        kw = tokens[0]
        if kw in tables and labels is not None and tables[kw].stage(lineno, tokens):
            continue
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
    for table in tables.values():
        table.convert()
        diags += table.diags
    diags.sort(key=lambda d: d.line)  # stable: one diagnostic per line
    return name, labels, declared, declared_at, diags


def _rows(table: _Lincombs, n_sym: int, n: int) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """A ``star`` or ``mul`` table: one index array per key symbol, and the vectors."""
    keys = np.fromiter(chain.from_iterable(table), np.intp, n_sym * len(table)).reshape(-1, n_sym)
    return tuple(keys.T), np.concatenate([np.zeros((0, n), complex), *table.vecs])


def parse(text: str, tol: float = ItoAlgebra.tol) -> ParseResult:
    """Parse an algebra definition; diagnostics carry line and column.

    On success the diagnostics are empty and the algebra carries ``tol``; its
    axioms are not checked here.  A ``tol`` that is not finite and
    nonnegative is an error.
    """
    if not 0 <= tol < np.inf:
        diag = ParseDiagnostic(0, 0, "tol must be finite and nonnegative")
        return ParseResult(None, [diag])
    lines = (text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text).split("\n")
    if not lines[-1]:
        lines.pop()  # the empty rest after a final line end
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
