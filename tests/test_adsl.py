import itertools
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import itoalg as ia
from itoalg import adsl
from itoalg.adsl import (
    ParseDiagnostic,
    ParseResult,
    _Fault,
    parse,
    parse_complex,
    parse_lincomb,
    parse_strict,
    serialize,
)

from conftest import ref_format_complex, ref_parse_complex, ref_read_lincomb, ref_serialize

WIENER_FILE = """\
algebra wiener
basis dt dw
death dt
state dt = 1
mul dw dw = 1 dt
"""


class TestParseBasics:
    def test_five_line_wiener_file(self):
        alg = parse_strict(WIENER_FILE)
        assert alg.same_table(ia.wiener())
        assert alg.labels == ("dt", "dw")
        assert alg.name == "wiener"

    def test_unspecified_defaults(self):
        # star defaults to self-adjoint, state to zero, products to zero
        alg = parse_strict("basis dt x\ndeath dt\nstate dt = 1\n")
        assert np.array_equal(alg.star, np.eye(2))
        assert alg.state[1] == 0
        assert not np.any(alg.mult)

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\nbasis dt dw  # trailing\ndeath dt\nstate dt = 1\n"
        assert parse(text).ok

    def test_duplicate_mul_entry(self):
        text = WIENER_FILE + "mul dw dw = 2 dt\n"
        result = parse(text)
        assert not result.ok
        err = result.diagnostics[0]
        assert err.line == 6
        assert "duplicate table entry" in err.message

    def test_unknown_symbol(self):
        result = parse("basis dt\ndeath dt\nstate dt = 1\nmul dt dq = 0\n")
        assert not result.ok
        assert any("unknown basis symbol" in d.message for d in result.diagnostics)

    def test_missing_death(self):
        result = parse("basis dt dw\nstate dt = 1\n")
        assert not result.ok
        assert any("missing death" in d.message for d in result.diagnostics)

    def test_missing_basis(self):
        result = parse("death dt\n")
        assert not result.ok
        assert any("basis must be declared" in d.message for d in result.diagnostics)

    def test_death_state_must_be_one(self):
        result = parse("basis dt\ndeath dt\n")
        assert not result.ok
        assert any("death state must be 1" in d.message for d in result.diagnostics)
        result2 = parse("basis dt\ndeath dt\nstate dt = 2\n")
        assert not result2.ok

    def test_bad_table_parses_and_fails_its_axioms(self):
        # l(dw.dw) = -1 makes the Gram indefinite: the text is well formed, the axioms fail
        text = "basis dt dw\ndeath dt\nstate dt = 1\nmul dw dw = -1 dt\n"
        result = parse(text)
        assert result.ok and not result.diagnostics
        assert {c.name for c in ia.verify_axioms(result.algebra).failures()} == {"state_positive"}

    def test_large_basis_is_verified(self):
        # 49 basis symbols: the axioms are checked at every size up to MAX_BASIS
        text = serialize(ia.hp(6))
        assert ia.verify_axioms(parse(text).algebra).passed
        corrupted = text.replace("mul e-^1 e^1_1 = 1 e-^1", "mul e-^1 e^1_1 = 2 e-^1")
        assert corrupted != text
        result = parse(corrupted)
        assert result.ok and not result.diagnostics
        assert "associativity" in {c.name for c in ia.verify_axioms(result.algebra).failures()}

    def test_error_column_position(self):
        result = parse("basis dt dw\ndeath dt\nstate dt = 1\nmul dw dw = 1 dq\n")
        err = result.diagnostics[0]
        assert err.line == 4
        assert err.column == 15


HEAD = "basis dt dw\ndeath dt\nstate dt = 1\n"   # lines 1-3 of a valid file
HEAD_A = "basis dt a\ndeath dt\nstate dt = 1\n"
CAPACITY = "basis " + " ".join(f"s{i}" for i in range(65)) + "\n"


@pytest.mark.parametrize(
    "text,expected",
    [
        ("algebra a b\n" + HEAD, [(1, 1, "usage: algebra <name>")]),
        (HEAD + "death dt dw\n", [(4, 1, "usage: death <sym>")]),
        (HEAD + "state dw 1\n", [(4, 1, "usage: state <sym> = <complex>")]),
        (HEAD + "star dw =\n", [(4, 1, "usage: star <sym> = <lincomb>")]),
        (HEAD + "mul dw = 1 dt\n", [(4, 1, "usage: mul <sym> <sym> = <lincomb>")]),
        ("basis\n", [(1, 1, "basis needs at least one symbol"),
                     (2, 1, "missing basis declaration"), (2, 1, "missing death declaration")]),
        (HEAD + "mul dw dq = 1 dt\n", [(4, 8, "unknown basis symbol 'dq'")]),
        (HEAD + "mul dw dw = 1 dq\n", [(4, 15, "unknown basis symbol 'dq'")]),
        (HEAD + "mult dw dw = 1 dt\n", [(4, 1, "unknown keyword 'mult'")]),
        ("algebra a\nalgebra b\n" + HEAD, [(2, 1, "duplicate algebra header")]),
        (HEAD + "basis dt\n", [(4, 1, "duplicate basis declaration")]),
        ("basis dt dw dw\ndeath dt\nstate dt = 1\n", [(1, 13, "duplicate basis symbol 'dw'")]),
        (HEAD + "death dw\n", [(4, 1, "duplicate death declaration")]),
        (HEAD + "state dt = 2\n", [(4, 7, "duplicate state entry for 'dt'")]),
        (HEAD + "star dw = 1 dw\nstar dw = 1 dw\n", [(5, 6, "duplicate star entry for 'dw'")]),
        (HEAD + "mul dw dw = 1 dt\n  mul dw dw = 1 dt\n", [(5, 7, "duplicate table entry for dw dw")]),
        ("basis dt 1\ndeath dt\nstate dt = 1\n",
         [(1, 10, "basis symbol '1' collides with the grammar")]),
        ("basis dt =\ndeath dt\nstate dt = 1\nmul = = = 1 =\n",
         [(1, 10, "basis symbol '=' collides with the grammar"), (4, 5, "unknown basis symbol '='")]),
        (CAPACITY, [(1, 1, "basis exceeds the format capacity of 64 symbols"),
                    (2, 1, "missing death declaration")]),
        ("basis dt\nalgebra a\ndeath dt\nstate dt = 1\n",
         [(2, 1, "algebra header must precede the basis declaration")]),
        ("death dt\n", [(1, 1, "the basis must be declared before any other definition"),
                        (2, 1, "missing basis declaration"), (2, 1, "missing death declaration")]),
        ("algebra a\n  state dt = 1\nbasis dt\ndeath dt\n",
         [(2, 3, "the basis must be declared before any other definition")]),
        ("basis dt\nstate dt = 1\n", [(3, 1, "missing death declaration")]),
        ("basis dt\ndeath dt\nstate dt = 2\n", [(3, 12, "death state must be 1, got (2+0j)")]),
        ("basis dt dw\nstate dt = 1\ndeath dw\n", [(3, 7, "death state must be 1, got 0j")]),
        (HEAD + "state dw = x\n", [(4, 12, "bad complex literal 'x'")]),
        (HEAD + "mul dw dw = dt\n", [(4, 13, "expected a complex coefficient, got 'dt'")]),
        (HEAD + "mul dw dw = 1\n", [(4, 13, "coefficient without a basis symbol")]),
        (HEAD + "mul dw dw = 1 dt +\n", [(4, 18, "dangling '+' at end of line")]),
        (HEAD + "mul dw dw = 1 dt 1 dw\n", [(4, 18, "expected '+', got '1'")]),
        ("basis dt dw\ndeath dt\nstate dt = 1e400\n", [(3, 12, "non-finite coefficient")]),
        (HEAD + "mul dw dw = 1e400 dt\n", [(4, 13, "non-finite coefficient")]),
        (HEAD + "mul dw dw = 1e308 dt + 1e308 dt\n", [(4, 13, "non-finite coefficient")]),
        (HEAD_A + "mul a a = 1x dt\nmul a a = 1 dt\n",
         [(4, 11, "expected a complex coefficient, got '1x'")]),
        (HEAD_A + "mul a a = 1x zz\n", [(4, 11, "expected a complex coefficient, got '1x'")]),
        (HEAD_A + "mul a a = 1 zz + 1x dt\n", [(4, 13, "unknown basis symbol 'zz'")]),
        (HEAD_A + "mul a a = 1e400 dt\nmul a dt = 1x dt\n",
         [(4, 11, "non-finite coefficient"), (5, 12, "expected a complex coefficient, got '1x'")]),
    ],
    ids=[
        "usage-algebra", "usage-death", "usage-state", "usage-star", "usage-mul", "usage-basis",
        "unknown-symbol", "unknown-symbol-in-lincomb", "unknown-keyword",
        "duplicate-header", "duplicate-basis", "duplicate-basis-symbol", "duplicate-death",
        "duplicate-state", "duplicate-star", "duplicate-mul", "collision", "collision-equals",
        "capacity", "misplaced-header", "basis-missing", "basis-out-of-order", "death-missing",
        "death-state", "death-state-undeclared",
        "bad-literal", "coefficient-expected", "coefficient-without-symbol", "dangling-plus",
        "plus-missing", "non-finite-state", "non-finite-mul", "non-finite-sum",
        "faulted-line-then-same-key", "bad-literal-before-unknown-symbol",
        "unknown-symbol-before-bad-literal", "non-finite-then-bad-literal",
    ],
)
def test_diagnostic_contract(text, expected):
    # one input per message the parser emits, with the exact place it is reported
    result = parse(text)
    assert result.algebra is None
    assert [(d.line, d.column, d.message) for d in result.diagnostics] == expected


# an Arabic-Indic three and a fullwidth three: digits to str.isdecimal and complex, not ASCII
NON_ASCII_DIGITS = pytest.mark.parametrize("digit", ["٣", "３"], ids=["arabic-indic", "fullwidth"])


class TestAsciiLiterals:
    """A literal is ASCII: a non-ASCII digit is no number, so it can be a basis symbol."""

    @NON_ASCII_DIGITS
    def test_rejected_as_a_coefficient(self, digit):
        result = parse(HEAD + f"mul dw dw = {digit} dt\n")
        assert [(d.line, d.column, d.message) for d in result.diagnostics] == [
            (4, 13, f"expected a complex coefficient, got {digit!r}")]

    @NON_ASCII_DIGITS
    def test_rejected_as_a_state_value(self, digit):
        result = parse(f"basis dt dw\ndeath dt\nstate dt = {digit}\n")
        assert [(d.line, d.column, d.message) for d in result.diagnostics] == [
            (3, 12, f"bad complex literal {digit!r}")]

    @NON_ASCII_DIGITS
    def test_accepted_as_a_basis_symbol(self, digit):
        alg = parse_strict(f"basis dt {digit}\ndeath dt\nstate dt = 1\nmul {digit} {digit} = 3 dt\n")
        assert alg.labels == ("dt", digit)
        assert alg.mult[1, 1, 0] == 3
        assert parse_complex(digit) is None and parse_complex(f"1+{digit}i") is None


class TestComplexLiterals:
    @pytest.mark.parametrize(
        "token,expected",
        [
            ("3", 3.0),
            ("-2.5", -2.5),
            ("3i", 3j),
            ("-2.5e-3i", -2.5e-3j),
            ("1+2i", 1 + 2j),
            ("1-2i", 1 - 2j),
            ("-1.5+0.25i", -1.5 + 0.25j),
            ("1e3", 1e3),
            (".5", 0.5),
        ],
    )
    def test_valid_forms(self, token, expected):
        assert parse_complex(token) == expected

    @pytest.mark.parametrize("token", ["i", "+", "1+", "1+i", "2x", "", "1 2"])
    def test_invalid_forms(self, token):
        assert parse_complex(token) is None

    @pytest.mark.parametrize("z", [1.0, -0.5, 2j, 1 + 2j, 1 - 2j, -3.25e-4 + 1e6j])
    def test_format_roundtrip(self, z):
        assert parse_complex(ref_format_complex(z)) == complex(z)

    def test_every_short_token_matches_the_grammar(self):
        # every token of up to six characters over the literal alphabet
        for size in range(7):
            for chars in itertools.product("1.e+-i", repeat=size):
                token = "".join(chars)
                assert parse_complex(token) == ref_parse_complex(token), token

    @settings(max_examples=2000, deadline=None)
    @given(st.sampled_from(["", "i"]),
           st.text(st.sampled_from(list("0123456789.eE+-iIjJ_()naftyNF٣３x \t")), max_size=14))
    def test_token_matches_the_grammar(self, head, tail):
        # complex's own syntax (inf, NAN, Infinity, 1_0, (1+2j), j, 1J, non-ASCII digits)
        # is not a literal, and neither is an i that starts a token: i, i1, i+1
        token = head + tail
        want = ref_parse_complex(token)
        assert parse_complex(token) == want
        if token.split() != [token]:
            return
        # the same token as a state value, and as a coefficient inside a batch of mul lines
        state = parse(HEAD_A + f"state a = {token}\n")
        batch = parse(HEAD_A + f"mul a a = 1 dt + 2i a\nmul a dt = {token} a + 1 dt\nmul dt a = 3 a\n")
        if want is not None and np.isfinite(want):
            assert state.algebra.state[1] == want
            assert batch.algebra.mult[1, 0].tolist() == [1, want]
            assert batch.algebra.mult[1, 1].tolist() == [1, 2j] and batch.algebra.mult[0, 1, 1] == 3
        else:
            bad = "non-finite coefficient" if want is not None else None
            assert [(d.line, d.column, d.message) for d in state.diagnostics] == [
                (4, 11, bad or f"bad complex literal {token!r}")]
            assert [(d.line, d.column, d.message) for d in batch.diagnostics] == [
                (5, 12, bad or f"expected a complex coefficient, got {token!r}")]


class TestLincomb:
    def test_zero_literal(self):
        alg = parse_strict("basis dt x\ndeath dt\nstate dt = 1\nmul x x = 0\n")
        assert not np.any(alg.mult)

    def test_multi_term(self):
        alg = parse_strict(
            "basis dt a b\ndeath dt\nstate dt = 1\nmul a b = 1 dt + 2i b\nmul b a = 1 dt + -2i b\nstar a = 1 b\nstar b = 1 a\n"
        )
        assert alg.mult[1, 2, 0] == 1
        assert alg.mult[1, 2, 2] == 2j

    def test_dangling_plus(self):
        result = parse("basis dt a\ndeath dt\nstate dt = 1\nmul a a = 1 dt +\n")
        assert not result.ok
        assert any("dangling" in d.message for d in result.diagnostics)

    def test_coefficient_required(self):
        result = parse("basis dt a\ndeath dt\nstate dt = 1\nmul a a = dt\n")
        assert not result.ok


class TestRoundtrip:
    def test_all_builtins_bit_exact(self, catalog):
        for name, alg in catalog.items():
            text = serialize(alg)
            back = parse(text)
            assert back.ok, (name, [str(d) for d in back.diagnostics])
            q = back.algebra
            assert q.labels == alg.labels, name
            assert np.array_equal(q.mult, alg.mult), name
            assert np.array_equal(q.star, alg.star), name
            assert np.array_equal(q.death, alg.death), name
            assert np.array_equal(q.state, alg.state), name
            assert q.name == alg.name
            # serialization is canonical: a second pass is identical text
            assert serialize(q) == text, name

    def test_newton_is_three_lines_plus_header(self):
        text = serialize(ia.newton())
        lines = text.strip().splitlines()
        assert lines == ["algebra newton", "basis dt", "death dt", "state dt = 1"]

    def test_non_basis_death_rejected(self):
        w = ia.wiener()
        odd = ia.ItoAlgebra(
            labels=w.labels,
            mult=w.mult,
            star=w.star,
            death=np.array([0.5, 0.0]),
            state=np.array([2.0, 0.0]),
        )
        with pytest.raises(ValueError, match="death"):
            serialize(odd)

    @pytest.mark.parametrize(
        "label,name",
        [("d w", None), ("a#b", None), ("mul", None), ("1", None), ("+", None), ("=", None),
         ("dw", "my wiener")],
    )
    def test_unreadable_symbol_rejected(self, label, name):
        # serialize refuses text that parse would reject: the basis line's symbol rule
        w = ia.wiener()
        alg = ia.ItoAlgebra(labels=("dt", label), mult=w.mult, star=w.star, death=0, state=w.state,
                            name=name)
        with pytest.raises(ValueError, match=re.escape(repr(name or label))):
            serialize(alg)


# labels that are format-string hazards for a writer built on % or str.format
HAZARD_LABELS = ["%", "%s", "%%d", "{0}", "\\", "v1", "x%"]
# reals that stress the 17-digit form: signed zeros, the extremes, integers
SPECIAL_REALS = [0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 1.0, -3.0, 12.0, 0.1, -2.5e-7]


def _random_table(n: int, seed: int, labels) -> ia.ItoAlgebra:
    """A dense table, star and state mixing SPECIAL_REALS with random reals of any scale."""
    rng = np.random.default_rng(seed)

    def entries(shape):
        parts = []
        for _ in range(2):  # real and imaginary part, drawn independently
            wild = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
            special = rng.choice(SPECIAL_REALS, shape)
            parts.append(np.where(rng.random(shape) < 0.4, special, wild))
        return parts[0] + 1j * parts[1]

    state = entries(n)
    state[0] = 1.0  # the death's state
    return ia.ItoAlgebra(labels=labels, mult=entries((n, n, n)), star=entries((n, n)), death=0,
                         state=state, name="random")


def _without_signed_zeros(a: np.ndarray) -> bytes:
    return (a + 0.0).tobytes()  # -0.0 + 0.0 is 0.0: the text keeps no sign of a zero


class TestTableCodec:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 8), st.integers(0, 2**32 - 1), st.randoms(use_true_random=False))
    def test_dense_tables_match_reference_writer(self, n, seed, random):
        labels = ("dt", *random.sample(HAZARD_LABELS + [f"s{k}" for k in range(8)], n - 1))
        alg = _random_table(n, seed, labels)
        text = serialize(alg)
        assert text == ref_serialize(alg)
        with np.errstate(all="ignore"):  # the axiom check of a random table overflows
            back = parse(text)
        assert back.ok, back.diagnostics
        assert back.algebra.labels == labels
        for got, want in [(back.algebra.mult, alg.mult), (back.algebra.star, alg.star),
                          (back.algebra.state, alg.state)]:
            assert _without_signed_zeros(got) == _without_signed_zeros(want)

    @pytest.mark.parametrize(
        "table,where,value",
        [("mult", (1, 1, 0), np.inf), ("mult", (1, 1, 0), complex(1, np.nan)),
         ("star", (1, 1), complex(np.nan, 0)), ("state", (1,), -np.inf)],
        ids=["mult-inf", "mult-nan-imaginary", "star-nan", "state-inf"],
    )
    def test_non_finite_entry_refused(self, table, where, value):
        # the parser rejects a non-finite literal, so serialize must not write one
        w = ia.wiener()
        arrays = {"mult": w.mult.copy(), "star": w.star.copy(), "state": w.state.copy()}
        arrays[table][where] = value
        alg = ia.ItoAlgebra(labels=w.labels, death=0, name="wiener", **arrays)
        with pytest.raises(ValueError, match="finite"):
            serialize(alg)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(
        ["1", "-2.5", "3i", "1+2i", "1-2i", ".5e-3", "0", "1e400", "1e308", "1x", "i", "٣",
         "dt", "a", "zz", "+", "+", "=", "#c"]), max_size=12))
    def test_lincomb_matches_token_reader(self, tokens):
        # the table reader on one line against the token-at-a-time reference
        labels = ("dt", "a", "٣")
        index = {lab: i for i, lab in enumerate(labels)}
        text = " ".join(tokens)
        try:
            want = ref_read_lincomb(text.split("#", 1)[0].split(), 0, index)
        except _Fault as fault:
            want = fault.diagnostic(1, text)
        vec, diags = parse_lincomb(text, labels)
        if isinstance(want, np.ndarray):
            assert diags == [] and vec.tobytes() == want.tobytes()
        else:
            assert vec is None and diags == [want]

    def test_bad_literal_is_rejected_in_linear_time(self):
        # literals are checked in linear time; a backtracking pattern for the
        # reals, such as \d+\.?\d*, takes seconds to reject the long token, and
        # the bad token after a 2 MB column of good literals is found without
        # reading each of them again
        long_token = "1" * 5000 + "x"
        column = "1+1i dt + " * 200_000
        cases = [(f"{long_token} dt", long_token, 1), (column + "1x dt", "1x", len(column) + 1)]
        for text, bad, column_no in cases:
            start = time.perf_counter()
            vec, diags = parse_lincomb(text, ["dt"])
            assert time.perf_counter() - start < 0.5
            assert vec is None
            message = f"expected a complex coefficient, got {bad!r}"
            assert diags == [ParseDiagnostic(1, column_no, message)]

    def test_faults_in_a_dense_table(self):
        # a dense 24-symbol table: each fault is reported at its own line, and a faulted line
        # stores nothing, so its key written again later is not a duplicate
        n = 24
        alg = _random_table(n, 7, ("dt", *(f"s{k}" for k in range(n - 1))))
        lines = serialize(alg).splitlines()
        first = next(k for k, line in enumerate(lines) if line.startswith("mul"))
        late = len(lines) - 5
        assert lines[late].startswith("mul")
        early = lines[first].split()
        lines[first] = " ".join(early[:4] + ["1e308", early[5], "+", "1e308", early[5]])
        bad = lines[late].split()
        bad[7] = "1x"
        lines[late] = " ".join(bad)
        lines.insert(late + 1, " ".join(bad[:4] + ["1", "dt"]))  # its key again
        lines.append("mul zz dt = 1 dt")
        with np.errstate(all="ignore"):
            result = parse("\n".join(lines) + "\n")
        assert [(d.line, d.column, d.message) for d in result.diagnostics] == [
            (first + 1, len(" ".join(early[:4])) + 2, "non-finite coefficient"),
            (late + 1, len(" ".join(bad[:7])) + 2, "expected a complex coefficient, got '1x'"),
            (len(lines), 5, "unknown basis symbol 'zz'"),
        ]

    def test_file_is_read_once(self, monkeypatch):
        # a bad literal on the last line is that line's diagnostic; a staged line is read again at
        # most once, in line order, when its table's conversion finds the fault, and _declare runs
        # only for the death and state lines and the refused line
        staged, declared = [], []
        stage, declare = adsl._Lincombs.stage, adsl._declare
        monkeypatch.setattr(adsl._Lincombs, "stage",
                            lambda table, n, tokens: staged.append(n) or stage(table, n, tokens))
        monkeypatch.setattr(adsl, "_declare", lambda *args: declared.append(args[0]) or declare(*args))
        text = WIENER_FILE + "star dw = 1 dw\nmul dt dw = 0\nmul dw dt = 1x dt\n"
        result = parse(text)
        assert [(d.line, d.column, d.message) for d in result.diagnostics] == [
            (8, 13, "expected a complex coefficient, got '1x'")]
        assert staged == [5, 6, 7, 8, 5, 7, 8]
        assert declared == [["death", "dt"], ["state", "dt", "=", "1"], "mul dw dt = 1x dt".split()]

    def test_faulty_star_line_rereads_no_mul_line(self, monkeypatch):
        # each table converts and re-reads its own lines: the star fault is found without the
        # mul lines around it being read again
        declared = []
        declare = adsl._declare
        monkeypatch.setattr(adsl, "_declare", lambda *args: declared.append(args[0][0]) or declare(*args))
        text = WIENER_FILE + "mul dt dw = 0\nstar dw = 1x dw\nmul dw dt = 0\n"
        result = parse(text)
        assert [(d.line, d.column, d.message) for d in result.diagnostics] == [
            (7, 11, "expected a complex coefficient, got '1x'")]
        assert declared == ["death", "state", "star"]


def _read_in_batches(text: str, terms: int) -> tuple:
    """The diagnostics and stored star and mul tables of ``text``, read ``terms`` terms a batch."""
    with pytest.MonkeyPatch.context() as m, np.errstate(all="ignore"):
        m.setattr(adsl, "_BATCH_TERMS", terms)
        _, labels, declared, _, diags = adsl._read(text.splitlines())
        n = len(labels or [])
        tables = [(np.stack(where).tobytes(), vecs.tobytes())
                  for where, vecs in (adsl._rows(declared[kw], len(key), n)
                                      for kw, key in (("star", "a"), ("mul", "ab")))]
        return diags, tables


class TestBatches:
    """The star and mul lines are converted a batch at a time; a faulty batch is re-read by line."""

    def test_faulty_line_stores_nothing_and_its_key_is_stored_later(self):
        # the first line faults in conversion; the second, with the same key, is no duplicate
        lines = "basis dt a b\ndeath dt\nstate dt = 1\nmul a b = 1x a\nmul a b = 1 a\n".splitlines()
        _, _, declared, _, diags = adsl._read(lines)
        assert [(d.line, d.column, d.message) for d in diags] == [
            (4, 11, "expected a complex coefficient, got '1x'")]
        where, vecs = adsl._rows(declared["mul"], 2, 3)
        assert [w.tolist() for w in where] == [[1], [2]] and vecs.tolist() == [[0, 1, 0]]

    def test_diagnostics_come_in_line_order(self):
        # a fault found when the batch is converted, at the end, precedes the later lines' faults
        result = parse(HEAD_A + "mul a a = 1x dt\nmult a a = 1 dt\nstate a = x\n")
        assert [(d.line, d.message) for d in result.diagnostics] == [
            (4, "expected a complex coefficient, got '1x'"), (5, "unknown keyword 'mult'"),
            (6, "bad complex literal 'x'")]

    @pytest.mark.parametrize("bad,problem", [
        ("\u0663", "non-ASCII digit"), ("inf", "inf"), ("i", "lone i"), ("1+i", "i after a sign"),
        ("1j", "j"), ("1_0", "underscore"), ("(1)", "parentheses"), ("1e400", "non-finite"),
    ])
    @pytest.mark.parametrize("first", [True, False], ids=["leading", "inner"])
    def test_literal_refused_inside_a_batch(self, bad, problem, first):
        # the bad literal first in the batch's column (a leading i) or after good ones (' i')
        keys = ["a a", "a b", "b c", "c c", "b a", "c a"]
        good = [f"mul {key} = 1 dt + {k}.5i a" for k, key in enumerate(keys)]
        line = f"mul dt a = {bad} a + 2 dt"
        body = [line, *good] if first else [*good[:3], line, *good[3:]]
        result = parse("basis dt a b c\ndeath dt\nstate dt = 1\n" + "\n".join(body) + "\n")
        lineno = 4 + body.index(line)
        message = ("non-finite coefficient" if bad == "1e400"
                   else f"expected a complex coefficient, got {bad!r}")
        found = [(d.line, d.column, d.message) for d in result.diagnostics]
        assert found == [(lineno, 12, message)], problem

    def test_fault_in_a_later_batch(self):
        # a 24-symbol dense table spans several batches; faults in the second are reported at
        # their lines, and the tables stored are those of the line-at-a-time reader
        n = 24
        alg = _random_table(n, 3, ("dt", *(f"s{k}" for k in range(n - 1))))
        lines = serialize(alg).splitlines()
        terms = [len(line.split()) // 3 if line.startswith(("star", "mul")) else 0 for line in lines]
        assert sum(terms) > 3 * adsl._BATCH_TERMS
        second = next(k for k in range(len(lines)) if sum(terms[:k]) > adsl._BATCH_TERMS) + 3
        bad = lines[second].split()
        bad[7] = "1x"
        lines[second] = " ".join(bad)
        lines.insert(second + 1, " ".join(bad[:4] + ["1", "dt"]))  # its key again: stored
        lines.insert(second + 2, " ".join(bad[:4] + ["2", "dt"]))  # a duplicate of that line
        head = lines[second + 5].split()[:4]
        lines[second + 5] = " ".join(head + ["1e308", "s1", "+", "1e308", "s1"])  # a non-finite sum
        text = "\n".join(lines) + "\n"
        diags, tables = _read_in_batches(text, adsl._BATCH_TERMS)
        assert [(d.line, d.column, d.message) for d in diags] == [
            (second + 1, len(" ".join(bad[:7])) + 2, "expected a complex coefficient, got '1x'"),
            (second + 3, 5, f"duplicate table entry for {bad[1]} {bad[2]}"),
            (second + 6, len(" ".join(head)) + 2, "non-finite coefficient"),
        ]
        assert (diags, tables) == _read_in_batches(text, 1)

    def test_a_conversion_holds_a_bounded_batch(self, monkeypatch):
        # a table converts its staged lines once they hold _BATCH_TERMS terms, so no conversion
        # holds the whole coefficient column of a long text
        sizes = []
        terms = adsl._terms
        monkeypatch.setattr(adsl, "_terms", lambda coefs, *a: sizes.append(len(coefs)) or terms(coefs, *a))
        n = 24
        text = serialize(_random_table(n, 3, ("dt", *(f"s{k}" for k in range(n - 1)))))
        with np.errstate(all="ignore"):
            assert parse(text).ok
        assert sum(sizes) == sum((len(line.split(" = ")[1].split()) + 1) // 3 for line in text.splitlines()
                                 if line.startswith(("star", "mul")))
        assert len(sizes) > 3 and max(sizes) < adsl._BATCH_TERMS + n

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(1, 6))
    def test_batch_size_changes_nothing(self, seed, terms):
        # star and mul lines of token soup: any budget gives what one batch per text gives
        rng = np.random.default_rng(seed)
        pool = ["dt", "dw", "dm", "=", "+", "+", "0", "1", "2i", "1+2i", "i", "1+i", "1e308",
                "1e999", "\u0663", "1j", "x"]
        lines = ["basis dt dw dm", "death dt", "state dt = 1"]
        for _ in range(rng.integers(0, 16)):
            kw = str(rng.choice(["star", "mul", "mul"]))
            keys = rng.choice(["dt", "dw", "dm"], 1 if kw == "star" else 2).tolist()
            lines.append(" ".join([kw, *keys, "=", *rng.choice(pool, rng.integers(0, 8)).tolist()]))
        text = "\n".join(lines)
        assert _read_in_batches(text, terms) == _read_in_batches(text, 10**9)


class TestLineEnds:
    """Lines end at \\n, \\r\\n or \\r, as text-mode open() reads them; other whitespace separates tokens."""

    @pytest.mark.parametrize("sep", ["\u2028", "\u2029", "\x1c", "\x1d", "\x1e", "\x85", "\x0c", "\x0b"])
    def test_other_line_breaks_end_no_line(self, sep):
        # str.splitlines would break the comment here, read 'b' as a keyword and move the fault
        result = parse(f"basis dt dw\ndeath dt\nstate dt = 1 # a{sep}b\nmul dw dw = 1x dt\n")
        assert [(d.line, d.column, d.message) for d in result.diagnostics] == [
            (4, 13, "expected a complex coefficient, got '1x'")]
        alg = parse_strict(f"basis dt{sep}dw\ndeath dt\nstate dt = 1\nmul dw dw{sep}={sep}1 dt\n")
        assert alg.labels == ("dt", "dw") and alg.mult[1, 1, 0] == 1

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_line_ends(self, end):
        text = end.join(["basis dt dw", "death dt", "state dt = 1", "mul dw dw = 1x dt", ""])
        result = parse(text)
        assert [(d.line, d.column, d.message) for d in result.diagnostics] == [
            (4, 13, "expected a complex coefficient, got '1x'")]
        assert parse(end.join(["basis dt", "state dt = 1", ""])).diagnostics[-1].line == 3


class TestTotality:
    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=200))
    def test_arbitrary_text_never_raises(self, text):
        result = parse(text)
        assert isinstance(result, ParseResult)
        assert result.ok or result.diagnostics

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_token_soup_never_raises(self, seed):
        rng = np.random.default_rng(seed)
        pool = [
            "basis", "death", "state", "star", "mul", "algebra", "=", "+", "0",
            "dt", "dw", "dm", "1", "2i", "1+2i", "-1", "#x", "e-", "e+^1", "..", "1e999",
        ]
        lines = []
        for _ in range(rng.integers(0, 12)):
            k = rng.integers(0, 7)
            lines.append(" ".join(rng.choice(pool) for _ in range(k)))
        result = parse("\n".join(lines))
        assert isinstance(result, ParseResult)
        assert result.ok or result.diagnostics

    def test_mutated_builtin_files(self, catalog):
        rng = np.random.default_rng(99)
        texts = [serialize(alg) for alg in catalog.values()]
        for _ in range(200):
            text = list(texts[rng.integers(0, len(texts))])
            for _ in range(rng.integers(1, 6)):
                op = rng.integers(0, 3)
                pos = rng.integers(0, max(len(text), 1))
                if op == 0 and text:
                    text.pop(min(pos, len(text) - 1))
                elif op == 1:
                    text.insert(pos, chr(rng.integers(32, 127)))
                elif op == 2 and text:
                    text[min(pos, len(text) - 1)] = chr(rng.integers(32, 127))
            result = parse("".join(text))
            assert isinstance(result, ParseResult)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
    def test_invalid_tol_is_an_error_diagnostic(self, tol):
        result = parse(WIENER_FILE, tol=tol)
        assert not result.ok
        assert [d.message for d in result.diagnostics] == ["tol must be finite and nonnegative"]

    def test_oversized_basis_rejected(self):
        # the basis line's symbols are declared, so the later lines are read against them
        text = ("basis " + " ".join(f"s{i}" for i in range(100))
                + "\ndeath s0\nstate s0 = 1\nmul s1 s2 = 1 s3\n")
        result = parse(text)
        assert not result.ok
        assert [(d.line, d.column, d.message) for d in result.diagnostics] == [
            (1, 1, "basis exceeds the format capacity of 64 symbols")]
