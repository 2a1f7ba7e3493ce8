import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import itoalg as ia
from itoalg.adsl import (
    ParseResult,
    format_complex,
    parse,
    parse_complex,
    parse_strict,
    serialize,
)

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
        err = result.errors()[0]
        assert err.line == 6
        assert "duplicate table entry" in err.message

    def test_unknown_symbol(self):
        result = parse("basis dt\ndeath dt\nstate dt = 1\nmul dt dq = 0\n")
        assert not result.ok
        assert any("unknown basis symbol" in d.message for d in result.errors())

    def test_missing_death(self):
        result = parse("basis dt dw\nstate dt = 1\n")
        assert not result.ok
        assert any("missing death" in d.message for d in result.errors())

    def test_missing_basis(self):
        result = parse("death dt\n")
        assert not result.ok
        assert any("basis must be declared" in d.message for d in result.errors())

    def test_death_state_must_be_one(self):
        result = parse("basis dt\ndeath dt\n")
        assert not result.ok
        assert any("death state must be 1" in d.message for d in result.errors())
        result2 = parse("basis dt\ndeath dt\nstate dt = 2\n")
        assert not result2.ok

    def test_axiom_warning_on_bad_table(self):
        # l(dw.dw) = -1 makes the Gram indefinite: parsed with a warning
        text = "basis dt dw\ndeath dt\nstate dt = 1\nmul dw dw = -1 dt\n"
        result = parse(text)
        assert result.ok
        assert any("state_positive" in d.message for d in result.warnings())

    def test_large_basis_is_verified(self):
        # 49 basis symbols: parse verifies the axioms at every size up to MAX_BASIS
        text = serialize(ia.hp(6))
        assert not parse(text).warnings()
        corrupted = text.replace("mul e-^1 e^1_1 = 1 e-^1", "mul e-^1 e^1_1 = 2 e-^1")
        assert corrupted != text
        result = parse(corrupted)
        assert result.ok
        assert any("associativity" in d.message for d in result.warnings())

    def test_error_column_position(self):
        result = parse("basis dt dw\ndeath dt\nstate dt = 1\nmul dw dw = 1 dq\n")
        err = result.errors()[0]
        assert err.line == 4
        assert err.column == 15


HEAD = "basis dt dw\ndeath dt\nstate dt = 1\n"   # lines 1-3 of a valid file
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
                    (2, 1, "missing basis declaration"), (2, 1, "missing death declaration")]),
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
    ],
)
def test_diagnostic_contract(text, expected):
    # one input per message the parser emits, with the exact place it is reported
    result = parse(text)
    assert result.algebra is None
    assert [(d.line, d.column, d.message) for d in result.diagnostics] == expected


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
        assert parse_complex(format_complex(z)) == complex(z)


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
        assert any("dangling" in d.message for d in result.errors())

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


class TestTotality:
    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=200))
    def test_arbitrary_text_never_raises(self, text):
        result = parse(text)
        assert isinstance(result, ParseResult)
        assert result.ok or result.errors()

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
        assert result.ok or result.errors()

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
        assert [d.message for d in result.errors()] == ["tol must be finite and nonnegative"]

    def test_oversized_basis_rejected(self):
        text = "basis " + " ".join(f"s{i}" for i in range(100)) + "\ndeath s0\n"
        result = parse(text)
        assert not result.ok
        assert any("capacity" in d.message for d in result.errors())
