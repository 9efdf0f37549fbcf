"""Parser round-trips, normalization on entry, and error reporting."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import same_program
from oracles import reference_tokenize
from randprog import random_program

from hornchain.chc import ArityError, ChcError, print_program
from hornchain.parser import (
    NonlinearTermError,
    ParseError,
    _position,
    parse_constraint,
    parse_program,
    tokenize,
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10_000))
def test_print_parse_round_trip(seed):
    p = random_program(random.Random(seed))
    q = parse_program(print_program(p))
    # One hop reaches the parser's normal form; reparsing is then stable,
    # and the round trip preserves the clauses up to renaming and
    # constraint normalization.
    assert parse_program(print_program(q)) == q
    assert same_program(p, q)


def test_fixture_round_trip(twophase, twophase_unfolded, twophase_qa):
    for prog in (twophase, twophase_unfolded, twophase_qa):
        assert parse_program(print_program(prog)) == prog


def test_relation_spellings_coincide():
    a = parse_program("p(A) :- A =< 3.")
    b = parse_program("p(A) :- 3 >= A.")
    assert a.clauses[0] == b.clauses[0]
    c = parse_program("p(A) :- A < 3.")
    d = parse_program("p(A) :- 3 > A.")
    assert c.clauses[0] == d.clauses[0]
    e = parse_program("p(A) :- A is 1+2.")
    f = parse_program("p(A) :- A = 3.")
    assert e.clauses[0] == f.clauses[0]


def test_head_argument_binding():
    # A non-variable or repeated head argument becomes a fresh variable
    # with a binding equality in the constraint.
    p = parse_program("p(A,A) :- A >= 1.")
    clause = p.clauses[0]
    assert len(set(clause.head.args)) == 2
    q = parse_program("q(3).")
    assert q.clauses[0].constr.conjuncts


def test_constraint_head_becomes_integrity_constraint():
    # The head is negated into the body: an inequality to its opposite, an
    # equality to its two strict sides, one integrity constraint each.
    for text, printed in (
        ("X >= 1 :- p(X).", "false :- A<1, p(A).\n"),
        ("X > 0 :- p(X).", "false :- A=<0, p(A).\n"),
        ("X = 0 :- p(X).", "false :- A>0, p(A).\nfalse :- A<0, p(A).\n"),
    ):
        assert print_program(parse_program(text)) == printed


def test_division_by_a_constant_scales_the_term():
    assert print_program(parse_program("p(Y) :- Y = X / 2, X >= 4.")) == "p(A) :- A=1/2*B, B>=4.\n"


def test_constraint_with_trailing_input_rejected():
    with pytest.raises(ParseError, match="unexpected trailing input 'B'") as exc:
        parse_constraint("A >= 1 B")
    assert (exc.value.line, exc.value.col) == (1, 8)


def test_nonlinear_product_rejected():
    with pytest.raises(NonlinearTermError):
        parse_program("p(A) :- A*A >= 1.")


def test_nonlinear_division_rejected():
    with pytest.raises(NonlinearTermError):
        parse_program("p(A,B) :- A/B >= 1.")


def test_division_by_zero_rejected():
    with pytest.raises(ParseError, match="division by zero"):
        parse_program("p(A) :- A = 1/0.")


def test_function_symbols_rejected():
    with pytest.raises(ParseError, match="function symbols"):
        parse_program("p(A) :- A = f(3).")


def test_error_position_is_reported():
    with pytest.raises(ParseError) as exc:
        parse_program("p(A) :- A >= 1.\nq(B) :- B >= #.")
    assert exc.value.line == 2
    assert exc.value.col > 0
    assert "line 2" in str(exc.value)


def test_missing_period_rejected():
    with pytest.raises(ParseError):
        parse_program("p(A) :- A >= 1")


def test_arity_mismatch_rejected():
    with pytest.raises(ArityError):
        parse_program("p(A) :- p(A,A).")


def test_goal_predicate_never_in_body():
    with pytest.raises(ChcError):
        parse_program("p(A) :- A = 1, false.")


def test_overlong_literal_rejected():
    # Longer than the interpreter converts from decimal text.
    for literal in ("7" * 5000, "7" * 5000 + ".5", "0." + "7" * 5000):
        with pytest.raises(ParseError, match="too long") as exc:
            parse_program("p(A) :-\n  A = " + literal + ".")
        assert (exc.value.line, exc.value.col) == (2, 7)


@pytest.mark.parametrize("text", [
    "(" * 1000 + "A" + ")" * 1000 + " >= 0",
    "-" * 1000 + "A >= 0",
    "A >= " + "-(" * 500 + "1" + ")" * 500,
], ids=["parens", "minus", "mixed"])
def test_deep_nesting_rejected(text):
    with pytest.raises(ParseError, match="nested") as exc:
        parse_constraint(text)
    assert exc.value.line == 1
    with pytest.raises(ParseError, match="nested"):
        parse_program(f"p(A) :- {text}.")


_PIECES = st.sampled_from([
    "p", "q", "false", "is", "A", "B", "_", "0", "12", "7" * 40, " ", "\n", "%",
    "\u00b2", "\u0663",  # digits outside ASCII
    ":-", "=<", ">=", "<", ">", "=", ",", ".", "(", ")", "+", "-", "*", "/",
])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(st.text(), st.lists(_PIECES, max_size=40).map("".join)))
def test_only_chc_errors_escape_the_parser(text):
    for parse in (parse_program, parse_constraint):
        try:
            parse(text)
        except ChcError:
            pass


# -- the scanner against the character-by-character reference ------------------


def _scan(scanner, text):
    """The token stream, or the error's message and position."""
    try:
        return scanner(text)
    except ParseError as exc:
        return str(exc), exc.line, exc.col


def _positioned(text):
    return [(kind, word, *_position(text, offset)) for kind, word, offset in tokenize(text)]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(
    st.text(),
    st.lists(
        st.one_of(_PIECES, st.sampled_from(["\t", "\r\n", "\u00c9a", "\u00e9a", "a\u00b2", "#"])),
        max_size=40,
    ).map("".join),
))
def test_scanner_matches_reference(text):
    assert _scan(_positioned, text) == _scan(reference_tokenize, text)


def test_non_ascii_letters_start_names():
    # The case of the first letter decides, as for ASCII names; a digit
    # that is not ASCII may continue a name.
    assert _positioned("\u00c9a \u00e9a a\u00b2") == [
        ("var", "\u00c9a", 1, 1),
        ("ident", "\u00e9a", 1, 4),
        ("ident", "a\u00b2", 1, 7),
        ("eof", "", 1, 9),
    ]
    p = parse_program("\u00e9a(\u00c9a) :- \u00c9a >= 1.")
    assert tuple(p.arities) == ("\u00e9a",)


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])
def test_non_ascii_digits_rejected_at_their_column(digit):
    # ``\u00b2`` is a word character to a regex, but no letter, so it
    # cannot start a name; neither digit is a number.
    for text in (f"p(A) :- A >= {digit}.", f"p(A) :- A >= {digit}A."):
        with pytest.raises(ParseError, match="unexpected character") as exc:
            parse_program(text)
        assert (exc.value.line, exc.value.col) == (1, 14)
        assert _scan(_positioned, text) == _scan(reference_tokenize, text)


def test_crlf_and_tab_columns():
    # ``\r`` and a tab are one column each.
    tokens = _positioned("p(A) :-\r\n\tA >= 1.\r\n")
    assert tokens[5:7] == [("var", "A", 2, 2), ("op", ">=", 2, 4)]
    text = "p(A) :-\r\n\tA >= 1.\r\nq(B) :-\tB >= #."
    with pytest.raises(ParseError) as exc:
        parse_program(text)
    assert (exc.value.line, exc.value.col) == (3, 14)
    assert _scan(_positioned, text) == _scan(reference_tokenize, text)


def test_comment_at_end_without_newline():
    # The end of the text sits where its last comment starts.
    assert _positioned("p(A) :- A >= 1. % done")[-1] == ("eof", "", 1, 17)
    with pytest.raises(ParseError, match="expected '.', found ''") as exc:
        parse_program("p(0).\np(A) :- A >= 1 % no period")
    assert (exc.value.line, exc.value.col) == (2, 16)
    assert parse_program("p(0). % done") == parse_program("p(0).")


def test_decimal_literal_is_refused_at_its_column():
    # The scanner reads 0.5 as one token; the parser names the literal and
    # the fraction to write instead, wherever the literal stands.
    cases = [
        ("false :- X > 0.5, X < 1.", "0.5", "1/2", (1, 14)),
        ("p(0).\np(A) :- p(B),\n  A = 2*B + 12.50.", "12.50", "25/2", (3, 13)),
        ("p(3.0).", "3.0", "3", (1, 3)),
    ]
    for text, literal, fraction, position in cases:
        message = f"decimal literal {literal} is not supported; write {fraction}"
        with pytest.raises(ParseError, match=re.escape(message)) as exc:
            parse_program(text)
        assert (exc.value.line, exc.value.col) == position
    # A literal and the clause's full stop still end the clause, before a
    # newline or the end of the text.
    two = parse_program("p(X) :- X >= 0.\nfalse :- p(X), X < 0.")
    assert two == parse_program("p(X) :- X >= 0. false :- p(X), X < 0 .")
    assert len(two.clauses) == 2
    assert parse_program("p(X) :- X >= 0.") == parse_program("p(X) :- X >= 0 .")
    kinds = [kind for kind, *_ in _positioned("X >= 0.\n0.5")]
    assert kinds == ["var", "op", "int", "op", "dec", "eof"]
    # The scanner does not refuse a decimal; the parser does, when it
    # reaches it, so an earlier syntax error is the one reported.
    earlier = [
        ("false :- X > , X < 0.5.", "expected an expression, found ','", (1, 14)),
        ("p(0).\np(A) :- q(A.\nfalse :- p(A), A > 2.5.", "expected ')', found '.'", (2, 12)),
    ]
    for text, message, position in earlier:
        with pytest.raises(ParseError, match=re.escape(message)) as exc:
            parse_program(text)
        assert (exc.value.line, exc.value.col) == position
