"""Parser round-trips, normalization on entry, and error reporting."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import same_program
from randprog import random_program

from hornchain.chc import ArityError, ChcError, print_program
from hornchain.parser import NonlinearTermError, ParseError, parse_constraint, parse_program


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
    p = parse_program("X >= 1 :- p(X).")
    assert all(c.head.pred == "false" for c in p.clauses)


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
    with pytest.raises(ParseError, match="too long") as exc:
        parse_program("p(A) :-\n  A = " + "7" * 5000 + ".")
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
