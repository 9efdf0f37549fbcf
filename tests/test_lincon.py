"""Exact linear-arithmetic procedures: satisfiability, entailment, projection."""

import itertools
import random
from collections import Counter
from fractions import Fraction

import gen
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    POINT_RANGE,
    random_system,
    reference_entailed,
    reference_fm_eliminate,
    reference_gauss_jordan,
    reference_opposed_pair,
    reference_prune_rows,
    rational_is_satisfiable,
    rational_normalize,
    rational_project,
    satisfies_point,
)

from hornchain import lincon
from hornchain.analyzer import format_model
from hornchain.chc import FALSUM, AtomicConstraint, LinExpr, Rel, canonical_arg_names
from hornchain.parser import parse_constraint, parse_program
from hornchain.pipeline import run_pipeline


def ge(const, **coeffs):
    """sum(coeff * var) + const >= 0"""
    return AtomicConstraint(
        LinExpr.build({v: Fraction(c) for v, c in coeffs.items()}, Fraction(const)),
        Rel.GE,
    )


def gt(const, **coeffs):
    return AtomicConstraint(
        LinExpr.build({v: Fraction(c) for v, c in coeffs.items()}, Fraction(const)),
        Rel.GT,
    )


def eq(const, **coeffs):
    return AtomicConstraint(
        LinExpr.build({v: Fraction(c) for v, c in coeffs.items()}, Fraction(const)),
        Rel.EQ,
    )


# -- satisfiability -----------------------------------------------------------


def test_opposed_strict_pair_unsat():
    # X < Y together with Y < X
    assert not lincon.is_satisfiable([gt(0, Y=1, X=-1), gt(0, X=1, Y=-1)])


def test_strictness_is_exact():
    assert not lincon.is_satisfiable([gt(0, A=1), ge(0, A=-1)])  # A>0, A=<0
    assert not lincon.is_satisfiable([ge(0, A=1), gt(0, A=-1)])  # A>=0, A<0
    assert lincon.is_satisfiable([ge(0, A=1), ge(0, A=-1)])  # A = 0


def test_equalities_feed_inequalities():
    # A = B and B = A+1 clash
    assert not lincon.is_satisfiable([eq(0, A=1, B=-1), eq(1, A=1, B=-1)])
    # A = 5 satisfies A >= 4
    assert lincon.is_satisfiable([eq(-5, A=1), ge(-4, A=1)])
    assert not lincon.is_satisfiable([eq(-5, A=1), ge(-6, A=-1)])  # A=5, A=<-6


def test_simplex_and_elimination_agree_when_forced():
    rng = random.Random(99)
    for _ in range(300):
        raw = random_system(rng, 3)
        names, rows = lincon._rows(raw)
        ineqs = []
        for r, rel in rows:
            if rel is Rel.EQ:
                ineqs.append((r, False))
                ineqs.append((lincon._neg(r), False))
            else:
                ineqs.append((r, rel is Rel.GT))
        by_lp = lincon._lp_feasible(ineqs)
        # With every column eliminated, FM drops the satisfied ground rows
        # and returns None on a false one, so a list result is empty.
        by_fm, capped = lincon._fm_eliminate(ineqs, range(len(names)))
        assert by_fm is None or by_fm == [], raw
        assert not capped, raw
        assert by_lp == (by_fm is not None), raw


def test_kohler_keeps_rows_from_a_looser_parallel_row():
    # Infeasible, but FM once kept the tightest of two parallel rows with
    # that row's own, larger history, so Kohler's criterion dropped a
    # combination built from the looser row and FM called it satisfiable.
    raw = parse_constraint(
        "-3*A+3*B+3>=0, 3*A-C-5>=0, 3*A-2*B-3*C>=0, -A+2*B-8>=0, "
        "-3*A-B-3*C+6>=0, -2*B+C-8>=0"
    )
    names, rows = lincon._rows(raw)
    ineqs = [(r, False) for r, _ in rows]
    assert not lincon._lp_feasible(ineqs)
    assert lincon._fm_eliminate(ineqs, range(len(names)))[0] is None
    assert not lincon.is_satisfiable(raw)
    assert lincon.project(raw, ["A"]) == (FALSUM,)


def test_fm_agrees_with_simplex_on_random_systems():
    # FM and the simplex share no elimination code.  Equalities go first,
    # as in every caller; 4 of these draws once exposed the fault above.
    rng = random.Random(11)
    decided = 0
    for _ in range(2000):
        raw = random_system(rng, rng.randint(2, 6), 12)
        names, rows = lincon._rows(raw)
        eqs, ineqs = lincon._split(rows)
        solved = lincon._gauss_jordan(eqs)
        if solved is None:
            continue
        ineqs = lincon._substitute(solved, ineqs)
        by_fm, _ = lincon._fm_eliminate(ineqs, range(len(names)))
        assert (by_fm is not None) == lincon._lp_feasible(ineqs), raw
        decided += 1
    assert decided == 1869


def _random_row(rng, w):
    return lincon._coprime([rng.randint(-3, 3) for _ in range(w)] + [rng.randint(-5, 5)])


def test_gauss_jordan_resumes_and_substitutes_in_stages():
    # Eliminating a + b in one pass equals eliminating a, then resuming with
    # b; and substituting a's pivots out first, then all pivots, equals
    # substituting all pivots once.  Some draws repeat a combination of
    # earlier rows (rank-deficient) or shift its constant (inconsistent).
    rng = random.Random(20261106)
    deficient = inconsistent = 0
    for _ in range(500):
        w = rng.randint(1, 6)
        eqs = [_random_row(rng, w) for _ in range(rng.randint(1, 5))]
        if rng.random() < 0.5:
            f, g = rng.randint(-2, 2), rng.randint(1, 2)
            mix = [f * x + g * y for x, y in zip(rng.choice(eqs), rng.choice(eqs))]
            mix[-1] += rng.choice((0, 0, 1))
            eqs.insert(rng.randint(0, len(eqs)), lincon._coprime(mix))
        ineqs = [(_random_row(rng, w), rng.random() < 0.3) for _ in range(rng.randint(1, 4))]
        keep = [j for j in range(w) if rng.random() < 0.4]
        cut = rng.randint(0, len(eqs))
        a, b = eqs[:cut], eqs[cut:]
        whole = lincon._gauss_jordan(a + b, keep)
        first = lincon._gauss_jordan(a, keep)
        if first is None:
            assert whole is None, (a, b, keep)
            inconsistent += 1
            continue
        assert whole == lincon._gauss_jordan(b, keep, first), (a, b, keep)
        if whole is None:
            inconsistent += 1
            continue
        deficient += len(whole) < len(eqs)
        staged = lincon._substitute(whole, lincon._substitute(first, ineqs))
        assert staged == lincon._substitute(whole, ineqs), (a, b, keep, ineqs)
    assert (deficient, inconsistent) == (102, 230)


def _chain_rows(rng, links, w):
    """``links`` equalities ``x_i - x_j + c = 0`` chaining random columns of
    ``w``, shuffled: the ``D = F, F = J, ...`` chains of straight-line code."""
    cols = rng.sample(range(w), links + 1)
    rows = []
    for a, b in zip(cols, cols[1:]):
        r = [0] * (w + 1)
        r[a], r[b], r[-1] = rng.choice((1, 2)), -rng.choice((1, 3)), rng.randint(-6, 6)
        rows.append(lincon._coprime(r))
    rng.shuffle(rows)
    return rows


def test_gauss_jordan_matches_reference():
    # One back-substitution at the end of the pass gives, row for row, the
    # rows that eliminating each new pivot from every earlier row gives:
    # with and without kept columns, resumed from an earlier pass, with
    # dependent rows, ground contradictions and long chains.
    rng = random.Random(20261026)
    seen = Counter()
    for _ in range(1500):
        w = rng.randint(1, 8)
        if rng.random() < 0.2:
            w = rng.randint(31, 40)
            eqs = _chain_rows(rng, rng.randint(30, w - 1), w)
        else:
            eqs = [_random_row(rng, w) for _ in range(rng.randint(1, 7))]
        if rng.random() < 0.5:
            f, g = rng.randint(-2, 2), rng.randint(1, 2)
            mix = [f * x + g * y for x, y in zip(rng.choice(eqs), rng.choice(eqs))]
            mix[-1] += rng.choice((0, 0, 1))
            eqs.insert(rng.randint(0, len(eqs)), lincon._coprime(mix))
        keep = [j for j in range(w) if rng.random() < 0.4] if rng.random() < 0.7 else ()
        cut = rng.randint(0, len(eqs))
        start = reference_gauss_jordan(eqs[:cut], keep)
        if start is None:
            continue
        want = reference_gauss_jordan(eqs[cut:], keep, start)
        assert lincon._gauss_jordan(eqs[cut:], keep, start) == want, (eqs, keep, cut)
        seen["keep" if keep else "no keep"] += 1
        seen["resumed"] += bool(start)
        seen["chain"] += w > 30
        if want is None:
            seen["contradiction"] += 1
        elif len(want) < len(eqs):
            seen["dependent"] += 1
    kinds = ("keep", "no keep", "resumed", "chain", "contradiction", "dependent")
    assert all(seen[k] > 100 for k in kinds), seen


def test_gauss_jordan_matches_reference_on_cfg_chain(monkeypatch):
    # Every pass of the seed-0 cfg-chain run, as bench/run.py verifies it;
    # the double description makes one null-space pass per conversion.
    gauss_jordan = lincon._gauss_jordan
    calls = [0]

    def checked(eqs, keep=(), solved=()):
        eqs, solved = list(eqs), list(solved)
        got = gauss_jordan(eqs, keep, solved)
        assert got == reference_gauss_jordan(eqs, keep, solved), (eqs, keep, solved)
        calls[0] += 1
        return got

    monkeypatch.setattr(lincon, "_gauss_jordan", checked)
    for case, _ in gen.instance("cfg-chain", 0):
        format_model(run_pipeline(parse_program(case.text())).model)
    assert calls[0] == 1954


def _dense_system(rng, m, n, low):
    """``m`` dense rows over ``n`` columns: coefficients in [-9, 9], column 0
    of alternating sign, constants in [low, 30]."""
    return [
        (lincon._coprime(
            [(-1) ** i * rng.randint(1, 9)]
            + [rng.randint(-9, 9) for _ in range(n - 1)]
            + [rng.randint(low, 30)]
        ), False)
        for i in range(m)
    ]


def test_project_cap_stops_a_dense_system_and_the_simplex_decides(monkeypatch):
    # What PROJECT_CAP bounds: eliminating every column of 20 dense rows
    # over 4 columns grows one step past 400 rows, so the cap stops that
    # step and the simplex decides the rows it has.  The decision is the
    # simplex's on the whole system, feasible and not.
    handed = []
    simplex = lincon._lp_feasible

    def recorded(ineqs):
        handed.append(len(ineqs))
        return simplex(ineqs)

    monkeypatch.setattr(lincon, "_lp_feasible", recorded)
    for rng, low, feasible in ((random.Random(1), 0, True), (random.Random(37), -10, False)):
        ineqs = _dense_system(rng, 20, 4, low)
        handed.clear()
        rows, stopped = lincon._fm_eliminate(ineqs, range(4), lincon.PROJECT_CAP)
        assert len(handed) == 1 and handed[0] > 20
        assert (rows is not None) == simplex(ineqs) == feasible
        # A refutation at the first stop reports no stop: nothing was lost.
        assert stopped == feasible
        assert (lincon._fm_eliminate(ineqs, range(4))[0] is not None) == feasible


def test_fm_first_decision_falls_back_to_simplex(monkeypatch):
    # With the row cap at 1 nearly every system with two or more rows
    # reaches the simplex fallback; the decision must not change.
    monkeypatch.setattr(lincon, "PROJECT_CAP", 1)
    rng = random.Random(5)
    for _ in range(300):
        raw = random_system(rng, rng.randint(1, 3))
        names, rows = lincon._rows(raw)
        ineqs = [(r, rel is Rel.GT) for r, rel in rows if rel is not Rel.EQ]
        for r, rel in rows:
            if rel is Rel.EQ:
                ineqs += [(r, False), (lincon._neg(r), False)]
        assert lincon.is_satisfiable(raw) == lincon._lp_feasible(ineqs), raw


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 10_000))
def test_point_implies_satisfiable(seed):
    rng = random.Random(seed)
    raw = random_system(rng, 3)
    names = ("A", "B", "C")
    point = tuple(Fraction(rng.randint(-POINT_RANGE, POINT_RANGE)) for _ in names)
    if satisfies_point(raw, point, names):
        assert lincon.is_satisfiable(raw)


# -- entailment ----------------------------------------------------------------


def test_entailment_basics():
    assert lincon.entails([ge(-1, A=1)], gt(0, A=1))  # A>=1 |= A>0
    assert not lincon.entails([ge(0, A=1)], gt(0, A=1))  # A>=0 |/= A>0
    assert lincon.entails([gt(0, A=1)], ge(0, A=1))  # A>0 |= A>=0
    assert lincon.entails([eq(-5, A=1)], ge(-5, A=1))
    assert lincon.entails_all([eq(-5, A=1)], [ge(-5, A=1), ge(5, A=-1)])


def test_goal_held_by_a_base_row_needs_no_elimination(monkeypatch):
    calls = []
    eliminate = lincon._eliminate

    def counted(*args):
        calls.append(args)
        return eliminate(*args)

    monkeypatch.setattr(lincon, "_eliminate", counted)
    # Columns A, B; rows are (A, B, constant).
    base = [((1, -1, 0), Rel.EQ), ((1, 0, 0), Rel.GE), ((0, 1, -3), Rel.GT)]
    # A >= 0 and B - 3 > 0 are base rows: keying refutes each negation
    # against its own row, without a call.
    assert list(lincon._entailed(base, [base[1], base[2]], 2)) == [True, True]
    assert calls == []
    # A > 0 is not a base row, and A >= 0 alone does not give it: the
    # negation -A >= 0 meets A >= 0 at A = 0, which keying keeps, so one
    # elimination decides it.  B > 3 and A = B do give it: with A = B
    # substituted, the negation -B >= 0 is opposed to B - 3 > 0, and keying
    # refutes it without elimination.
    assert list(lincon._entailed(base[1:2], [((1, 0, 0), Rel.GT)], 2)) == [False]
    assert list(lincon._entailed(base, [((1, 0, 0), Rel.GT)], 2)) == [True]
    assert len(calls) == 1
    # B - A = 0 is the base's A - B = 0 oriented the other way.  With A = B
    # substituted, both its negations are the ground 0 > 0, which keying
    # refutes without elimination; A = 0, which does not follow, takes one.
    calls.clear()
    goals = [((-1, 1, 0), Rel.EQ), ((1, 0, 0), Rel.EQ)]
    assert list(lincon._entailed(base, goals, 2)) == [True, False]
    assert len(calls) == 1


def test_every_base_row_is_entailed_without_elimination(monkeypatch):
    # Keying decides every goal that is a row of the base: an equality's
    # negations substitute to the ground 0 > 0, and an inequality's negation
    # is opposed to its own row, or a tighter parallel one, with no room
    # between them.  A row tighter than the negation on its own slope would
    # have refuted the base when it was keyed, so this holds for
    # unsatisfiable bases too; satisfiability is the simplex's, with each
    # equality as two inequalities.
    calls = []
    eliminate = lincon._eliminate

    def counted(*args):
        calls.append(args)
        return eliminate(*args)

    monkeypatch.setattr(lincon, "_eliminate", counted)
    hand = [((1, -1, 0), Rel.EQ), ((1, 0, 0), Rel.GE), ((0, 1, -3), Rel.GT)]
    bases = [(2, hand), (2, hand[1:]), (2, hand[:1])]
    rng = random.Random(20261019)
    for _ in range(600):
        width = rng.randint(1, 4)
        bases.append((width, _random_base(rng, width)))
    kinds = dict.fromkeys(("rows", "eq", "strict", "ground", "parallel", "satisfiable"), 0)
    for width, base in bases:
        assert all(lincon._entailed(base, base, width)), base
        ineqs = [(r, rel is Rel.GT) for r, rel in base if rel is not Rel.EQ]
        ineqs += [(v, False) for r, rel in base if rel is Rel.EQ for v in (r, lincon._neg(r))]
        slopes = [lincon._coprime(r[:-1]) for r, _ in ineqs if any(r[:-1])]
        kinds["rows"] += len(base)
        kinds["eq"] += sum(rel is Rel.EQ for _, rel in base)
        kinds["strict"] += sum(rel is Rel.GT for _, rel in base)
        kinds["ground"] += sum(not any(r[:-1]) for r, _ in base)
        kinds["parallel"] += len(set(slopes)) < len(slopes)
        kinds["satisfiable"] += lincon._lp_feasible(ineqs)
    assert calls == []
    assert kinds == {
        "rows": 2291, "eq": 429, "strict": 721, "ground": 118, "parallel": 358, "satisfiable": 384,
    }


def test_entailment_keys_its_base_once(monkeypatch):
    keyed = []
    key = lincon._key

    def recorded(table, r, s, h):
        keyed.append((tuple(r), s, h))
        return key(table, r, s, h)

    monkeypatch.setattr(lincon, "_key", recorded)
    # Columns A, B: A >= 0, B >= 0 and A + B =< 3.
    base = [((1, 0, 0), Rel.GE), ((0, 1, 0), Rel.GE), ((-1, -1, 3), Rel.GE)]
    goals = [
        ((-1, 0, 3), Rel.GE),  # A =< 3 follows
        ((1, 0, -1), Rel.GE),  # A >= 1 does not
        ((1, 1, -3), Rel.EQ),  # nor does A + B = 3
        ((1, 1, 1), Rel.GT),  # A + B + 1 > 0 does
    ]
    assert list(lincon._entailed(base, goals, 2)) == [True, False, False, True]
    # Each base row is keyed once, with its own bit, across all four goals,
    # and each negation once, with the next bit (A + B = 3 needs both).
    assert keyed[:3] == [(r, False, 1 << i) for i, (r, _) in enumerate(base)]
    assert all(keyed.count((r, False, 1 << i)) == 1 for i, (r, _) in enumerate(base))
    negations = [
        ((1, 0, -3), True), ((-1, 0, 1), True), ((1, 1, -3), True), ((-1, -1, 3), True),
        ((-1, -1, -1), False),
    ]
    assert [keyed.count((r, s, 1 << 3)) for r, s in negations] == [1] * 5


def _random_base(rng, width):
    """Rows over ``width`` columns: equalities, inequalities strict or not,
    parallel rows and the odd ground row, so some bases are contradictory."""
    rows = []
    for _ in range(rng.randint(0, 6)):
        r = lincon._coprime([rng.randint(-2, 2) for _ in range(width)] + [rng.randint(-4, 4)])
        rows.append((r, rng.choice((Rel.GE, Rel.GE, Rel.GT, Rel.EQ))))
        if rng.random() < 0.3:  # a parallel row
            k = rng.randint(1, 3)
            r = lincon._coprime([k * c for c in r[:-1]] + [rng.randint(-6, 6)])
            rows.append((r, rng.choice((Rel.GE, Rel.GT))))
    return rows


def _random_goals(rng, base, width):
    """Goals of every kind ``_entailed`` tells apart: base rows, equalities
    in both orientations, strict and non-strict rows, and sums of two base
    rows loosened by a constant, which the base often entails."""
    goals = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.random()
        r = lincon._coprime([rng.randint(-2, 2) for _ in range(width)] + [rng.randint(-3, 3)])
        if base and kind < 0.25:
            goals.append(rng.choice(base))
        elif kind < 0.45:
            goals += [(r, Rel.EQ), (lincon._neg(r), Rel.EQ)]
        elif base and kind < 0.7:
            (p, _), (q, _) = rng.choice(base), rng.choice(base)
            r = lincon._coprime([x + y for x, y in zip(p, q)])
            goals.append((r[:-1] + (r[-1] + rng.randint(0, 2),), rng.choice((Rel.GE, Rel.GT))))
        else:
            goals.append((r, rng.choice((Rel.GE, Rel.GT))))
    return goals


def test_entailment_matches_reference():
    # Keying the base once answers every goal as keying it per goal did.
    rng = random.Random(20261020)
    stats = dict.fromkeys(
        ("contradictory", "parallel", "base_goal", "eq_both", "strict", "held", "not_held"), 0
    )
    for _ in range(600):
        width = rng.randint(1, 4)
        base = _random_base(rng, width)
        goals = _random_goals(rng, base, width)
        got = list(lincon._entailed(base, goals, width))
        assert got == list(reference_entailed(base, goals, width)), (base, goals)
        eqs, ineqs = lincon._split(base)
        stats["contradictory"] += lincon._project_rows(eqs, ineqs, width, (), None)[0] is None
        slopes = [lincon._coprime(r[:-1]) for r, _ in ineqs if any(r[:-1])]
        stats["parallel"] += len(set(slopes)) < len(slopes)
        stats["base_goal"] += any(g in base for g in goals)
        stats["eq_both"] += any(
            (lincon._neg(r), Rel.EQ) in goals for r, rel in goals if rel is Rel.EQ
        )
        stats["strict"] += any(rel is Rel.GT for _, rel in goals)
        stats["held"] += sum(ok for g, ok in zip(goals, got) if g not in base)
        stats["not_held"] += got.count(False)
    assert stats == {
        "contradictory": 200, "parallel": 309, "base_goal": 316, "eq_both": 320, "strict": 406,
        "held": 960, "not_held": 1111,
    }


# -- normalization ---------------------------------------------------------------


def test_normalize_scales_to_coprime():
    # 2A + 2B =< 4  ->  -A - B + 2 >= 0
    (out,) = lincon.normalize([ge(4, A=-2, B=-2)])
    assert out == ge(2, A=-1, B=-1)


def test_normalize_detects_ground_contradiction():
    assert lincon.normalize([ge(-1)]) == (FALSUM,)
    assert lincon.normalize([gt(0)]) == (FALSUM,)
    assert lincon.normalize([ge(0)]) == ()  # trivially true conjunct dropped


def test_normalize_merges_opposed_pair_into_equality():
    out = lincon.normalize([ge(-5, A=1), ge(5, A=-1)])
    assert out == (eq(-5, A=1),)


# -- projection -------------------------------------------------------------------


def _keyed(rows):
    table = {}
    for r, s, h in rows:
        assert lincon._key(table, r, s, h) is True
    return table


def test_prune_rows_keys_on_slope_alone():
    # 2A-1 >= 0 and A+6 > 0 are parallel; only the tighter A >= 1/2 stays,
    # with the intersection of the two histories.
    rows = [
        ((2, -1), False, 0b01),
        ((1, 6), True, 0b10),
    ]
    (kept,) = _keyed(rows).values()
    assert kept[:3] == ((2, -1), False, 0)


def test_prune_rows_intersects_every_colliding_history():
    # Three parallel rows, the tightest last and scaled by 2: it is kept,
    # coprime, with the bits all three histories share.
    rows = [
        ((1, 2, 5), False, 0b011),
        ((1, 2, 3), True, 0b110),
        ((2, 4, 2), False, 0b111),
    ]
    assert _keyed(rows) == {(1, 2): ((1, 2, 1), False, 0b010, 1, 1)}


def test_key_settles_ground_rows_without_keying_them():
    table = {}
    assert lincon._key(table, (0, 0, -1), False, 1) is None  # -1 >= 0
    assert lincon._key(table, (0, 0, 0), True, 1) is None  # 0 > 0
    assert lincon._key(table, (0, 0, 0), False, 1) is False  # 0 >= 0
    assert lincon._key(table, [0, 0, 2], True, 1) is False  # 2 > 0
    assert table == {}


def test_key_refutes_an_opposed_pair_that_leaves_no_room():
    # Column A; rows are (A, constant).  Each pair is keyed in both orders.
    def key_pair(first, second):
        table = {}
        return [lincon._key(table, r, s, 1 << i) for i, (r, s) in enumerate((first, second))]

    a_ge_0, minus_a_ge_0 = ((1, 0), False), ((-1, 0), False)
    cases = [
        # A >= 0 and -A >= 0 meet at A = 0: both are kept.
        (a_ge_0, minus_a_ge_0, [True, True]),
        # A > 0 and -A >= 0 leave no room.
        (((1, 0), True), minus_a_ge_0, [True, None]),
        # 2A - 1 >= 0 and -A >= 0: A >= 1/2 and A =< 0.
        (((2, -1), False), minus_a_ge_0, [True, None]),
        # 3A - 1 >= 0 and -2A + 1 >= 0: 1/3 =< A =< 1/2, so the constants
        # compare only once scaled by the other row's gcd.
        (((3, -1), False), ((-2, 1), False), [True, True]),
    ]
    for first, second, want in cases:
        assert reference_opposed_pair([first, second]) == (None in want)
        assert key_pair(first, second) == want, (first, second)
        assert key_pair(second, first) == want, (second, first)
    # The kept pair A >= 0, -A >= 0 comes out of a projection as A = 0.
    rows, _ = lincon._project_rows([], [a_ge_0, minus_a_ge_0], 1, [0], None)
    assert rows == [((1, 0), Rel.EQ)]


def test_projection_closes_with_elimination_only_past_one_inequality(monkeypatch):
    # The closing elimination over the inequalities left (the one
    # _fm_eliminate call of _close; the projection's own elimination keys
    # its rows with _table and runs _eliminate) runs only when two or more
    # are left: one is non-ground, so satisfiable.  Keeping A of A >= 0
    # makes no closing elimination; of 0 =< A =< 5, one.
    calls = []
    fm_eliminate = lincon._fm_eliminate

    def counting(*args):
        calls.append(None)
        return fm_eliminate(*args)

    monkeypatch.setattr(lincon, "_fm_eliminate", counting)
    for ineqs, want in (([((1, 0), False)], 1), ([((1, 0), False), ((-1, 5), False)], 2)):
        calls.clear()
        rows, _ = lincon._project_rows([], ineqs, 1, [0], None)
        assert (len(rows), len(calls)) == (want, want - 1), ineqs


def test_elimination_refutes_exactly_the_infeasible_systems():
    # A system that keying (``_table``) or elimination refutes, capped or
    # not and over any columns, is infeasible under the simplex, and one
    # that eliminating every column does not refute is feasible.  Every
    # system gets rows opposed to some of its rows, at constants around
    # the one where the pair meets in a hyperplane.
    rng = random.Random(20261102)
    stats = dict.fromkeys(("feasible", "opposed_none", "partial_none", "opposed_tight"), 0)
    for _ in range(800):
        width = rng.randint(1, 4)
        ineqs = _random_ineqs(rng, width)
        for r, _ in rng.sample(ineqs, rng.randint(1, min(2, len(ineqs)))):
            k = rng.randint(1, 3)
            const = -k * r[-1] + rng.randint(-1, 4)
            ineqs.append((tuple([-k * c for c in r[:-1]] + [const]), rng.random() < 0.3))
            stats["opposed_tight"] += const == -k * r[-1]
        rng.shuffle(ineqs)
        feasible = lincon._lp_feasible(ineqs)
        stats["feasible"] += feasible
        if lincon._table(ineqs) is None:
            assert not feasible, ineqs
            rows = [(r, s, frozenset((i,))) for i, (r, s) in enumerate(ineqs)]
            stats["opposed_none"] += reference_prune_rows(rows) is not None
        assert (lincon._fm_eliminate(ineqs, range(width))[0] is not None) == feasible, ineqs
        elim = rng.sample(range(width), rng.randint(1, width))
        for max_rows in (None, 3):
            if lincon._fm_eliminate(ineqs, elim, max_rows)[0] is None:
                assert not feasible, (ineqs, elim, max_rows)
                stats["partial_none"] += 1
    assert stats == {
        "feasible": 227, "opposed_none": 342, "partial_none": 1136, "opposed_tight": 193,
    }


def _random_ineqs(rng, width):
    """Rows over ``width`` columns with the collisions pruning must settle:
    parallel rows, often at the same constant, strict and non-strict, some
    scaled off coprime, and the odd ground row."""
    rows = []
    for _ in range(rng.randint(1, 8)):
        r = lincon._coprime([rng.randint(-2, 2) for _ in range(width)] + [rng.randint(-4, 4)])
        rows.append((r, rng.random() < 0.3))
        if rng.random() < 0.5:  # a parallel row
            k = rng.randint(1, 3)
            const = k * r[-1] if rng.random() < 0.6 else rng.randint(-6, 6)
            rows.append((tuple([k * c for c in r[:-1]] + [const]), rng.random() < 0.5))
    if rng.random() < 0.15:
        rows.append(((0,) * width + (rng.randint(-1, 3),), rng.random() < 0.3))
    rng.shuffle(rows)
    return rows


def test_one_pass_elimination_matches_reference(monkeypatch):
    # The one-pass kernel against the one with set histories and a prune
    # pass per step.  Keying also refutes an opposed pair of rows that
    # leaves no room, which the reference finds only by elimination, and,
    # when the pair survives a partial elimination, not at all.  So the
    # kernel gives None exactly when the reference gives None or leaves
    # such a pair among its rows (``reference_opposed_pair``), and always
    # the same stop flag.  Otherwise both give the same rows in the same
    # order and hand the simplex the same rows when a step stops.  Up to a
    # refutation both take the same steps, so a None hands the simplex the
    # reference's first rows, and any later hand-off of the reference's is
    # one the simplex refutes.
    lp_feasible = lincon._lp_feasible
    simplex: list = []

    def recorded(ineqs):
        simplex.append((list(ineqs), lp_feasible(ineqs)))
        return simplex[-1][1]

    monkeypatch.setattr(lincon, "_lp_feasible", recorded)
    rng = random.Random(20261019)
    stats = dict.fromkeys(
        (
            "calls", "none", "earlier", "stopped", "simplex", "simplex_none",
            "simplex_skipped", "collided", "opposed",
        ),
        0,
    )
    for _ in range(1500):
        width = rng.randint(2, 7)
        ineqs = _random_ineqs(rng, width)
        elim = sorted(rng.sample(range(width), rng.randint(1, width)))
        if rng.random() < 0.3:
            rng.shuffle(elim)
        table = lincon._table(ineqs)
        ref = reference_prune_rows([(r, s, frozenset((i,))) for i, (r, s) in enumerate(ineqs)])
        opposed = ref is not None and reference_opposed_pair([(r, s) for r, s, _ in ref])
        assert (table is None) == (ref is None or opposed), ineqs
        if ref is not None:
            stats["collided"] += len(ref) < len(ineqs)
            stats["opposed"] += opposed
        if table is not None:
            bits = [(r, s, sum(1 << i for i in h)) for r, s, h in ref]
            assert [kept[:3] for kept in table.values()] == bits, ineqs
        for max_rows in (None, 3, 5, 8):
            simplex.clear()
            got = lincon._fm_eliminate(ineqs, elim, max_rows)
            handed = simplex[:]
            simplex.clear()
            want = reference_fm_eliminate(ineqs, elim, max_rows)
            case = (ineqs, elim, max_rows)
            earlier = want[0] is not None and reference_opposed_pair(want[0])
            assert (got[0] is None) == (want[0] is None or earlier), case
            assert got[1] == want[1], case
            if got[0] is None:
                skipped = simplex[len(handed):]
                assert handed == simplex[: len(handed)], case
                assert all(not ok for _, ok in skipped), case
                stats["earlier"] += earlier
                stats["simplex_skipped"] += len(skipped)
            else:
                assert got == want and handed == simplex, case
            stats["calls"] += 1
            stats["none"] += got[0] is None
            stats["stopped"] += got[1]
            stats["simplex"] += len(handed)
            stats["simplex_none"] += any(not ok for _, ok in handed)
    assert stats == {
        "calls": 6000, "none": 1115, "earlier": 142, "stopped": 649, "simplex": 810,
        "simplex_none": 161, "simplex_skipped": 121, "collided": 1247, "opposed": 76,
    }


def test_projection_substitutes_equality():
    # project({C = 1+A, A =< 49}, keep {A}) = {A =< 49}
    out = lincon.project([eq(-1, C=1, A=-1), ge(49, A=-1)], ["A"])
    assert out == (ge(49, A=-1),)


def test_projection_eliminates_between_bounds():
    # project({X >= 0, Y >= X, Y =< 5}, keep {Y}) = {Y >= 0, Y =< 5}
    out = lincon.project([ge(0, X=1), ge(0, Y=1, X=-1), ge(5, Y=-1)], ["Y"])
    assert set(out) == {ge(0, Y=1), ge(5, Y=-1)}


def test_projection_of_unsat_is_falsum():
    assert lincon.project([ge(-1, A=1), ge(0, A=-1)], ["A"]) == (FALSUM,)
    assert lincon.project([gt(0, A=1), ge(0, A=-1)], ["B"]) == (FALSUM,)
    # A+B = 1, B+C = 2 and A = C: only row reduction of the kept equalities
    # exposes 0 = 1.
    inconsistent = [eq(-1, A=1, B=1), eq(-2, B=1, C=1), eq(0, A=1, C=-1)]
    assert lincon.project(inconsistent, ["A", "B", "C"]) == (FALSUM,)
    # C = 2B+10, 3C >= 3A+2B+1, 2A+3C >= 1, C =< -10: with one row allowed,
    # elimination stops early, and the rows it drops hold the contradiction.
    capped = [eq(-10, C=1, B=-2), ge(-1, C=3, A=-3, B=-2), ge(-1, A=2, C=3), ge(-10, C=-1)]
    assert lincon.project(capped, ["A"], max_rows=1) == (FALSUM,)


def test_projection_row_reduces_kept_equalities():
    # A+B+C = 3, A+2B+2C = 5 and their sum span two dimensions; the rows come
    # out reduced, each pivoted on its last variable, which no other row has.
    system = [eq(-3, A=1, B=1, C=1), eq(-5, A=1, B=2, C=2), eq(-8, A=2, B=3, C=3)]
    out = lincon.project(system, ["A", "B", "C"])
    assert out == (eq(-1, A=1), eq(-2, B=1, C=1))
    pivots = [a.vars()[-1] for a in out]
    assert all(v not in b.vars() for v, a in zip(pivots, out) for b in out if b is not a)


def _drop_pairwise_redundant(atomics):
    """Drop every conjunct entailed by another single conjunct."""
    out = []
    for i, a in enumerate(atomics):
        if not any(j != i and lincon.entails((b,), a) for j, b in enumerate(atomics)):
            out.append(a)
    return tuple(out)


def test_projection_is_pairwise_irredundant():
    # No conjunct of a projection is entailed by another single conjunct,
    # exactly or with the row cap forcing the dropping fallback.
    rng = random.Random(7)
    for _ in range(150):
        d = rng.randint(1, 3)
        raw = random_system(rng, d)
        names = canonical_arg_names(d)
        for k in range(d + 1):
            for keep in itertools.combinations(names, k):
                for max_rows in (None, 1):
                    out = lincon.project(raw, keep, max_rows)
                    assert _drop_pairwise_redundant(out) == out, (raw, keep, max_rows)


def test_capped_projection_decides_satisfiability():
    # With the row cap forcing the dropping fallback, a projection is still
    # (FALSUM,) exactly when its input is unsatisfiable.
    rng = random.Random(11)
    unsat = 0
    for _ in range(400):
        d = rng.randint(2, 3)
        raw = random_system(rng, d)
        sat = lincon.is_satisfiable(raw)
        unsat += not sat
        names = canonical_arg_names(d)
        for k in range(d + 1):
            for max_rows in (1, 2):
                out = lincon.project(raw, names[:k], max_rows)
                assert (out == (FALSUM,)) == (not sat), (raw, names[:k], max_rows)
    assert unsat > 50


def test_projection_keeps_strictness():
    out = lincon.project([gt(0, X=1), ge(0, Y=1, X=-1)], ["Y"])
    assert out == (gt(0, Y=1),)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 10_000))
def test_projection_preserves_points(seed):
    rng = random.Random(seed)
    raw = random_system(rng, 3)
    names = ("A", "B", "C")
    point = tuple(Fraction(rng.randint(-POINT_RANGE, POINT_RANGE)) for _ in names)
    if not satisfies_point(raw, point, names):
        return
    env = dict(zip(names, point))
    for keep in (("A",), ("A", "B"), ("B", "C")):
        proj = lincon.project(raw, keep)
        assert satisfies_point(proj, tuple(env[v] for v in keep), keep)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.integers(0, 10_000))
def test_capped_projection_over_approximates(seed):
    rng = random.Random(seed)
    raw = random_system(rng, 3)
    names = ("A", "B", "C")
    point = tuple(Fraction(rng.randint(-POINT_RANGE, POINT_RANGE)) for _ in names)
    if not satisfies_point(raw, point, names):
        return
    # max_rows=1 forces the dropping fallback on nearly every elimination;
    # the result must still contain every point of the exact projection.
    proj = lincon.project(raw, ("A",), max_rows=1)
    assert satisfies_point(proj, point[:1], ("A",))


# -- the integer kernel against the rational reference ----------------------------


def _fraction_atom(rng, names):
    """An atom with non-integer coefficients, so rows must clear denominators."""
    chosen = rng.sample(names, rng.randint(1, len(names)))
    coeffs = {
        v: Fraction(rng.choice((-5, -3, -2, -1, 1, 2, 3, 5)), rng.randint(1, 6)) for v in chosen
    }
    const = Fraction(rng.randint(-20, 20), rng.randint(1, 6))
    return AtomicConstraint(LinExpr.build(coeffs, const), rng.choice(list(Rel)))


def _ground_atom(rng):
    return AtomicConstraint(LinExpr((), Fraction(rng.randint(-1, 1))), rng.choice(list(Rel)))


def _opposed_pair(rng, a):
    """``e >= 0`` and a positive multiple of ``-e >= 0``, which merge into ``e = 0``."""
    k = Fraction(rng.randint(1, 4), rng.randint(1, 3))
    return [AtomicConstraint(a.expr, Rel.GE), AtomicConstraint(a.expr.scale(-k), Rel.GE)]


def _chain(rng):
    """A straight-line block: each variable of 20 to 26 defined from earlier ones,
    with a guard or two, as in cfg-chain's unfolded clauses."""
    names = canonical_arg_names(rng.randint(20, 26))
    atoms = []
    for i in range(1, len(names)):
        coeffs = {names[i]: Fraction(1), names[i - 1]: Fraction(-1)}
        if i > 1 and rng.random() < 0.3:
            j = rng.randrange(i - 1)
            coeffs[names[j]] = Fraction(rng.choice((-2, -1, 1, 2)))
        atoms.append(AtomicConstraint(LinExpr.build(coeffs, Fraction(rng.randint(-5, 5))), Rel.EQ))
    for _ in range(rng.randint(1, 3)):
        v, w = rng.sample(names, 2)
        coeffs = {v: Fraction(rng.choice((-1, 1))), w: Fraction(rng.choice((-1, 0, 1)))}
        expr = LinExpr.build(coeffs, Fraction(rng.randint(-30, 30)))
        atoms.append(AtomicConstraint(expr, rng.choice((Rel.GE, Rel.GT))))
    rng.shuffle(atoms)
    keeps = [(names[0], names[-1]), names[-3:], tuple(rng.sample(names, 4)), ()]
    return atoms, keeps


def _systems(rng):
    """``random_system`` draws, a quarter each left as drawn or given extra
    non-integer atoms, ground atoms or an opposed pair, then 40 chains."""
    for _ in range(250):
        d = rng.randint(1, 3)
        names = canonical_arg_names(d)
        raw = random_system(rng, d)
        kind = rng.randrange(4)
        if kind == 1:
            raw += [_fraction_atom(rng, names) for _ in range(rng.randint(1, 3))]
        elif kind == 2:
            raw += [_ground_atom(rng) for _ in range(rng.randint(1, 2))]
        elif kind == 3:
            raw += _opposed_pair(rng, rng.choice(raw))
        rng.shuffle(raw)
        keeps = [c for k in range(d + 1) for c in itertools.combinations(names, k)]
        yield raw, keeps
    for _ in range(40):
        yield _chain(rng)


def test_integer_kernel_matches_rational_reference():
    rng = random.Random(2026)
    merged = 0
    for raw, keeps in _systems(rng):
        assert lincon.is_satisfiable(raw) == rational_is_satisfiable(raw), raw
        out = lincon.normalize(raw)
        assert out == rational_normalize(raw), raw
        merged += any(a.rel is Rel.EQ for a in out) and not any(a.rel is Rel.EQ for a in raw)
        for keep in keeps:
            for max_rows in (None, 1, 2):
                proj = lincon.project(raw, keep, max_rows)
                assert proj == rational_project(raw, keep, max_rows), (raw, keep, max_rows)
                assert lincon.normalize(proj) == rational_normalize(proj)
    assert merged > 10


def test_projection_decides_emptiness_as_satisfiable_does():
    # ``_project_rows`` closes with elimination over the inequalities left
    # alone, or with no check when at most one is left; its emptiness
    # decision must be the rational reference's on the same system.  With
    # every column kept nothing is eliminated before that closing check.
    rng = random.Random(20261019)
    at_most_one_left = empty_all_kept = 0
    for raw, keeps in _systems(rng):
        names, rows = lincon._rows(raw)
        n = len(names)
        sat = rational_is_satisfiable(raw)
        for keep in [*keeps, names]:
            kept = [j for j, v in enumerate(names) if v in keep]
            for max_rows in (None, 1):
                proj, _ = lincon._project_rows(*lincon._split(rows), n, kept, max_rows)
                assert (proj is not None) == sat, (raw, keep, max_rows)
                if proj is not None:
                    at_most_one_left += sum(rel is not Rel.EQ for _, rel in proj) <= 1
                elif len(kept) == n:
                    empty_all_kept += 1
    assert (at_most_one_left, empty_all_kept) == (1173, 670)


def test_projection_rows_come_over_kept_in_its_order(monkeypatch):
    # ``_project_rows`` returns its rows over ``kept`` in the order given,
    # already in normal form.  A shuffled order describes the set that the
    # sorted order gives with its columns permuted; its equality basis may
    # differ where the implicit-equality loop runs.
    passes = []
    gauss_jordan = lincon._gauss_jordan

    def counting(*args):
        passes.append(None)
        return gauss_jordan(*args)

    monkeypatch.setattr(lincon, "_gauss_jordan", counting)
    rng = random.Random(20261020)
    compared = looped = other_basis = 0
    for raw, keeps in _systems(rng):
        names, rows = lincon._rows(raw)
        n = len(names)
        for keep in [*keeps, names]:
            ordered = [j for j, v in enumerate(names) if v in keep]
            shuffled = rng.sample(ordered, len(ordered))
            moved = [ordered.index(j) for j in shuffled]
            for max_rows in (None, 1):
                want, want_capped = lincon._project_rows(*lincon._split(rows), n, ordered, max_rows)
                passes.clear()
                got, capped = lincon._project_rows(*lincon._split(rows), n, shuffled, max_rows)
                looped += len(passes) > 1
                assert (got is None, capped) == (want is None, want_capped), (raw, shuffled)
                if got is None:
                    continue
                assert lincon._normal_form(got) == got, (raw, shuffled)
                want = [(tuple([r[i] for i in moved] + [r[-1]]), rel) for r, rel in want]
                m = len(ordered)
                assert all(lincon._entailed(got, want, m)), (raw, shuffled)
                assert all(lincon._entailed(want, got, m)), (raw, shuffled)
                compared += 1
                other_basis += got != lincon._normal_form(want)
    assert (compared, looped, other_basis) == (1498, 116, 20)
