"""Polyhedra domain operations, plus the randomized oracle suites."""

import random
from fractions import Fraction

import gen
import pytest
from oracles import (
    atom_widen_upto,
    canonical_by_lp,
    dual_by_subsets,
    hull_by_projection,
    hull_from_points,
    random_point_set,
    random_system,
    reference_hull,
    reference_nullspace,
    reference_join,
    reference_of,
    reference_widen_upto,
    rref,
)

from hornchain import lincon
from hornchain.chc import AtomicConstraint, LinExpr, Rel, canonical_arg_names
from hornchain.parser import parse_constraint, parse_program
from hornchain.pipeline import run_pipeline
from hornchain.polydom import Polyhedron, _canonical, _cone, _dual, _nullspace, format_polyhedron


def ge(const, **coeffs):
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


AB = ("A", "B")


# -- canonicalization -----------------------------------------------------------


def test_implicit_equality_made_explicit():
    p = Polyhedron.of(("A",), [ge(0, A=1), ge(0, A=-1)])
    assert p.conjuncts() == (eq(0, A=1),)


def test_strict_constraints_relax_on_entry():
    p = Polyhedron.of(("A",), [gt(0, A=1)])
    assert p.conjuncts() == (ge(0, A=1),)


def test_unsatisfiable_input_is_empty():
    p = Polyhedron.of(("A",), [ge(-1, A=1), ge(0, A=-1)])
    assert p.is_empty
    assert p.conjuncts() == ()


def test_redundant_conjunct_dropped():
    p = Polyhedron.of(("A",), [ge(0, A=1), ge(1, A=1)])
    assert p.conjuncts() == (ge(0, A=1),)


def test_canonical_form_is_representation_independent():
    # A+B >= 102 modulo A = B collapses to A >= 51.
    p = Polyhedron.of(AB, [eq(0, A=1, B=-1), ge(-102, A=1, B=1)])
    q = Polyhedron.of(AB, [eq(0, A=1, B=-1), ge(-51, A=1)])
    assert p == q
    # B = 3503 arrives as a merged opposed pair and must still reduce C.
    abc = ("A", "B", "C")
    p = Polyhedron.of(abc, parse_constraint(
        "A=1469, B=<2*A+565, B>=A+2034, C=B-2*A-339, B=<6893"))
    q = Polyhedron.of(abc, parse_constraint("A=1469, B=3503, C=226"))
    assert p == q
    assert format_polyhedron(p) == "[1*A=1469,1*B=3503,1*C=226]"


# -- meet / hull / inclusion -----------------------------------------------------


def test_meet_detects_emptiness():
    p = Polyhedron.of(("A",), [ge(-100, A=1)])
    q = Polyhedron.of(("A",), [ge(99, A=-1)])
    assert p.meet(q).is_empty


def test_hull_of_two_points_is_segment():
    p = Polyhedron.of(AB, [eq(0, A=1), eq(-50, B=1)])
    q = Polyhedron.of(AB, [eq(-1, A=1), eq(-50, B=1)])
    h = p.hull(q)
    assert h == Polyhedron.of(AB, [ge(0, A=1), ge(1, A=-1), eq(-50, B=1)])


def test_hull_with_empty_is_identity():
    p = Polyhedron.of(AB, [ge(0, A=1)])
    assert p.hull(Polyhedron.empty(AB)) == p
    assert Polyhedron.empty(AB).hull(p) == p


def test_hull_of_unbounded_operands():
    p = Polyhedron.of(("A",), [ge(0, A=1)])  # A >= 0
    q = Polyhedron.of(("A",), [ge(-2, A=1)])  # A >= 2
    assert p.hull(q) == p
    # Lines in both operands and in the result: two parallel lines span a strip.
    p = Polyhedron.of(AB, [eq(0, A=1, B=-1)])  # A = B
    q = Polyhedron.of(AB, [eq(-2, A=1, B=-1)])  # A = B + 2
    assert format_polyhedron(p.hull(q)) == "[1*A+ -1*B>=0,-1*A+1*B>= -2]"
    # A point and a line span a strip inside the plane through both.
    abc = ("A", "B", "C")
    p = Polyhedron.of(abc, [eq(-1, A=1), eq(0, B=1), eq(-3, C=1)])  # (1, 0, 3)
    q = Polyhedron.of(abc, [eq(0, A=1, B=-1), eq(0, C=1)])  # A = B, C = 0
    assert (
        format_polyhedron(p.hull(q))
        == "[1*A+ -1*B>=0,-1*A+1*B>= -1,3*A+ -3*B+ -1*C=0]"
    )


def test_hull_matches_projection_oracle():
    # Unlike the point-set hull suite, random systems give operands with
    # rays and lines.
    rng = random.Random(20260815)
    compared = 0
    for i in range(220):
        d = 1 + i % 3
        names = canonical_arg_names(d)
        p = Polyhedron.of(names, random_system(rng, d))
        q = Polyhedron.of(names, random_system(rng, d))
        if p.is_empty or q.is_empty:
            continue
        compared += 1
        h = p.hull(q)
        assert h == hull_by_projection(p, q), (i, p, q)
        # The canonical form is unique: re-canonicalizing changes nothing.
        for r in (p, q, h):
            assert Polyhedron.of(names, r.conjuncts()) == r, (i, r)
    assert compared == 74


def test_canonical_form_matches_lp_sweep():
    # The generator round trip and the decision procedures reach the same
    # canonical form, emptiness included.
    rng = random.Random(20261019)
    empty = 0
    for i in range(150):
        d = 1 + i % 3
        names = canonical_arg_names(d)
        raw = random_system(rng, d)
        p = Polyhedron.of(names, raw)
        assert p == canonical_by_lp(names, raw), (i, raw)
        empty += p.is_empty
    assert empty == 62


def test_nary_hull_equals_chained_hull():
    # Alternate blocks of random systems (rays, lines, emptiness) and
    # point-set hulls (polytopes); in two draws of three, one operand is
    # replaced by the empty or the universe polyhedron.
    rng = random.Random(20261020)
    joined = 0
    for i in range(120):
        d = 1 + i % 3
        names = canonical_arg_names(d)
        if i // 3 % 2:
            ops = [Polyhedron.of(names, random_system(rng, d)) for _ in range(3)]
        else:
            ops = [
                Polyhedron.of(names, hull_from_points(random_point_set(rng, d)))
                for _ in range(3)
            ]
        k = rng.randrange(9)
        if k < 3:
            ops[k] = Polyhedron.empty(names)
        elif k < 6:
            ops[k - 3] = Polyhedron.universe(names)
        p, q, r = ops
        assert p.hull(q, r) == p.hull(q).hull(r), (i, ops)
        nonempty = [o for o in ops if not o.is_empty]
        joined += len(nonempty) > 1 and not any(o.is_universe for o in nonempty)
        wrong = Polyhedron.universe(canonical_arg_names(d + 1))
        for j in range(3):
            bad = ops[:j] + [wrong] + ops[j + 1:]
            with pytest.raises(ValueError):
                bad[0].hull(*bad[1:])
    assert joined == 61


def test_dual_matches_subset_enumeration():
    # The double description against the subset enumeration it replaced:
    # the same extreme rays modulo the dual's lines, and lines spanning the
    # same space.  A ray is any representative of its class, so each side's
    # rays are reduced modulo the lines' span (its pivots substituted out,
    # the unique representative zero there) and compared.  Draws come
    # in blocks of four (n = 2-5); the blocks cycle through six kinds:
    # plain, every ray inside span(lines), no rays, repeated and parallel
    # rays, opposed rays (a lineality in the primal cone), plain.
    rng = random.Random(20261018)

    def vec(n):
        while True:
            v = tuple(rng.randint(-3, 3) for _ in range(n))
            if any(v):
                return v

    def reduced(solved, vs):
        return sorted(r[:-1] for r, _ in lincon._substitute(solved, [((*v, 0), False) for v in vs]))

    kinds = [0] * 6
    for i in range(300):
        n = 2 + i % 4
        kind = i // 4 % 6
        lines = [vec(n) for _ in range(rng.randint(0, 2))]
        rays = [vec(n) for _ in range(rng.randint(1, 6))]
        if kind == 1:
            lines = lines or [vec(n)]
            weights = [[rng.randint(-2, 2) for _ in lines] for _ in rays]
            rays = [
                tuple(sum(w * l[j] for w, l in zip(ws, lines)) for j in range(n))
                for ws in weights
            ]
            rays = [r for r in rays if any(r)]
        elif kind == 2:
            rays = []
        elif kind == 3:
            rays += [rays[0], tuple(2 * x for x in rays[-1])]
        elif kind == 4:
            rays += [tuple(-x for x in r) for r in rays[:2]]
        got_lines, got_rays = _dual(rays, lines, n)
        want_lines, want_rays = dual_by_subsets(rays, lines, n)
        assert rref(got_lines) == rref(want_lines), (i, rays, lines)
        solved = lincon._gauss_jordan([(*v, 0) for v in want_lines])
        assert reduced(solved, got_rays) == reduced(solved, want_rays), (i, rays, lines)
        kinds[kind] += bool(got_rays)
    # Draws whose dual has rays, per kind; rays inside span(lines) leave none.
    assert kinds == [32, 0, 0, 35, 11, 25]


def test_nullspace_matches_its_own_elimination():
    # The null space on lincon's Gauss-Jordan pass against the elimination
    # it replaced: the same basis vectors in the same order.  Draws come in
    # blocks of five (n = 1-5); the blocks cycle through five kinds: plain,
    # a zero row, a repeated and a scaled row, rank-deficient (every row a
    # combination of two), no rows.
    rng = random.Random(20261120)

    def vec(n):
        return tuple(rng.randint(-4, 4) for _ in range(n))

    short = [0] * 5
    for i in range(500):
        n = 1 + i % 5
        kind = i // 5 % 5
        rows = [vec(n) for _ in range(rng.randint(1, 4))]
        if kind == 1:
            rows.insert(rng.randrange(len(rows) + 1), (0,) * n)
        elif kind == 2:
            rows += [rows[0], tuple(-3 * x for x in rows[-1])]
        elif kind == 3:
            u, v = vec(n), vec(n)
            rows = []
            for _ in range(rng.randint(2, 5)):
                a, b = rng.randint(-2, 2), rng.randint(-2, 2)
                rows.append(tuple(a * x + b * y for x, y in zip(u, v)))
        elif kind == 4:
            rows = []
        got = _nullspace(rows, n)
        assert got == reference_nullspace(rows, n), (i, rows)
        rank = len(rref(rows)[1])
        assert len(got) == n - rank, (i, rows)
        assert all(sum(a * b for a, b in zip(r, y)) == 0 for r in rows for y in got), (i, rows)
        short[kind] += rank < len(rows)
    # Draws with fewer independent rows than rows, per kind.
    assert short == [28, 100, 100, 80, 0]


def test_inclusion_and_equality():
    p = Polyhedron.of(AB, [ge(0, A=1), ge(50, A=-1)])
    q = Polyhedron.of(AB, [ge(0, A=1), ge(10, A=-1)])
    assert p.includes(q)
    assert not q.includes(p)
    assert p.includes(p)
    assert Polyhedron.universe(AB).includes(p)
    assert p.includes(Polyhedron.empty(AB))


def test_contains_point():
    p = Polyhedron.of(AB, [ge(0, A=1), eq(-50, B=1)])
    assert p.contains_point((Fraction(3), Fraction(50)))
    assert not p.contains_point((Fraction(-1), Fraction(50)))
    assert not p.contains_point((Fraction(3), Fraction(49)))


# -- widening ----------------------------------------------------------------------


def test_widen_drops_unstable_bound():
    x = Polyhedron.of(("A",), [ge(0, A=1), ge(1, A=-1)])  # 0 <= A <= 1
    y = Polyhedron.of(("A",), [ge(0, A=1), ge(2, A=-1)])  # 0 <= A <= 2
    assert x.widen_upto(y) == Polyhedron.of(("A",), [ge(0, A=1)])


def test_widen_upto_keeps_threshold_bound():
    x = Polyhedron.of(("A",), [ge(0, A=1), ge(1, A=-1)])
    y = Polyhedron.of(("A",), [ge(0, A=1), ge(2, A=-1)])
    w = x.widen_upto(y, [ge(10, A=-1)])  # candidate bound A =< 10
    assert w == Polyhedron.of(("A",), [ge(0, A=1), ge(10, A=-1)])


def test_widen_upto_discards_violated_threshold():
    x = Polyhedron.of(("A",), [ge(0, A=1), ge(1, A=-1)])
    y = Polyhedron.of(("A",), [ge(0, A=1), ge(20, A=-1)])
    w = x.widen_upto(y, [ge(10, A=-1)])  # bound A =< 10 no longer holds of y
    assert w == Polyhedron.of(("A",), [ge(0, A=1)])


def test_widen_includes_both_operands():
    x = Polyhedron.of(AB, [eq(0, A=1), eq(-50, B=1)])
    y = x.hull(Polyhedron.of(AB, [eq(-1, A=1), eq(-51, B=1)]))
    w = x.widen_upto(y)
    assert w.includes(x) and w.includes(y)


# -- formatting --------------------------------------------------------------------


def test_format_polyhedron():
    p = Polyhedron.of(AB, [ge(0, A=1), eq(-50, B=1)])
    assert format_polyhedron(p) == "[1*A>=0,1*B=50]"
    assert format_polyhedron(Polyhedron.empty(AB)) == "[-1>=0]"
    assert format_polyhedron(Polyhedron.universe(AB)) == "[]"


# -- randomized suites against independent oracles -----------------------------------


def test_hull_suite(polyhedra_suites):
    n, failures = polyhedra_suites["hull"]
    assert n == 180 and failures == []


def test_meet_suite(polyhedra_suites):
    n, failures = polyhedra_suites["meet"]
    assert n == 120 and failures == []


def test_includes_suite(polyhedra_suites):
    n, failures = polyhedra_suites["includes"]
    assert n == 120 and failures == []


def test_widen_suite(polyhedra_suites):
    n, failures = polyhedra_suites["widen"]
    assert n == 60 and failures == []


def test_widening_chains_stabilize(polyhedra_suites):
    n, failures = polyhedra_suites["chain"]
    assert n == 30 and failures == []


# -- integer rows and generators against the atom path ---------------------------


def _random_polyhedra(rng, d):
    """Polyhedra over ``d`` dimensions made by every construction path."""
    names = canonical_arg_names(d)
    atoms = 4 if d > 4 else 6
    p = Polyhedron.of(names, random_system(rng, d, atoms))
    q = Polyhedron.of(names, random_system(rng, d, atoms))
    r = Polyhedron.of(names, hull_from_points(random_point_set(rng, d))) if d <= 3 else q
    h = p.hull(q, r)
    return [p, q, r, h, p.meet(q), p.widen_upto(h, random_system(rng, d, atoms))]


def test_row_paths_match_atom_path_reference():
    # of, hull and widen_upto on rows against their constraint-form
    # versions, from 1 to 4 dimensions, and over 28 (V26 sorts before W).
    rng = random.Random(20261102)
    for i in range(200):
        d = 1 + i % 4 if i < 180 else 28
        names = canonical_arg_names(d)
        raw = [random_system(rng, d, 4 if d == 28 else 6) for _ in range(3)]
        p, q, r = (Polyhedron.of(names, s) for s in raw)
        assert [p, q, r] == [reference_of(names, s) for s in raw], (i, raw)
        assert p.hull(q, r) == reference_hull(p, q, r), (i, raw)
        h = p.hull(q)
        ts = random_system(rng, d)
        assert p.widen_upto(h, ts) == atom_widen_upto(p, h, ts), (i, raw, ts)
    # By hand: p's equality A = 0 is kept as its two inequalities and comes
    # back an equality; a threshold duplicates p's row B >= 0; the universe
    # keeps nothing.
    p = Polyhedron.of(AB, [eq(0, A=1), ge(0, B=1), ge(1, B=-1)])
    ray = Polyhedron.of(AB, [eq(0, A=1), ge(0, B=1)])
    box = Polyhedron.of(AB, [eq(0, A=1), ge(0, B=1), ge(5, B=-1)])
    top = Polyhedron.universe(AB)
    cases = [
        (ray, (), ray),
        (box, [ge(0, B=1)], ray),
        (box, [ge(0, B=1), ge(5, B=-1)], box),
        (top, (), top),
        (top, [ge(0, B=1), eq(0, A=1)], top),
    ]
    for other, ts, want in cases:
        assert p.widen_upto(other, ts) == want == atom_widen_upto(p, other, ts), (other, ts)
    # Widening by the empty polyhedron, which includes nothing, keeps p.
    assert p.widen_upto(Polyhedron.empty(AB)) is p


def test_cached_rows_and_generators_match_the_conjuncts():
    # Whatever path made a polyhedron, its rows are those of its conjuncts,
    # its generators generate exactly its cone (their canonical polyhedron
    # is it), and a non-empty one holds no ground conjunct.  A fresh copy
    # computes its generators from its rows: the canonical ones.  A join's
    # generators are the ones it pooled: 225 of these differ from those.
    rng = random.Random(20261103)
    seen = pooled = 0
    for i in range(250):
        d = 1 + i % 4 if i < 240 else 28
        for p in _random_polyhedra(rng, d):
            if p.is_empty:
                continue
            names = sorted(p.dims)
            assert p.rows == tuple(lincon._rows(p.conjuncts(), names)[1]), (i, p)
            assert _canonical(p.dims, [p.generators]) == p, (i, p)
            assert Polyhedron(p.dims, p.rows).generators == _cone(p.rows, d), (i, p)
            assert all(a.vars() for a in p.conjuncts()), (i, p)
            seen += 1
            pooled += p.generators != _cone(p.rows, d)
    assert (seen, pooled) == (1140, 225)
    # FM once called this system satisfiable, and of gave a non-empty
    # polyhedron printed [-1>=0].
    raw = parse_constraint(
        "-3*A+3*B+3>=0, 3*A-C-5>=0, 3*A-2*B-3*C>=0, -A+2*B-8>=0, "
        "-3*A-B-3*C+6>=0, -2*B+C-8>=0"
    )
    assert Polyhedron.of(("A", "B", "C"), raw) == Polyhedron.empty(("A", "B", "C"))


# -- joins and widenings decided by generators, against the parent's --------------


def _row_thresholds(p):
    """Thresholds read off ``p``'s rows: each row as an equality.  A facet
    holds in ``p`` as an inequality but never as an equality, and an
    equality of ``p`` holds as one."""
    names = sorted(p.dims)
    return [lincon._atom(names, r, Rel.EQ) for r, _ in p.rows or ()]


def test_generator_decisions_match_the_parent_on_seeded_polyhedra():
    # Each join against the parent's, and each widening by the join against
    # the parent's, also with the join's rows alone, whose generators stand
    # in for the pooled cones.
    rng = random.Random(20261201)
    with_lines = skipped = eq_refused = 0
    for i in range(300):
        d = 1 + i % 4
        names = canonical_arg_names(d)
        p, q, r = (Polyhedron.of(names, random_system(rng, d, 1 + i % 5)) for _ in range(3))
        cones = [None if x.is_empty else x.generators for x in (q, r)]
        h = p.join(cones)
        assert h == reference_join(p, cones), (p, cones)
        ts = random_system(rng, d) + _row_thresholds(h) + _row_thresholds(p)
        want = reference_widen_upto(p, h, ts)
        assert p.widen_upto(h, ts) == want, (p, h, ts)
        assert p.widen_upto(Polyhedron(h.dims, h.rows), ts) == want, (p, h, ts)
        with_lines += any(c and c[0] for c in cones)
        skipped += not p.is_empty and h is p
        if not p.is_empty and not h.is_empty:
            rows = lincon._rows([t.relax() for t in ts], sorted(names))[1]
            as_ge = list(lincon._entailed(h.rows, [(r, Rel.GE) for r, _ in rows], d))
            as_given = lincon._entailed(h.rows, rows, d)
            eq_refused += sum(ge and not ok for ge, ok in zip(as_ge, as_given))
    # Operands with lines, joins that return p as it is, and equality
    # thresholds that hold as inequalities only all occur.
    assert (with_lines, skipped, eq_refused) == (197, 11, 97)


def test_join_returns_itself_exactly_when_the_hull_is_unchanged():
    # The analysis tells an unchanged value by identity: the join returns
    # p exactly when the join that always converts (reference_join) gives
    # p again.  A join that pools is not empty, says so without its rows,
    # and converts them only when they are read.  Operands and p are drawn
    # from every construction path, the empty polyhedron and the universe.
    rng = random.Random(20261301)
    same = dropped = with_lines = 0
    for i in range(300):
        d = 1 + i % 4
        names = canonical_arg_names(d)
        polys = _random_polyhedra(rng, d) + [Polyhedron.empty(names), Polyhedron.universe(names)]
        p = rng.choice(polys)
        cones = [None if x.is_empty else x.generators for x in rng.sample(polys, rng.randint(0, 3))]
        h = p.join(cones)
        want = reference_join(p, cones)
        assert (h is p) == (want == p), (i, p, cones)
        if h is not p:
            assert not h.is_empty and "rows" not in vars(h), (i, p, cones)
        assert h == want, (i, p, cones)
        same += h is p
        dropped += h is p and not p.is_empty and not p.is_universe and any(cones)
        with_lines += any(c and c[0] for c in cones)
    # Joins that return p, those among them whose operands' generators all
    # lie inside a p that is neither empty nor the universe, and joins with
    # an operand that has lines.
    assert (same, dropped, with_lines) == (178, 22, 124)


def test_every_join_and_widening_of_a_loops_poly_run_matches_the_parent(monkeypatch):
    # Every join and widening that verifying the seed-0 loops-poly programs
    # makes, made again and against the parent's code.  The widenings read
    # the cones their join pooled, and again their operand's rows alone.
    joins, widenings = [], []
    join, widen = Polyhedron.join, Polyhedron.widen_upto

    def recording_join(self, cones):
        cones = list(cones)
        joins.append((self, cones))
        return join(self, cones)

    def recording_widen(self, other, thresholds=()):
        widenings.append((self, other, tuple(thresholds)))
        return widen(self, other, thresholds)

    monkeypatch.setattr(Polyhedron, "join", recording_join)
    monkeypatch.setattr(Polyhedron, "widen_upto", recording_widen)
    for case, _ in gen.instance("loops-poly", 0):
        run_pipeline(parse_program(case.text()))
    monkeypatch.undo()
    for p, cones in joins:
        assert p.join(cones) == reference_join(p, cones), (p, cones)
    for p, other, ts in widenings:
        want = reference_widen_upto(p, other, ts)
        assert p.widen_upto(other, ts) == want, (p, other, ts)
        assert p.widen_upto(Polyhedron(other.dims, other.rows), ts) == want, (p, other, ts)
    eqs = sum(t.rel is Rel.EQ for _, _, ts in widenings for t in ts)
    assert (len(joins), len(widenings), eqs) == (302, 81, 156)
