"""Decision procedures for conjunctions of linear rational constraints.

Everything here is exact, and strict inequalities are tracked precisely
through elimination, so satisfiability over the rationals is decided, not
approximated.  Each call turns its conjuncts into integer rows once: a row
is a tuple of coprime Python ints, one coefficient per variable of the call
in name order, with the constant last.  Every elimination step combines two
rows as ``a*r - b*p`` with ``a > 0`` and divides out the gcd (fraction-free
elimination: Bareiss, Math. Comp. 22, 1968; the constraint rows of the
Parma Polyhedra Library), so a row is always a positive multiple of the
rational row it stands for, with the same signs, zeros and slope.
``LinExpr`` appears only where atoms come in and go out.

The workhorse is Fourier-Motzkin elimination, preceded by Gauss-Jordan
elimination of equalities.  An exact simplex decides a system only when
elimination would grow past ``PROJECT_CAP`` rows.  These procedures are
complete for conjunctions of linear constraints; their cost grows quickly
with dimension, which is acceptable for the small clause constraints
handled here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, cached_property
from typing import Collection, Iterable, Iterator, Sequence

from .chc import FALSUM, Atom, AtomicConstraint, Clause, LinExpr, Rel, _Value, canonical_arg_names

_Vec = tuple[int, ...]  # coefficients in name order, then the constant
_Ineq = tuple[_Vec, bool]  # row >= 0, or row > 0 when the flag is set

# The ``max_rows`` growth cap of every consequence step (:func:`_derive`
# applies it itself) and of unfolding's projections, and the row count at
# which elimination hands a system to the simplex.  Hitting it loses
# constraints, which only coarsens over-approximations; verdict soundness is
# kept, and unfolding keeps the unprojected rows instead.  A prepared form
# keeps its step from no body rows (``_Prepared.top``) under the cap it was
# first taken with, so a test which lowers the cap must step fresh forms.
PROJECT_CAP = 400


# Tuples here are built from lists, never from generators: ``tuple()`` of a
# generator allocates a guessed size and shrinks it, which strands blocks in
# CPython's per-size tuple free lists, up to 2,000 for each row width seen.
def _coprime(v: Sequence[int]) -> _Vec:
    g = math.gcd(*v)
    return tuple([c // g for c in v]) if g > 1 else tuple(v)


def _neg(v: _Vec) -> _Vec:
    return tuple([-c for c in v])


def _oriented(v: _Vec) -> _Vec:
    """The equality row ``v = 0`` with its first variable's coefficient positive."""
    return v if next(c for c in v if c) > 0 else _neg(v)


def _rows(
    conjuncts: Iterable[AtomicConstraint], names: Sequence[str] | None = None
) -> tuple[Sequence[str], list[tuple[_Vec, Rel]]]:
    """The variables of the conjuncts in name order, and each conjunct as a row.

    With ``names`` given, the rows are laid out over those columns instead;
    they must include every variable of the conjuncts.  Denominators are
    cleared and the gcd is divided out, a positive scaling that keeps every
    relation.
    """
    atoms = list(conjuncts)
    if names is None:
        names = sorted({v for a in atoms for v, _ in a.expr.coeffs})
    col = {v: i for i, v in enumerate(names)}
    rows = []
    for a in atoms:
        e = a.expr
        terms = [(col[v], *c.as_integer_ratio()) for v, c in e.coeffs]
        num, den = e.const.as_integer_ratio()
        lcm = math.lcm(den, *(d for _, _, d in terms))
        row = [0] * len(names) + [num * (lcm // den)]
        for j, p, d in terms:
            row[j] = p * (lcm // d)
        rows.append((_coprime(row), a.rel))
    return names, rows


@cache
def _layout(arity: int) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """A predicate's canonical argument names in name order, and the
    argument position of each; computed once per arity.

    Past arity 26 name order is not position order: ``V26`` sorts between
    ``U`` and ``W``.
    """
    names = canonical_arg_names(arity)
    positions = tuple(sorted(range(arity), key=names.__getitem__))
    return tuple([names[i] for i in positions]), positions


class _Prepared(_Value):
    """The fixed part of a consequence step (see :func:`_clause_rows`).

    Its fields are the number of columns ``n``, the head's columns
    ``source`` and each body atom's ``targets`` (the form's column of each
    of the predicate's canonical columns in name order, see
    :func:`_layout`), the Gauss-Jordan state ``solved`` (None when the
    equalities contradict) and the inequalities ``ineqs``, with every pivot
    substituted out.  A form keeps a ``__dict__`` for three attributes
    that follow from them, each computed at most once: :attr:`table`,
    :attr:`moves` and :attr:`top`.
    """

    _fields = ("n", "source", "targets", "solved", "ineqs")

    def __init__(self, *fields) -> None:
        for name, value in zip(self._fields, fields, strict=True):
            object.__setattr__(self, name, value)

    @cached_property
    def top(self) -> tuple[tuple[_Vec, Rel], ...] | None:
        """The step from no body rows (a clause with no body, or top facts
        alone; see :func:`_derive`).  It depends on the form alone, so it is
        taken once per form, for split, the harvest and the analysis."""
        rows = _shadow_step(self, ())
        rows = None if rows is None else _close(rows, len(self.source))
        return None if rows is None else tuple(rows)

    @cached_property
    def table(self) -> dict[_Vec, _Kept] | None:
        """The inequalities keyed by :func:`_table`; None when keying
        refutes them or the equalities contradict, so that every step from
        the form is empty."""
        return None if self.solved is None else _table(self.ineqs)

    @cached_property
    def moves(self) -> list:
        """Per body atom, the map that moves a fact onto the form (see
        :func:`_moves`)."""
        return [_moves(t, self.solved, self.n) for t in self.targets]


def _clause_rows(clause: Clause) -> _Prepared:
    """A clause's constraint made ready for :func:`_derive`; ``Clause.rows``
    holds the result.

    The layout starts from the clause's variables in name order.  The
    constraint's own equalities are eliminated here, once per clause, with
    the head's columns kept, and their pivots substituted out of its
    inequalities; resuming from that state is exact (see :func:`_derive`).

    The form is then cut to the columns a step can read.  A pivot row whose
    column is neither a head nor a body-atom column is dropped: facts
    mention body-atom columns only, and in reduced echelon form no other
    row mentions a pivot column, so nothing reads the row, and the
    projection drops the column with it.  When a row is dropped, every
    column that no row left mentions goes too, except the head's and the
    body atoms'.  The columns kept stay in order, so every pivot choice,
    elimination order and key order of a step is the one the full layout
    gives.
    """
    names = sorted(clause.vars())
    n = len(names)
    col = {v: j for j, v in enumerate(names)}

    def cols(atom: Atom) -> list[int]:
        return [col[atom.args[i]] for i in _layout(atom.arity)[1]]

    eqs, ineqs = _split(_rows(clause.constr.conjuncts, names)[1])
    source = cols(clause.head)
    targets = [cols(a) for a in clause.body]
    solved = _gauss_jordan(eqs, source)
    if solved is None:
        return _Prepared(n, source, targets, None, ineqs)
    ineqs = _substitute(solved, ineqs)
    if any(j not in source and all(j not in t for t in targets) for j, _ in solved):
        atoms = set(source).union(*targets)
        solved = [(j, p) for j, p in solved if j in atoms]
        columns = list(zip(*[p for _, p in solved], *[r for r, _ in ineqs]))
        kept = [j for j in range(n) if j in atoms or columns and any(columns[j])]
        new = {j: k for k, j in enumerate(kept)}

        def cut(r: _Vec) -> _Vec:
            return tuple([r[j] for j in kept] + [r[-1]])

        solved = [(new[j], cut(p)) for j, p in solved]
        ineqs = [(cut(r), s) for r, s in ineqs]
        source = [new[j] for j in source]
        targets = [[new[j] for j in t] for t in targets]
        n = len(kept)
    return _Prepared(n, source, targets, solved, ineqs)


def _moves(target: Sequence[int], solved: Sequence[tuple[int, _Vec]], n: int) -> list:
    """The map that moves rows onto a form's columns.

    ``target`` gives the form's column of each of the row's columns (for a
    fact, its predicate's canonical columns in name order).  Per row
    column, and for the constant, the map lists ``(column, coefficient)``
    terms: the constant and a column that is no pivot of ``solved`` go to
    their target (the constant's is column ``n``) scaled by ``s``, the lcm
    of the pivot coefficients of the target columns, and a pivot column
    ``j`` to ``s`` times its unit vector minus ``s / p[j]`` times its pivot
    row ``p``, which is zero at every pivot.  A row moved through the map
    and made coprime (:func:`_move`) is the row's embedding (each
    coefficient added into its target column) with the pivots substituted
    out: both are the unique coprime positive multiple of the embedding,
    plus pivot rows, that is zero at every pivot column (see
    :func:`_derive`).  With no pivots the map is the embedding itself.
    """
    pivots = dict(solved)
    s = math.lcm(*[pivots[j][j] for j in target if j in pivots])
    out = []
    for j in target:
        p = pivots.get(j)
        if p is None:
            out.append([(j, s)])
        else:
            f = s // p[j]
            out.append([(k, -f * c) for k, c in enumerate(p) if c and k != j])
    out.append([(n, s)])
    return out


def _move(move: list, r: _Vec, width: int) -> _Vec:
    """The row ``r`` moved through a map of :func:`_moves`, made coprime."""
    v = [0] * width
    for c, terms in zip(r, move):
        if c:
            for j, a in terms:
                v[j] += c * a
    return _coprime(v)


def _atom(names: Sequence[str], row: _Vec, rel: Rel) -> AtomicConstraint:
    coeffs = tuple([(v, Fraction(c)) for v, c in zip(names, row) if c])
    return AtomicConstraint(LinExpr(coeffs, Fraction(row[-1])), rel)


def _split(rows: Iterable[tuple[_Vec, Rel]]) -> tuple[list[_Vec], list[_Ineq]]:
    eqs: list[_Vec] = []
    ineqs: list[_Ineq] = []
    for r, rel in rows:
        if rel is Rel.EQ:
            eqs.append(r)
        else:
            ineqs.append((r, rel is Rel.GT))
    return eqs, ineqs


def _reduce(r: _Vec, p: _Vec, j: int) -> _Vec:
    """A positive multiple of ``r`` plus a multiple of ``p``, zero in column ``j``."""
    a, b = p[j], r[j]
    if a < 0:
        a, b = -a, -b
    g = math.gcd(a, b)
    return _combine(a // g, r, b // g, p)


def _combine(a: int, u: Sequence[int], b: int, v: Sequence[int]) -> _Vec:
    """Primitive form of ``a * u - b * v``: the one fraction-free combination."""
    return _coprime([a * x - b * y for x, y in zip(u, v)])


def _gauss_jordan(
    eqs: list[_Vec], keep: Collection[int] = (), solved: Iterable[tuple[int, _Vec]] = ()
) -> list[tuple[int, _Vec]] | None:
    """One Gauss-Jordan pass over the equality rows: ``(pivot, row)`` pairs.

    Each equality, reduced by the pivot rows before it in their order, is
    pivoted on its first column outside ``keep``, or else on its last
    column.  At the end of the pass each row is reduced by the later pivot
    rows it mentions, last rows first, so each pivot occurs in its own row
    only.  The rows pivoted on a kept column mention kept columns only and
    are the reduced row echelon basis of the equalities' shadow on ``keep``
    (columns in reverse order, so each row is pivoted on its last
    variable).  Returns None if a ground contradiction surfaces.

    Back-substituting once gives the rows that eliminating each new pivot
    from the earlier rows at once would give.  Before the back-substitution
    every row is zero at the pivots before it, so a new row reduced by them
    in order is, up to a positive factor, the unique row of its span with
    the earlier rows that is zero at their pivots: the same row, pivoted on
    the same column.  After it, each row is the unique coprime vector of
    the span that is zero at every other pivot.  Every reduction scales the
    reduced row by a positive factor and leaves its own pivot's coefficient
    otherwise alone, so the sign it had when pivoted is kept too.

    The pass resumes from ``solved``, the result of an earlier pass with the
    same ``keep``: ``_gauss_jordan(a + b, keep)`` equals
    ``_gauss_jordan(b, keep, _gauss_jordan(a, keep))`` whenever the inner
    pass succeeds, since the rows are taken one at a time and each result
    is the unique one above.
    """
    solved = list(solved)
    start = len(solved)
    for e in eqs:
        for j, p in solved:
            if e[j]:
                e = _reduce(e, p, j)
        cols = [j for j, c in enumerate(e[:-1]) if c]
        if not cols:
            if e[-1]:
                return None
            continue
        v = next((j for j in cols if j not in keep), cols[-1]) if keep else cols[0]
        solved.append((v, e))
    # Rows before ``start`` already miss each other's pivots, and every
    # later row misses them all.
    n = len(solved)
    for i in range(n - 2 if n > start else -1, -1, -1):
        j, p = solved[i]
        for k in range(max(i + 1, start), n):
            v, q = solved[k]
            if p[v]:
                p = _reduce(p, q, v)
                solved[i] = (j, p)
    return solved


def _substitute(solved: list[tuple[int, _Vec]], ineqs: list[_Ineq]) -> list[_Ineq]:
    """The inequalities with every pivot of ``solved`` eliminated."""
    if not solved:
        return ineqs
    reduced = []
    for r, s in ineqs:
        for j, p in solved:
            if r[j]:
                r = _reduce(r, p, j)
        reduced.append((r, s))
    return reduced


# A row kept as the tightest of its slope (see :func:`_key`): the row,
# strictness, its history, the set of input rows it was combined from as a
# bitmask (bit ``i`` stands for input row ``i``), then its constant and the
# gcd of its coefficients, which rank it against the rows parallel to it.
_Kept = tuple[_Vec, bool, int, int, int]


def _key(table: dict[_Vec, _Kept], r: Sequence[int], s: bool, h: int) -> bool | None:
    """Key the row ``r`` (``> 0`` when ``s`` is set) with history ``h`` into ``table``.

    Returns None when the row is a ground contradiction or leaves no room
    beside the kept row of the opposite slope, False when it is a satisfied
    ground row, which is dropped, and True when it is kept.

    The table holds the tightest of parallel inequalities (same coprime
    slope).  Rows are keyed on their coefficients alone, divided by their
    gcd, so ``2A-1 >= 0`` and ``A+6 > 0`` share a key and only ``2A-1 >= 0``
    survives.  Removing a constraint implied by a parallel tighter one never
    changes the solution set, so this is exact, and afterwards no row is
    entailed by another single row: a half-space contains another only when
    their normals point the same way.  Kept rows are stored coprime, keyed
    on their slope in the order the slopes first occur; ties keep the first
    row.

    The kept row's history is the intersection (``&``) of the colliding
    rows' histories.  Kohler's criterion drops a row by the size of its
    history, and a row combined later from a looser parallel row with a
    smaller history may be one that the criterion must keep; the
    intersection is a subset of every colliding history, so no such row is
    dropped.

    A row that becomes the tightest of its slope is also checked against
    the kept row of the opposite slope, the opposed-pair test of
    Fourier-Motzkin implementations (Imbert, "Fourier's elimination: which
    to choose?", PPCP 1993).  ``g*k.x + c >= 0`` and ``-g'*k.x + c' >= 0``,
    with ``k`` the coprime slope, hold together exactly when ``c*g' +
    c'*g`` is positive, or zero with neither row strict, so the refutation
    is exact; a looser row needs no check, since the tighter one kept
    passed it.  :func:`_table` keys elimination's input rows here,
    :func:`_eliminate` each combination as it makes it, and
    :func:`_entailed` each goal's negation.
    """
    coeffs = r[:-1]
    const = r[-1]
    g = math.gcd(*coeffs)
    if not g:
        return None if const < 0 or (s and const == 0) else False
    d = math.gcd(g, const)
    if d > 1:
        r = [c // d for c in r]
        coeffs, g, const = r[:-1], g // d, const // d
    key = tuple(coeffs) if g == 1 else tuple([c // g for c in coeffs])
    cur = table.get(key)
    if cur is not None:
        h &= cur[2]
        # Compare const/g with the kept row's: smaller is tighter
        # (expr + const >= 0); strict beats non-strict at equal constants.
        mine, theirs = const * cur[4], cur[3] * g
        if not (mine < theirs or (mine == theirs and s and not cur[1])):
            table[key] = (cur[0], cur[1], h, cur[3], cur[4])
            return True
    opp = table.get(tuple([-c for c in key]))
    if opp is not None:
        # g*k.x + const >= 0 and -g'*k.x + const' >= 0 add up, scaled by
        # g' and g, to the ground row const*g' + const'*g >= 0.
        gap = const * opp[4] + opp[3] * g
        if gap < 0 or (gap == 0 and (s or opp[1])):
            return None
    table[key] = (tuple(r), s, h, const, g)
    return True


def _table(ineqs: Iterable[_Ineq]) -> dict[_Vec, _Kept] | None:
    """Input rows keyed by :func:`_key`, row ``i`` with history bit ``i``;
    None on a ground contradiction."""
    table: dict[_Vec, _Kept] = {}
    for i, (r, s) in enumerate(ineqs):
        if _key(table, r, s, 1 << i) is None:
            return None
    return table


def _fm_eliminate(
    ineqs: list[_Ineq], elim: Sequence[int], max_rows: int | None = None
) -> tuple[list[_Ineq] | None, bool]:
    """Eliminate every column in ``elim``: the rows left, None on contradiction.

    The rows are keyed by :func:`_table` and eliminated by :func:`_eliminate`.
    """
    table = _table(ineqs)
    if table is None:
        return None, False
    return _eliminate(table, elim, max_rows)


def _eliminate(
    table: dict[_Vec, _Kept], elim: Sequence[int], max_rows: int | None
) -> tuple[list[_Ineq] | None, bool]:
    """:func:`_fm_eliminate` on its keyed input rows, which ``table`` holds.

    Variables go cheapest-first (fewest lower*upper pairings, the lowest
    column on ties).  Two exact prunings keep the intermediate systems
    small: parallel constraints collapse to their tightest representative
    (see :func:`_key`), and any non-strict row combining more than j+1
    input rows after j eliminations is a positive combination of others
    and is dropped (Kohler's criterion, the popcount of its history).
    Every row set returned holds at most one inequality per slope, and
    none is entailed by another single row.

    Each step is one pass over its rows.  The rows without the variable
    pass through with their slope, constant and gcd, and are never keyed
    again; each combination is keyed as it is made and goes straight into
    the step's table after them, so the rows come out in the order that
    keying the whole step at once would give.  Keying refutes a
    combination that is a ground contradiction or opposed to a kept row
    with no room between them, so a contradiction often ends the
    elimination before its last column; a system that is not refuted
    comes out exactly as if keying never refuted opposed pairs.

    With ``max_rows`` set, an elimination step whose combination output would
    exceed that many rows instead drops every row mentioning the variable.
    The output counts the rows passed through plus every combination made,
    before pruning: one that collides with a kept row counts too, and a
    satisfied ground one does not.  Each combination is keyed before it is
    counted; one keyed past the cap lands in the step's table, which the
    stop throws away.  Stopping over-approximates the projection
    (constraints are only lost), so it is for callers computing upper
    bounds.  Unsatisfiability stays exact: every step before the first one
    that stops is exact, so the first stop decides the rows it has with
    the simplex and returns None if they are contradictory.  Later stops
    drop rows of a satisfiable system, whose relaxations stay satisfiable.
    The second item of the result tells whether a step stopped, that is,
    whether returned rows may be an over-approximation.
    """
    cap = math.inf if max_rows is None else max_rows
    live = list(elim)
    steps = 0
    decided = False
    while True:
        # A column that no row mentions stays unmentioned: every later row
        # combines earlier ones.
        vecs = [kept[0] for kept in table.values()]
        mentioned = []
        v = cost = -1
        for j in live:
            lo = up = 0
            for r in vecs:
                c = r[j]
                if c > 0:
                    lo += 1
                elif c < 0:
                    up += 1
            if lo or up:
                mentioned.append(j)
                pairs = lo * up
                if v < 0 or pairs < cost or (pairs == cost and j < v):
                    v, cost = j, pairs
        if v < 0:
            return [(r, s) for r, s, _, _, _ in table.values()], decided
        mentioned.remove(v)
        live = mentioned
        steps += 1
        lowers: list[_Kept] = []
        uppers: list[_Kept] = []
        nxt: dict[_Vec, _Kept] = {}
        for key, kept in table.items():
            c = kept[0][v]
            if c > 0:
                lowers.append(kept)
            elif c < 0:
                uppers.append(kept)
            else:
                nxt[key] = kept
        count = len(nxt)
        for lr, ls, lh, _, _ in lowers:
            lc = lr[v]
            for ur, us, uh, _, _ in uppers:
                strict = ls or us
                h = lh | uh
                if not strict and h.bit_count() > steps + 1:
                    continue
                uc = -ur[v]
                g = math.gcd(lc, uc)
                a, b = uc // g, lc // g
                kept = _key(nxt, [a * x + b * y for x, y in zip(lr, ur)], strict, h)
                if kept is None:
                    return None, decided
                if kept:
                    count += 1
                    if count > cap:
                        break
            else:
                continue
            break  # out of both loops: the cap stopped the step
        else:
            table = nxt
            continue
        # The step stopped: keep the rows without the variable.
        if not decided and not _lp_feasible([(r, s) for r, s, _, _, _ in table.values()]):
            return None, False
        decided = True
        table = {key: kept for key, kept in table.items() if not kept[0][v]}


def _lp_feasible(ineqs: list[_Ineq]) -> bool:
    """Exact phase-1 simplex deciding feasibility of ``row (>|>=) 0`` rows.

    Free variables are split into nonnegative pairs, each row gets a slack,
    and artificial variables supply the starting basis.  Strict rows demand
    a symbolic infinitesimal margin: right-hand sides are (value, margin)
    pairs ordered lexicographically, which decides strict feasibility
    exactly.  Bland's rule prevents cycling, so termination is guaranteed.
    Each tableau row, the objective included, is held as coprime ints,
    ``[columns..., value, margin]``: a positive multiple of the rational
    row, which every sign test and ratio comparison below ignores.
    """
    width = len(ineqs[0][0]) - 1 if ineqs else 0
    cols = [j for j in range(width) if any(r[j] for r, _ in ineqs)]
    if not cols:
        return _table(ineqs) is not None
    n, m = len(cols), len(ineqs)
    ncols = 2 * n + m
    tab: list[Sequence[int]] = []
    for i, (r, s) in enumerate(ineqs):
        row = [r[j] for j in cols] + [-r[j] for j in cols] + [0] * m + [-r[-1], int(s)]
        row[2 * n + i] = -1  # row - slack = margin
        if row[-2] < 0:  # flip so the artificial start is feasible
            row = [-c for c in row]
        tab.append(row)
    basis = [ncols + i for i in range(m)]  # artificial indices
    z: Sequence[int] = [sum(c) for c in zip(*tab)]
    while True:
        enter = next((j for j in range(ncols) if z[j] > 0), None)
        if enter is None:
            return z[-2] == 0 and z[-1] == 0
        r = None
        for i in range(m):
            c = tab[i][enter]
            if c > 0:
                if r is None:
                    r = i
                    continue
                p = tab[r][enter]
                mine = (tab[i][-2] * p, tab[i][-1] * p, basis[i])
                if mine < (tab[r][-2] * c, tab[r][-1] * c, basis[r]):
                    r = i
        # The objective is bounded below by zero, so a blocking row exists.
        assert r is not None
        prow = tab[r]
        p = prow[enter]
        for i in range(m):
            f = tab[i][enter]
            if i != r and f:
                tab[i] = _combine(p, tab[i], f, prow)
        f = z[enter]
        z = _combine(p, z, f, prow)
        basis[r] = enter


def is_satisfiable(conjuncts: Iterable[AtomicConstraint]) -> bool:
    """Decide satisfiability over the rationals."""
    names, rows = _rows(conjuncts)
    return _project_rows(*_split(rows), len(names), (), PROJECT_CAP)[0] is not None


def _entailed(
    base: Sequence[tuple[_Vec, Rel]], goals: Iterable[tuple[_Vec, Rel]], n: int
) -> Iterator[bool]:
    """Whether the rows ``base`` entail each row of ``goals``, all over ``n`` columns.

    A goal is decided by the satisfiability of ``base`` plus one inequality
    of the goal's negation.  ``base`` is prepared once for all of them: one
    Gauss-Jordan pass over its equalities, whose pivots are substituted out
    of its inequalities, and those keyed once by :func:`_table`.  Each
    negation, with the pivots substituted out, is keyed into a copy of that
    table, with the history bit after the base's inequalities, and the copy
    is eliminated unless keying refutes the negation.  Keying decides every
    goal that one base row parallel to it implies, tighter or equal, and so
    every goal that is a base row: an equality's negations substitute to
    the ground ``0 > 0``, and an inequality's negation is opposed to its
    own row, or a tighter parallel one, with no room between them.  (A row
    tighter than the negation on the negation's own slope would have
    refuted the base against the goal's row when the base was keyed.)  The
    answers come lazily, in goal order.
    """
    eqs, ineqs = _split(base)
    solved = _gauss_jordan(eqs)
    table = None if solved is None else _table(_substitute(solved, ineqs))
    if table is None:  # an unsatisfiable base entails everything
        yield from (True for _ in goals)
        return
    bit = 1 << len(ineqs)
    for r, rel in goals:
        if rel is Rel.EQ:
            negations = [(r, True), (_neg(r), True)]
        else:
            negations = [(_neg(r), rel is Rel.GE)]
        yield all(
            _key(rows := dict(table), neg, strict, bit) is None
            or _eliminate(rows, range(n), PROJECT_CAP)[0] is None
            for neg, strict in _substitute(solved, negations)
        )


def entails(conjuncts: Sequence[AtomicConstraint], atomic: AtomicConstraint) -> bool:
    """True iff every rational solution of the conjunction satisfies ``atomic``."""
    return entails_all(conjuncts, (atomic,))


def entails_all(
    c1: Sequence[AtomicConstraint], c2: Sequence[AtomicConstraint]
) -> bool:
    """True iff every rational solution of ``c1`` satisfies every conjunct of ``c2``."""
    c1 = tuple(c1)
    names, rows = _rows(c1 + tuple(c2))
    return all(_entailed(rows[: len(c1)], rows[len(c1) :], len(names)))


def _sort_key(item: tuple[_Vec, Rel]) -> tuple:
    """``AtomicConstraint.sort_key`` of the atom a row stands for."""
    r, rel = item
    cols = tuple([j for j, c in enumerate(r[:-1]) if c])
    return (cols, tuple([-r[j] for j in cols]), rel.value, r[-1])


def _normal_form(rows: Iterable[tuple[_Vec, Rel]]) -> list[tuple[_Vec, Rel]] | None:
    """Canonical form of coprime rows; None on a ground falsehood.

    Trivially true rows disappear, equalities are oriented,
    ``r >= 0`` together with ``-r >= 0`` merges into ``r = 0``, duplicates
    collapse, and the rows are sorted as the atoms they stand for.
    """
    cleaned: list[tuple[_Vec, Rel]] = []
    for r, rel in rows:
        if not any(r[:-1]):
            if rel.holds(r[-1]):
                continue
            return None
        cleaned.append((_oriented(r) if rel is Rel.EQ else r, rel))
    ge_rows = {r: i for i, (r, rel) in enumerate(cleaned) if rel is Rel.GE}
    out: list[tuple[_Vec, Rel]] = []
    dropped: set[int] = set()
    for i, (r, rel) in enumerate(cleaned):
        if i in dropped:
            continue
        if rel is Rel.GE:
            j = ge_rows.get(_neg(r))
            if j is not None and j not in dropped:
                dropped.add(j)
                out.append((_oriented(r), Rel.EQ))
                continue
        out.append((r, rel))
    return sorted(set(out), key=_sort_key)


def normalize(conjuncts: Iterable[AtomicConstraint]) -> tuple[AtomicConstraint, ...]:
    """Canonicalize a conjunction syntactically.

    Coefficients become coprime integers with a fixed sign convention,
    trivially true conjuncts disappear, opposed inequality pairs merge into
    equalities, duplicates collapse, and the result is sorted.  A ground
    falsehood collapses the whole conjunction to the single constant
    ``FALSUM``.
    """
    names, rows = _rows(conjuncts)
    out = _normal_form(rows)
    if out is None:
        return (FALSUM,)
    return tuple([_atom(names, r, rel) for r, rel in out])


def _project_rows(
    eqs: list[_Vec], ineqs: list[_Ineq], n: int, kept: Sequence[int], max_rows: int | None
) -> tuple[list[tuple[_Vec, Rel]] | None, bool]:
    """:func:`project` on rows over ``n`` columns; None when they are unsatisfiable.

    Returns the projection onto the columns ``kept`` as rows over exactly
    those columns, in that order, in :func:`_normal_form`, and whether
    ``max_rows`` stopped an elimination step (see :func:`_fm_eliminate`),
    so that the rows may over-approximate the projection.  A stop never
    hides unsatisfiability: None comes back exactly when the rows are
    unsatisfiable, stopped or not; projecting onto no columns decides
    satisfiability alone, and a satisfiable system comes back as ``[]``.
    Columns that no row mentions change nothing, so a caller may lay rows
    out over any superset of their variables.

    It is the two halves of a projection in turn: one Gauss-Jordan pass
    and the elimination (:func:`_shadow`), then the canonical tail
    (:func:`_close`).
    """
    solved = _gauss_jordan(eqs, frozenset(kept))
    table = None if solved is None else _table(_substitute(solved, ineqs))
    if table is None:
        return None, False
    rows, capped = _shadow(solved, table, n, kept, max_rows)
    return (None if rows is None else _close(rows, len(kept))), capped


def _shadow(
    solved: list[tuple[int, _Vec]],
    table: dict[_Vec, _Kept],
    n: int,
    kept: Sequence[int],
    max_rows: int | None,
) -> tuple[list[tuple[_Vec, Rel]] | None, bool]:
    """The elimination half of a projection onto the columns ``kept``.

    ``solved`` is a Gauss-Jordan pass with ``kept`` kept and ``table`` the
    inequalities, with its pivots substituted out, keyed by :func:`_table`.
    :func:`_eliminate` takes every other column out of them, and the pivot
    rows on kept columns come back as equalities ahead of the rows left,
    all moved to the columns ``kept`` in that order.  None when the
    elimination refutes the rows; the second item tells whether
    ``max_rows`` stopped a step.  The rows are not in normal form, and when
    no step stopped, they can be unsatisfiable without a refutation here:
    :func:`_close` decides that.
    """
    keep = frozenset(kept)
    remaining, capped = _eliminate(table, [j for j in range(n) if j not in keep], max_rows)
    if remaining is None:
        return None, capped
    rows = [(p, Rel.EQ) for j, p in solved if j in keep]
    rows += [(r, Rel.GT if s else Rel.GE) for r, s in remaining]
    return [(tuple([r[j] for j in kept] + [r[-1]]), rel) for r, rel in rows], capped


def _close(rows: list[tuple[_Vec, Rel]], k: int) -> list[tuple[_Vec, Rel]] | None:
    """The canonical tail of a projection: :func:`_shadow`'s rows over ``k``
    columns in :func:`_normal_form`, or None when they are unsatisfiable.

    When the normal form merges an opposed pair into a new equality, the
    Gauss-Jordan pass and the keying run again over the result, with every
    column kept, until no new equality appears.  The equalities left are
    then the reduced row echelon basis, and no other row mentions their
    pivots, so they hold once the inequalities do; a single inequality left
    is non-ground, and so satisfiable too.  More inequalities take one
    closing elimination of every column.  Every row here is a pivot row or
    one :func:`_key` kept, never ground, so the normal form refutes none.
    """
    while True:
        found = sum(rel is Rel.EQ for _, rel in rows)
        normal = _normal_form(rows)
        eqs, ineqs = _split(normal)
        if len(eqs) == found:
            break
        solved = _gauss_jordan(eqs, range(k))
        table = None if solved is None else _table(_substitute(solved, ineqs))
        if table is None:
            return None
        rows = [(p, Rel.EQ) for _, p in solved]
        rows += [(r, Rel.GT if s else Rel.GE) for r, s, _, _, _ in table.values()]
    if len(ineqs) > 1 and _fm_eliminate(ineqs, range(k), PROJECT_CAP)[0] is None:
        return None
    return normal


def _resume(
    form: _Prepared, facts: Iterable[Sequence[tuple[_Vec, Rel]]]
) -> tuple[list[tuple[int, _Vec]], list[_Ineq], dict[_Vec, _Kept]] | None:
    """The form's Gauss-Jordan state, inequalities and keyed table once the
    facts, one per body atom from the first, are in; None when they
    contradict.

    Each fact's rows, over its predicate's canonical columns in name order,
    are moved onto the form through the atom's map (see :func:`_moves`),
    which substitutes the form's pivots out of them on the way.  Facts that
    bring equalities resume the Gauss-Jordan pass with them alone, and the
    new pivots are substituted out of the form's inequalities, then the
    facts', which are keyed afresh.  Facts that bring none leave the pass
    as it is, and their rows are keyed into a copy of the form's table,
    with the history bits that follow the form's rows: the table that
    keying all the rows in that order gives.
    """
    table = form.table
    if table is None:
        return None
    width = form.n + 1
    eqs: list[_Vec] = []
    ineqs: list[_Ineq] = []
    for move, fact in zip(form.moves, facts) if any(facts) else ():
        for r, rel in fact:
            if rel is Rel.EQ:
                eqs.append(_move(move, r, width))
            else:
                ineqs.append((_move(move, r, width), rel is Rel.GT))
    if eqs:
        solved = _gauss_jordan(eqs, form.source, form.solved)
        if solved is None:
            return None
        ineqs = _substitute(solved, form.ineqs + ineqs)
        table = _table(ineqs)
        return None if table is None else (solved, ineqs, table)
    table = dict(table)
    bit = 1 << len(form.ineqs)
    for r, s in ineqs:
        if _key(table, r, s, bit) is None:
            return None
        bit <<= 1
    return form.solved, form.ineqs + ineqs, table


def _shadow_step(
    form: _Prepared, facts: Iterable[Sequence[tuple[_Vec, Rel]]]
) -> list[tuple[_Vec, Rel]] | None:
    """The elimination half of a consequence step (see :func:`_derive`):
    the head's rows from :func:`_shadow`, capped at ``PROJECT_CAP``, not
    yet in normal form, or None when the elimination refutes them."""
    state = _resume(form, facts)
    if state is None:
        return None
    solved, _, table = state
    return _shadow(solved, table, form.n, form.source, PROJECT_CAP)[0]


def _derive(
    form: _Prepared, facts: Sequence[Sequence[tuple[_Vec, Rel]]]
) -> tuple[tuple[_Vec, Rel], ...] | None:
    """One consequence step of a clause's prepared rows (see :func:`_clause_rows`).

    ``facts`` holds one fact per body atom, as rows over the atom's
    predicate's canonical columns in name order.  They go in by
    :func:`_resume`, and both halves of a projection onto the head's
    columns ``form.source``, :func:`_shadow_step` then :func:`_close`, decide
    emptiness, strict rows and ``PROJECT_CAP`` included: None when the
    rows are unsatisfiable, else the head's rows over its canonical columns
    in name order, in :func:`_normal_form`.  A step whose facts bring no
    row is the form's :attr:`_Prepared.top`, taken once.

    Its first Gauss-Jordan pass resumes from the prepared state and takes
    only the facts' equalities, and only the facts' inequalities and the
    prepared ones, whose first pivots are already gone, have the pivots
    substituted out.  The result is the one that projecting all the rows
    at once gives, for two reasons.  Resuming the elimination is the same
    computation as running it in one pass (see :func:`_gauss_jordan`).
    And substituting the pivots out of a row gives the unique coprime
    positive multiple of the row, plus a combination of pivot rows, that
    is zero in every pivot column: the pivot rows are zero in each
    other's pivot columns.  The prepared pivot rows lie in the span of the
    final ones, and their pivot columns are among the final ones, so
    substituting in two stages reaches that same row, and so does moving
    a fact's row through its map, which is the first stage.
    """
    if not any(facts):
        return form.top
    rows = _shadow_step(form, facts)
    rows = None if rows is None else _close(rows, len(form.source))
    return None if rows is None else tuple(rows)


def _fold(form: _Prepared, fact: Sequence[tuple[_Vec, Rel]]) -> _Prepared | None:
    """The prepared rows of the clause's other body atoms, once the first
    atom's fact, over its predicate's canonical columns, is in.

    ``_derive(_fold(form, f), rest)`` equals ``_derive(form, [f, *rest])``:
    :func:`_resume` takes the fact in as a step does, the form's
    inequalities ahead of the fact's, which is the first stage of the
    two-stage substitution that :func:`_derive` proves exact, and hands
    the keyed table on with them.  None when the equalities contradict or
    keying refutes the rows; substituting more pivots keeps a ground
    contradiction, and an opposed pair with no room, among the rows, so
    every step from the fold derives None then.
    """
    state = _resume(form, [fact])
    if state is None:
        return None
    solved, ineqs, table = state
    folded = _Prepared(form.n, form.source, form.targets[1:], solved, ineqs)
    folded.__dict__["table"] = table
    return folded


def project(
    conjuncts: Iterable[AtomicConstraint],
    keep: Iterable[str],
    max_rows: int | None = None,
) -> tuple[AtomicConstraint, ...]:
    """Eliminate all variables outside ``keep``, exactly by default.

    The projection of a satisfiable conjunction is its shadow on the kept
    variables; strictness is preserved.  The result is normalized, opposed
    pairs are merged into equalities, and no conjunct is entailed by
    another single conjunct.  Returns ``(FALSUM,)`` when the input is
    unsatisfiable.

    Irredundancy needs no entailment check.  One atom entails another only
    when their normals are parallel.  The equalities are reduced rows, so
    no two are parallel, and each has a pivot variable that occurs in no
    other conjunct, so no inequality is parallel to one.  Fourier-Motzkin
    returns at most one inequality per slope (see :func:`_key`), and
    opposed inequalities never entail each other.  When the normal form
    merges an opposed pair into a new equality, the Gauss-Jordan pass runs
    again over all the equalities, so the result always holds the reduced
    row echelon basis of its equalities, and no pivot in any inequality.

    ``max_rows`` caps intermediate growth during inequality elimination at
    the price of over-approximating (see :func:`_fm_eliminate`).  Capped or
    not, the result is ``(FALSUM,)`` if and only if the input is
    unsatisfiable, so callers may use ``project`` as their only decision.
    """
    keep_set = frozenset(keep)
    names, rows = _rows(conjuncts)
    kept = [j for j, v in enumerate(names) if v in keep_set]
    normal, _ = _project_rows(*_split(rows), len(names), kept, max_rows)
    if normal is None:
        return (FALSUM,)
    kept_names = [names[j] for j in kept]
    return tuple([_atom(kept_names, r, rel) for r, rel in normal])
