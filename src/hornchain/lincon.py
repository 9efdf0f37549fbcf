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
from typing import Collection, Iterable, Iterator, NamedTuple, Sequence

from .chc import FALSUM, Atom, AtomicConstraint, Clause, LinExpr, Rel, canonical_arg_names

_Vec = tuple[int, ...]  # coefficients in name order, then the constant
_Ineq = tuple[_Vec, bool]  # row >= 0, or row > 0 when the flag is set

# The ``max_rows`` growth cap that the analyzer, threshold harvesting and
# unfolding pass to :func:`_project_rows`, and the row count at which
# elimination hands a system to the simplex.  Hitting it loses constraints,
# which only coarsens over-approximations; verdict soundness is kept, and
# unfolding keeps the unprojected rows instead.
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


def _layout(arity: int) -> tuple[list[str], list[int]]:
    """A predicate's canonical argument names in name order, and the
    argument position of each.

    Past arity 26 name order is not position order: ``V26`` sorts between
    ``U`` and ``W``.
    """
    names = canonical_arg_names(arity)
    positions = sorted(range(arity), key=names.__getitem__)
    return [names[i] for i in positions], positions


def _embed(
    rows: Iterable[tuple[_Vec, Rel]], target: Sequence[int], n: int
) -> list[tuple[_Vec, Rel]]:
    """Rows moved to columns ``target`` of ``n``, the constant kept last.

    Columns with the same target (a repeated argument) add up, so each row
    is made coprime again.
    """
    out = []
    for r, rel in rows:
        v = [0] * n + [r[-1]]
        for j, c in zip(target, r):
            v[j] += c
        out.append((_coprime(v), rel))
    return out


class _Prepared(NamedTuple):
    """The fixed part of a consequence step (see :func:`_prepare`)."""

    n: int
    source: Sequence[int]
    targets: list[list[int]]
    solved: list[tuple[int, _Vec]] | None
    ineqs: list[_Ineq]


def _prepare(
    n: int,
    rows: Iterable[tuple[_Vec, Rel]],
    source: Sequence[int],
    targets: Iterable[list[int]] = (),
) -> _Prepared:
    """Rows over ``n`` columns made ready for :func:`_derive` onto ``source``.

    Holds the layout (``n``, the head's columns ``source`` and the body
    atoms' ``targets``), the Gauss-Jordan state of the rows' own equalities
    pivoted with ``source`` kept, None when they are contradictory, and
    their inequalities with those pivots substituted out.
    """
    eqs, ineqs = _split(rows)
    solved = _gauss_jordan(eqs, source)
    if solved is not None:
        ineqs = _substitute(solved, ineqs)
    return _Prepared(n, source, list(targets), solved, ineqs)


def _clause_rows(clause: Clause) -> _Prepared:
    """A clause's constraint laid out over its variables in name order and
    prepared by :func:`_prepare`; ``Clause.rows`` holds the result.

    Per body atom and for the head, the target is what :func:`_embed`
    takes: the clause column of each of the predicate's canonical columns
    in name order (see :func:`_layout`).  The constraint's own equalities
    are eliminated here, once per clause, not once per derivation.  That
    is exact: resuming the elimination with the body facts' equalities is
    the same computation as one pass over all of them, and substituting
    the final pivots out of the pre-substituted inequalities gives the
    rows that substituting them once gives (see :func:`_derive`).
    """
    names = sorted(clause.vars())
    col = {v: j for j, v in enumerate(names)}

    def cols(atom: Atom) -> list[int]:
        return [col[atom.args[i]] for i in _layout(atom.arity)[1]]

    constr = _rows(clause.constr.conjuncts, names)[1]
    return _prepare(len(names), constr, cols(clause.head), [cols(a) for a in clause.body])


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
    a, b = a // g, b // g
    return _coprime([a * x - b * y for x, y in zip(r, p)])


def _gauss_jordan(
    eqs: list[_Vec], keep: Collection[int] = (), solved: Iterable[tuple[int, _Vec]] = ()
) -> list[tuple[int, _Vec]] | None:
    """One Gauss-Jordan pass over the equality rows: ``(pivot, row)`` pairs.

    Each equality, reduced by the pivot rows before it, is pivoted on its
    first column outside ``keep``, or else on its last column, and the new
    pivot is eliminated from the earlier pivot rows, so each pivot occurs
    in its own row only.  The rows pivoted on a kept column mention kept
    columns only and are the reduced row echelon basis of the equalities'
    shadow on ``keep`` (columns in reverse order, so each row is pivoted on
    its last variable).  Returns None if a ground contradiction surfaces.

    The pass resumes from ``solved``, the result of an earlier pass with the
    same ``keep``: ``_gauss_jordan(a + b, keep)`` equals
    ``_gauss_jordan(b, keep, _gauss_jordan(a, keep))`` whenever the inner
    pass succeeds, since the rows are taken one at a time.
    """
    solved = list(solved)
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
        solved = [(j, _reduce(p, e, v) if p[v] else p) for j, p in solved]
        solved.append((v, e))
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


def _ground_ok(ineqs: Iterable[_Ineq]) -> bool:
    return all(
        any(r[:-1]) or r[-1] > 0 or (r[-1] == 0 and not s) for r, s in ineqs
    )


# A working row during elimination: inequality, strictness, and the set of
# input rows it was combined from (its history).
_Row = tuple[_Vec, bool, frozenset]


def _prune_rows(rows: list[_Row]) -> list[_Row] | None:
    """Keep only the tightest of parallel inequalities (same coprime slope).

    Rows are keyed on their coefficients alone, divided by their gcd, so
    ``2A-1 >= 0`` and ``A+6 > 0`` share a key and only ``2A-1 >= 0``
    survives.  Removing a constraint implied by a parallel tighter one never
    changes the solution set, so this is exact, and afterwards no row is
    entailed by another single row: a half-space contains another only when
    their normals point the same way.  Kept rows come out coprime.  Returns
    None on a ground contradiction; satisfied ground rows are dropped.

    The kept row's history is the intersection of the colliding rows'
    histories.  Kohler's criterion drops a row by the size of its history,
    and a row combined later from a looser parallel row with a smaller
    history may be one that the criterion must keep; the intersection is a
    subset of every colliding history, so no such row is dropped.
    """
    best: dict[_Vec, tuple[int, int, bool, frozenset, _Vec]] = {}
    for r, s, h in rows:
        coeffs = r[:-1]
        g = math.gcd(*coeffs)
        const = r[-1]
        if not g:
            if const < 0 or (s and const == 0):
                return None
            continue
        d = math.gcd(g, const)
        if d > 1:
            r = tuple([c // d for c in r])
            coeffs, g, const = r[:-1], g // d, const // d
        key = coeffs if g == 1 else tuple([c // g for c in coeffs])
        cur = best.get(key)
        if cur is not None:
            h = h & cur[3]
            # Compare const/g with the kept row's: smaller is tighter
            # (expr + const >= 0); strict beats non-strict at equal
            # constants.
            mine, theirs = const * cur[1], cur[0] * g
            if not (mine < theirs or (mine == theirs and s and not cur[2])):
                best[key] = (cur[0], cur[1], cur[2], h, cur[4])
                continue
        best[key] = (const, g, s, h, r)
    return [(r, s, h) for _, _, s, h, r in best.values()]


def _fm_eliminate(
    ineqs: list[_Ineq], elim: Sequence[int], max_rows: int | None = None
) -> tuple[list[_Ineq] | None, bool]:
    """Eliminate every column in ``elim``: the rows left, None on contradiction.

    Variables go cheapest-first (fewest lower*upper pairings).  Two exact
    prunings keep the intermediate systems small: parallel constraints
    collapse to their tightest representative, and any non-strict row
    combining more than j+1 input rows after j eliminations is a positive
    combination of others and is dropped (Kohler's criterion).  Every row
    set returned has passed through :func:`_prune_rows`, or is a subset of
    one that has, so it holds at most one inequality per slope and none is
    entailed by another single row.

    With ``max_rows`` set, an elimination step whose combination output would
    exceed that many rows instead drops every row mentioning the variable.
    That over-approximates the projection (constraints are only lost), so it
    is for callers computing upper bounds.  Unsatisfiability stays exact:
    every step before the first one that stops is exact, so the first stop
    decides the rows it has with the simplex and returns None if they are
    contradictory.  Later stops drop rows of a satisfiable system, whose
    relaxations stay satisfiable.  The second item of the result tells
    whether a step stopped, that is, whether returned rows may be an
    over-approximation.
    """
    rows = _prune_rows([(r, s, frozenset((i,))) for i, (r, s) in enumerate(ineqs)])
    if rows is None:
        return None, False
    steps = 0
    decided = False
    while True:
        counts: dict[int, list[int]] = {}
        for r, _, _ in rows:
            for j in elim:
                c = r[j]
                if c:
                    pair = counts.setdefault(j, [0, 0])
                    pair[0 if c > 0 else 1] += 1
        if not counts:
            return [(r, s) for r, s, _ in rows], decided
        v = min(counts, key=lambda u: (counts[u][0] * counts[u][1], u))
        steps += 1
        lowers: list[_Row] = []
        uppers: list[_Row] = []
        nxt: list[_Row] = []
        for row in rows:
            c = row[0][v]
            if c > 0:
                lowers.append(row)
            elif c < 0:
                uppers.append(row)
            else:
                nxt.append(row)
        passthrough = len(nxt)
        aborted = False
        for lr, ls, lh in lowers:
            lc = lr[v]
            for ur, us, uh in uppers:
                strict = ls or us
                hist = lh | uh
                if not strict and len(hist) > steps + 1:
                    continue
                uc = -ur[v]
                g = math.gcd(lc, uc)
                a, b = uc // g, lc // g
                combined = [a * x + b * y for x, y in zip(lr, ur)]
                if not any(combined[:-1]):
                    if combined[-1] < 0 or (strict and combined[-1] == 0):
                        return None, decided
                elif max_rows is not None and len(nxt) >= max_rows:
                    aborted = True
                    break
                else:
                    nxt.append((tuple(combined), strict, hist))
            if aborted:
                break
        if aborted:
            if not decided and not _lp_feasible([(r, s) for r, s, _ in rows]):
                return None, False
            decided = True
            rows = nxt[:passthrough]
            continue
        rows = _prune_rows(nxt)
        if rows is None:
            return None, decided


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
        return _ground_ok(ineqs)
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
                tab[i] = _coprime([p * a - f * b for a, b in zip(tab[i], prow)])
        f = z[enter]
        z = _coprime([p * a - f * b for a, b in zip(z, prow)])
        basis[r] = enter


def _satisfiable(eqs: list[_Vec], ineqs: list[_Ineq], n: int) -> bool:
    """Decide rows over ``n`` variables: elimination first, simplex past the cap."""
    solved = _gauss_jordan(eqs)
    return (
        solved is not None
        and _fm_eliminate(_substitute(solved, ineqs), range(n), PROJECT_CAP)[0] is not None
    )


def is_satisfiable(conjuncts: Iterable[AtomicConstraint]) -> bool:
    """Decide satisfiability over the rationals."""
    names, rows = _rows(conjuncts)
    return _satisfiable(*_split(rows), len(names))


def _entailed(
    base: Iterable[tuple[_Vec, Rel]], goals: Iterable[tuple[_Vec, Rel]], n: int
) -> Iterator[bool]:
    """Whether the rows ``base`` entail each row of ``goals``, all over ``n`` columns.

    One Gauss-Jordan pass over ``base``'s equalities serves every goal:
    each goal is decided by the satisfiability of ``base`` plus one
    inequality of the goal's negation, with the pivots substituted out of
    that inequality alone.  The answers come lazily, in goal order.
    """
    eqs, ineqs = _split(base)
    solved = _gauss_jordan(eqs)
    if solved is None:  # an unsatisfiable base entails everything
        yield from (True for _ in goals)
        return
    ineqs = _substitute(solved, ineqs)
    for r, rel in goals:
        if rel is Rel.EQ:
            negations = [(r, True), (_neg(r), True)]
        else:
            negations = [(_neg(r), rel is Rel.GE)]
        yield all(
            _fm_eliminate(ineqs + [neg], range(n), PROJECT_CAP)[0] is None
            for neg in _substitute(solved, negations)
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
            c = r[-1]
            if c > 0 if rel is Rel.GT else (c >= 0 if rel is Rel.GE else c == 0):
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
    eqs: list[_Vec],
    ineqs: list[_Ineq],
    n: int,
    kept_cols: Collection[int],
    max_rows: int | None,
    start: Iterable[tuple[int, _Vec]] = (),
) -> tuple[list[tuple[_Vec, Rel]] | None, bool]:
    """:func:`project` on rows over ``n`` columns; None when they are unsatisfiable.

    Returns the normal form (see :func:`_normal_form`) of the projection
    onto ``kept_cols``, and whether ``max_rows`` stopped an elimination step
    (see :func:`_fm_eliminate`), so that the rows may over-approximate the
    projection.  A stop never hides unsatisfiability: None comes back
    exactly when the rows are unsatisfiable, stopped or not.  Columns that no row mentions change nothing, so a
    caller may lay rows out over any superset of their variables, in the
    same relative order, and get the same rows back in the wider layout.
    The first Gauss-Jordan pass resumes from ``start`` (see
    :func:`_gauss_jordan`), whose equalities are then part of the input.
    """
    elim = [j for j in range(n) if j not in kept_cols]
    capped = False
    while True:
        solved = _gauss_jordan(eqs, kept_cols, start)
        if solved is None:
            return None, capped
        kept_eqs = [p for j, p in solved if j in kept_cols]
        remaining, stopped = _fm_eliminate(_substitute(solved, ineqs), elim, max_rows)
        capped = capped or stopped
        if remaining is None:
            return None, capped
        normal = _normal_form(
            [(r, Rel.EQ) for r in kept_eqs]
            + [(r, Rel.GT if s else Rel.GE) for r, s in remaining]
        )
        if normal is None:
            return None, capped
        eqs, ineqs = _split(normal)
        if len(eqs) == len(kept_eqs):
            break
        start = ()
    # The equalities left are the reduced row echelon basis, and no other
    # row mentions their pivots, so they hold once the inequalities do; a
    # single inequality left is non-ground, and so satisfiable too.
    if len(ineqs) > 1 and _fm_eliminate(ineqs, range(n), PROJECT_CAP)[0] is None:
        return None, capped
    return normal, capped


def _derive(
    form: _Prepared, bodies: Iterable[Iterable[tuple[_Vec, Rel]]], max_rows: int | None
) -> tuple[tuple[_Vec, Rel], ...] | None:
    """One consequence step of rows prepared by :func:`_prepare`.

    ``bodies`` holds one fact per body atom, moved to the prepared columns
    by :func:`_embed`.  One :func:`_project_rows` of the prepared rows and
    the facts onto the head's columns ``form.source`` decides emptiness,
    strict rows and ``max_rows`` included: None when the rows are
    unsatisfiable, else the head's rows over its canonical columns in name
    order, in :func:`_normal_form`.  Head arguments are distinct, so those
    rows only move from columns ``source``.

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
    substituting in two stages reaches that same row.
    """
    if form.solved is None:
        return None
    eqs, ineqs = _split([row for body in bodies for row in body])
    proj, _ = _project_rows(
        eqs, form.ineqs + ineqs, form.n, form.source, max_rows, form.solved
    )
    if proj is None:
        return None
    source = form.source
    return tuple(_normal_form([(tuple([r[j] for j in source] + [r[-1]]), rel) for r, rel in proj]))


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
    returns at most one inequality per slope (see :func:`_prune_rows`), and
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
    kept_cols = frozenset(j for j, v in enumerate(names) if v in keep_set)
    normal, _ = _project_rows(*_split(rows), len(names), kept_cols, max_rows)
    if normal is None:
        return (FALSUM,)
    return tuple([_atom(names, r, rel) for r, rel in normal])
