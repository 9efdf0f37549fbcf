"""Decision procedures for conjunctions of linear rational constraints.

Everything here is exact: coefficients are ``fractions.Fraction`` and strict
inequalities are tracked precisely through elimination, so satisfiability
over the rationals is decided, not approximated.  The workhorse is
Fourier-Motzkin elimination, preceded by Gaussian elimination of equalities.
These procedures are complete for conjunctions of linear constraints; their
cost grows quickly with dimension, which is acceptable for the small clause
constraints handled here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .chc import FALSUM, AtomicConstraint, LinExpr, Rel

_Ineq = tuple[LinExpr, bool]  # expr >= 0, or expr > 0 when the flag is set

# The ``max_rows`` growth cap that the analyzer and threshold harvesting
# pass to ``project``.  Hitting it loses constraints, which only coarsens
# their over-approximations; verdict soundness is kept.
PROJECT_CAP = 400


def _split(conjuncts: Iterable[AtomicConstraint]) -> tuple[list[LinExpr], list[_Ineq]]:
    eqs: list[LinExpr] = []
    ineqs: list[_Ineq] = []
    for a in conjuncts:
        if a.rel is Rel.EQ:
            eqs.append(a.expr)
        else:
            ineqs.append((a.expr, a.rel is Rel.GT))
    return eqs, ineqs


def _solve_for(e: LinExpr, v: str) -> LinExpr:
    """Given ``e = 0`` with ``v`` occurring in ``e``, return ``v`` as an expression."""
    c = e.coeff(v)
    rest = e - LinExpr.build({v: c})
    return rest.scale(Fraction(-1) / c)


def _eliminate_equalities(
    eqs: list[LinExpr],
    ineqs: list[_Ineq],
    keep: frozenset[str] = frozenset(),
) -> tuple[list[LinExpr], list[_Ineq]] | None:
    """One sparse Gauss-Jordan pass over the equalities.

    Each equality, reduced by the solved forms before it, is solved for its
    first variable outside ``keep``, or else for its last variable, and the
    new pivot is substituted out of the earlier solved forms.  Returns the
    rows solved for a kept variable, which mention kept variables only and
    are the reduced row echelon basis of the equalities' shadow on ``keep``
    (columns in reverse name order, so each row is pivoted on its last
    variable), and the inequalities with every pivot substituted away.
    Returns None if a ground contradiction surfaces.
    """
    solved: dict[str, LinExpr] = {}
    for e in eqs:
        e = e.subst(solved)
        if e.is_const:
            if e.const != 0:
                return None
            continue
        v = next((u for u in e.vars() if u not in keep), e.vars()[-1])
        form = _solve_for(e, v)
        sub = {v: form}
        solved = {u: f.subst(sub) if f.coeff(v) else f for u, f in solved.items()}
        solved[v] = form
    kept = [LinExpr.var(v) - f for v, f in solved.items() if v in keep]
    if solved:
        ineqs = [(e.subst(solved), s) for e, s in ineqs]
    return kept, ineqs


def _ground_ok(ineqs: list[_Ineq]) -> bool:
    for e, s in ineqs:
        if e.is_const and (e.const < 0 or (s and e.const == 0)):
            return False
    return True


# A working row during elimination: inequality, strictness, and the set of
# input rows it was combined from (its history).
_Row = tuple[LinExpr, bool, frozenset]


def _prune_rows(rows: list[_Row]) -> list[_Row] | None:
    """Keep only the tightest of parallel inequalities (same coprime slope).

    Rows are keyed on their coefficients alone, scaled to coprime integers,
    so ``2A-1 >= 0`` and ``A+6 > 0`` share a key and only ``A-1/2 >= 0``
    survives.  Removing a constraint implied by a parallel tighter one never
    changes the solution set, so this is exact, and afterwards no row is
    entailed by another single row: a half-space contains another only when
    their normals point the same way.  Returns None on a ground
    contradiction; satisfied ground rows are dropped.
    """
    best: dict[tuple[tuple[str, Fraction], ...], tuple[Fraction, bool, frozenset]] = {}
    for e, s, h in rows:
        if e.is_const:
            if e.const < 0 or (s and e.const == 0):
                return None
            continue
        k = Fraction(
            math.lcm(*(c.denominator for _, c in e.coeffs)),
            math.gcd(*(c.numerator for _, c in e.coeffs)),
        )
        key = tuple((v, c * k) for v, c in e.coeffs)
        const = e.const * k
        cur = best.get(key)
        # Smaller constant is tighter (expr + const >= 0); strict beats
        # non-strict at equal constants; smaller histories age better.
        if (
            cur is None
            or const < cur[0]
            or (const == cur[0] and s and not cur[1])
            or (const == cur[0] and s == cur[1] and len(h) < len(cur[2]))
        ):
            best[key] = (const, s, h)
    return [(LinExpr(k, c), s, h) for k, (c, s, h) in best.items()]


def _fm_eliminate(
    ineqs: list[_Ineq], should_elim, max_rows: int | None = None
) -> list[_Ineq] | None:
    """Eliminate every variable admitted by ``should_elim``; None on contradiction.

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
    relaxations stay satisfiable.
    """
    rows = _prune_rows([(e, s, frozenset((i,))) for i, (e, s) in enumerate(ineqs)])
    if rows is None:
        return None
    steps = 0
    decided = False
    while True:
        counts: dict[str, list[int]] = {}
        for e, _, _ in rows:
            for v, c in e.coeffs:
                if should_elim(v):
                    pair = counts.setdefault(v, [0, 0])
                    pair[0 if c > 0 else 1] += 1
        if not counts:
            return [(e, s) for e, s, _ in rows]
        v = min(counts, key=lambda u: (counts[u][0] * counts[u][1], u))
        steps += 1
        lowers: list[_Row] = []
        uppers: list[_Row] = []
        nxt: list[_Row] = []
        for e, s, h in rows:
            c = e.coeff(v)
            if c > 0:
                lowers.append((e, s, h))
            elif c < 0:
                uppers.append((e, s, h))
            else:
                nxt.append((e, s, h))
        passthrough = len(nxt)
        aborted = False
        for le, ls, lh in lowers:
            lc = le.coeff(v)
            for ue, us, uh in uppers:
                strict = ls or us
                hist = lh | uh
                if not strict and len(hist) > steps + 1:
                    continue
                combined = le.scale(-ue.coeff(v)) + ue.scale(lc)
                if combined.is_const:
                    if combined.const < 0 or (strict and combined.const == 0):
                        return None
                elif max_rows is not None and len(nxt) >= max_rows:
                    aborted = True
                    break
                else:
                    nxt.append((combined, strict, hist))
            if aborted:
                break
        if aborted:
            if not decided and not _lp_feasible([(e, s) for e, s, _ in rows]):
                return None
            decided = True
            rows = nxt[:passthrough]
            continue
        rows = _prune_rows(nxt)
        if rows is None:
            return None


_ZERO_PAIR = (Fraction(0), Fraction(0))


def _lp_feasible(ineqs: list[_Ineq]) -> bool:
    """Exact phase-1 simplex deciding feasibility of ``expr (>|>=) 0`` rows.

    Free variables are split into nonnegative pairs, each row gets a slack,
    and artificial variables supply the starting basis.  Strict rows demand
    a symbolic infinitesimal margin: constants are (value, margin) pairs
    ordered lexicographically, which decides strict feasibility exactly.
    Bland's rule prevents cycling, so termination is guaranteed.
    """
    vars_ = sorted({v for e, _ in ineqs for v in e.vars()})
    if not vars_:
        return _ground_ok(ineqs)
    n, m = len(vars_), len(ineqs)
    vi = {v: i for i, v in enumerate(vars_)}
    ncols = 2 * n + m
    zero, one = Fraction(0), Fraction(1)
    rows: list[list[Fraction]] = []
    rhs: list[tuple[Fraction, Fraction]] = []
    for i, (e, s) in enumerate(ineqs):
        row = [zero] * ncols
        for v, c in e.coeffs:
            row[vi[v]] = c
            row[n + vi[v]] = -c
        row[2 * n + i] = -one  # expr - slack = margin
        b = (-e.const, one if s else zero)
        if b < _ZERO_PAIR:  # flip so the artificial start is feasible
            row = [-c for c in row]
            b = (-b[0], -b[1])
        rows.append(row)
        rhs.append(b)
    basis = [ncols + i for i in range(m)]  # artificial indices
    zrow = [sum(rows[i][j] for i in range(m)) for j in range(ncols)]
    zval = (
        sum((b[0] for b in rhs), zero),
        sum((b[1] for b in rhs), zero),
    )
    while True:
        enter = next((j for j in range(ncols) if zrow[j] > 0), None)
        if enter is None:
            return zval == _ZERO_PAIR
        pick = None
        for i in range(m):
            c = rows[i][enter]
            if c > 0:
                key = ((rhs[i][0] / c, rhs[i][1] / c), basis[i], i)
                if pick is None or key < pick:
                    pick = key
        # The objective is bounded below by zero, so a blocking row exists.
        assert pick is not None
        r = pick[2]
        piv = rows[r][enter]
        rows[r] = [c / piv for c in rows[r]]
        rhs[r] = (rhs[r][0] / piv, rhs[r][1] / piv)
        for i in range(m):
            if i != r and rows[i][enter] != 0:
                f = rows[i][enter]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
                rhs[i] = (rhs[i][0] - f * rhs[r][0], rhs[i][1] - f * rhs[r][1])
        f = zrow[enter]
        zrow = [a - f * b for a, b in zip(zrow, rows[r])]
        zval = (zval[0] - f * rhs[r][0], zval[1] - f * rhs[r][1])
        basis[r] = enter


def is_satisfiable(conjuncts: Iterable[AtomicConstraint]) -> bool:
    """Decide satisfiability over the rationals."""
    eqs, ineqs = _split(conjuncts)
    res = _eliminate_equalities(eqs, ineqs)
    if res is None:
        return False
    _, ineqs = res
    if not _ground_ok(ineqs):
        return False
    live = [r for r in ineqs if not r[0].is_const]
    nvars = len({v for e, _ in live for v in e.vars()})
    # Variable elimination has the better constants on small systems; the
    # simplex scales better once combination growth would kick in.
    if len(live) * max(nvars, 1) > 36:
        return _lp_feasible(live)
    remaining = _fm_eliminate(live, lambda v: True)
    return remaining is not None and _ground_ok(remaining)


def entails(conjuncts: Sequence[AtomicConstraint], atomic: AtomicConstraint) -> bool:
    """True iff every rational solution of the conjunction satisfies ``atomic``."""
    return all(
        not is_satisfiable(tuple(conjuncts) + (d,)) for d in atomic.negate()
    )


def entails_all(
    c1: Sequence[AtomicConstraint], c2: Sequence[AtomicConstraint]
) -> bool:
    return all(entails(c1, a) for a in c2)


def _merge_equality_pairs(atomics: list[AtomicConstraint]) -> list[AtomicConstraint]:
    """Replace ``e >= 0`` together with ``-e >= 0`` by ``e = 0``."""
    out: list[AtomicConstraint] = []
    ge_exprs = {a.expr: i for i, a in enumerate(atomics) if a.rel is Rel.GE}
    dropped: set[int] = set()
    for i, a in enumerate(atomics):
        if i in dropped:
            continue
        if a.rel is Rel.GE:
            j = ge_exprs.get(-a.expr)
            if j is not None and j != i and j not in dropped:
                dropped.add(j)
                out.append(AtomicConstraint(a.expr, Rel.EQ).normalized())
                continue
        out.append(a)
    return out


def normalize(conjuncts: Iterable[AtomicConstraint]) -> tuple[AtomicConstraint, ...]:
    """Canonicalize a conjunction syntactically.

    Coefficients become coprime integers with a fixed sign convention,
    trivially true conjuncts disappear, opposed inequality pairs merge into
    equalities, duplicates collapse, and the result is sorted.  A ground
    falsehood collapses the whole conjunction to the single constant
    ``FALSUM``.
    """
    cleaned: list[AtomicConstraint] = []
    for a in conjuncts:
        na = a.normalized()
        if na.is_trivially_false():
            return (FALSUM,)
        if na.is_trivially_true():
            continue
        cleaned.append(na)
    merged = _merge_equality_pairs(cleaned)
    return tuple(sorted(set(merged), key=AtomicConstraint.sort_key))


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
    opposed inequalities never entail each other.  When ``normalize``
    merges an opposed pair into a new equality, the Gauss-Jordan pass runs
    again over all the equalities, so the result always holds the reduced
    row echelon basis of its equalities, and no pivot in any inequality.

    ``max_rows`` caps intermediate growth during inequality elimination at
    the price of over-approximating (see :func:`_fm_eliminate`).  Capped or
    not, the result is ``(FALSUM,)`` if and only if the input is
    unsatisfiable, so callers may use ``project`` as their only decision.
    """
    keep_set = frozenset(keep)
    eqs, ineqs = _split(conjuncts)
    while True:
        res = _eliminate_equalities(eqs, ineqs, keep_set)
        if res is None:
            return (FALSUM,)
        kept_eqs, ineqs = res
        remaining = _fm_eliminate(ineqs, lambda v: v not in keep_set, max_rows)
        if remaining is None:
            return (FALSUM,)
        atomics = [AtomicConstraint(e, Rel.EQ) for e in kept_eqs]
        atomics += [AtomicConstraint(e, Rel.GT if s else Rel.GE) for e, s in remaining]
        normalized = normalize(atomics)
        if normalized == (FALSUM,):
            return normalized
        eqs, ineqs = _split(normalized)
        if len(eqs) == len(kept_eqs):
            break
    if not is_satisfiable(normalized):
        return (FALSUM,)
    return normalized
