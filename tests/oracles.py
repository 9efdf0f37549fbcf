"""Independent oracles and random-instance suites for the polyhedra domain.

Everything here avoids the package's own decision procedures: membership is
decided by direct evaluation, sets of integer points are enumerated with
exact int64 arithmetic, and convex hulls of integer point sets are computed
by brute-force facet enumeration (exact integer cross products and one-sided
tests).  The exceptions are ``canonical_by_lp``, which finds the canonical
form with ``lincon``'s decision procedures, and ``hull_by_projection``,
which builds hulls with ``lincon.project`` and ``canonical_by_lp``; neither
touches the generator conversion behind ``Polyhedron.of`` and
``Polyhedron.hull``.  The suites return ``(instances, failures)`` so both
the unit tests and the acceptance gate can share one run.  Later
sections keep the ``Fraction`` versions of ``lincon.project``,
``is_satisfiable`` and ``normalize`` as the reference for the integer-row
kernel, ``_project_rows``' emptiness decision included, the
``Constraint``-level ``thresholds.tp_step`` and its shedding antichain
``maximal`` as the reference for the row harvest, the
analyzer's Tarjan search and the unfolding's backward-edge search as the
reference for the one dependency-graph walk ``chc._walk``, and the
unfolding that decides every accumulated constraint whole, with the
``Fraction`` sums of ``LinExpr.rename`` and
``subst``, as the reference for the unfolding by summaries.  Five
sections close the file.  The first keeps the constraint-form
``Polyhedron`` operations, clause contributions and fixpoint loop as the
reference for the polyhedra on integer rows.  The second keeps the double
description's own null-space elimination as the reference for the one
that runs on ``lincon._gauss_jordan``, and the Gauss-Jordan pass that
eliminates each new pivot from every earlier row at once as the reference
for the one that back-substitutes once per pass.  The third keeps the
consequence step that eliminates a clause's own equalities again in every
derivation, one ``lincon._project_rows`` of all its rows onto the head's
columns, whose rows come back over those columns in normal form, as the
reference for the one that resumes from the clause's prepared rows, and
the embedding of rows at their target columns as the reference for the
maps that move rows onto a form or a joint summary.  The fourth keeps
the Fourier-Motzkin elimination with ``frozenset`` histories and a prune
pass over each step's rows, as the reference for the one that prunes each
combination as it makes it, and a pairwise test on ``Fraction`` ratios as
the reference for the opposed rows that keying refutes.  The character-by-character scanner that the
parser's one-regex scanner replaced closes the file, as the reference for
its token stream.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, islice, product

import numpy as np

from hornchain import analyzer, lincon, thresholds
from hornchain.chc import (
    FALSE_PRED,
    FALSUM,
    ZERO,
    AtomicConstraint,
    ChcError,
    Clause,
    Constraint,
    LinExpr,
    Program,
    Rel,
    canonical_arg_names,
    fresh_name,
)
from hornchain.parser import ParseError
from hornchain.polydom import Polyhedron, _canonical, _dual, _from_rows
from hornchain.thresholds import ThresholdSet

GRID_BOUND = 12  # oracle box is [-GRID_BOUND, GRID_BOUND]^d
POINT_RANGE = 10  # random vertices are drawn from [-POINT_RANGE, POINT_RANGE]^d


# ---------------------------------------------------------------------------
# Point membership and integer-grid enumeration
# ---------------------------------------------------------------------------

def satisfies_point(conjuncts, point, names) -> bool:
    """Evaluate each atomic at an integer/rational point, exactly."""
    env = {n: Fraction(x) for n, x in zip(names, point)}
    for a in conjuncts:
        v = a.expr.evaluate(env)
        ok = v > 0 if a.rel is Rel.GT else (v >= 0 if a.rel is Rel.GE else v == 0)
        if not ok:
            return False
    return True


def grid_points(conjuncts, d: int, bound: int = GRID_BOUND) -> frozenset:
    """All integer points of [-bound, bound]^d satisfying the conjunction.

    Constraints are scaled to integer coefficient rows, so the int64
    evaluation is exact for the magnitudes used here.
    """
    names = canonical_arg_names(d)
    axes = np.arange(-bound, bound + 1, dtype=np.int64)
    mesh = np.meshgrid(*([axes] * d), indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=1)
    mask = np.ones(len(pts), dtype=bool)
    for a in conjuncts:
        na = a.normalized()
        if na.is_trivially_true():
            continue
        if na.is_trivially_false():
            return frozenset()
        den = na.expr.const.denominator
        row = np.zeros(d, dtype=np.int64)
        for v, c in na.expr.coeffs:
            assert v in names, f"constraint variable {v} outside dimensions"
            assert c.denominator == 1
            row[names.index(v)] = int(c) * den
        cval = int(na.expr.const * den)
        vals = pts @ row + cval
        if na.rel is Rel.EQ:
            mask &= vals == 0
        elif na.rel is Rel.GT:
            mask &= vals > 0
        else:
            mask &= vals >= 0
    return frozenset(map(tuple, pts[mask].tolist()))


def poly_grid(p: Polyhedron, bound: int = GRID_BOUND) -> frozenset:
    if p.is_empty:
        return frozenset()
    return grid_points(p.conjuncts(), len(p.dims), bound)


# ---------------------------------------------------------------------------
# Exact convex hull of an integer point set (dimensions 1..3)
# ---------------------------------------------------------------------------

def _sub(p, q):
    return tuple(a - b for a, b in zip(p, q))


def _dot(p, q):
    return sum(a * b for a, b in zip(p, q))


def _scale_vec(v, k):
    return tuple(a * k for a in v)


def _vec_sub(p, q):
    return tuple(a - b for a, b in zip(p, q))


def _independent_basis(diffs):
    """Subset of the difference vectors that is linearly independent."""
    rows: list[tuple[Fraction, ...]] = []
    basis = []
    for v in diffs:
        work = tuple(Fraction(x) for x in v)
        for r in rows:
            lead = next(i for i, x in enumerate(r) if x != 0)
            if work[lead] != 0:
                f = work[lead] / r[lead]
                work = tuple(w - f * x for w, x in zip(work, r))
        if any(x != 0 for x in work):
            rows.append(work)
            basis.append(v)
    return basis


def rref(vectors):
    """Unique reduced row echelon form: rows with pivot 1, and their pivots."""
    reduced: list[tuple[Fraction, ...]] = []
    pivots: list[int] = []
    for v in vectors:
        r = tuple(Fraction(x) for x in v)
        for pr, pc in zip(reduced, pivots):
            if r[pc] != 0:
                r = tuple(a - r[pc] * b for a, b in zip(r, pr))
        lead = next((i for i, x in enumerate(r) if x != 0), None)
        if lead is None:
            continue
        r = tuple(x / r[lead] for x in r)
        reduced = [
            tuple(a - pr[lead] * b for a, b in zip(pr, r)) if pr[lead] != 0 else pr
            for pr in reduced
        ]
        reduced.append(r)
        pivots.append(lead)
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return [reduced[k] for k in order], [pivots[k] for k in order]


def _nullspace(basis, d):
    """Integer basis of the space orthogonal to all given vectors."""
    reduced, pivots = rref(basis)
    free = [i for i in range(d) if i not in pivots]
    out = []
    for f in free:
        vec = [Fraction(0)] * d
        vec[f] = Fraction(1)
        for pr, pc in zip(reduced, pivots):
            vec[pc] = -pr[f]
        lcm = 1
        for x in vec:
            lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
        out.append(tuple(int(x * lcm) for x in vec))
    return out


def _primitive(v):
    g = math.gcd(*v)
    return tuple(x // g for x in v) if g else tuple(v)


def dual_by_subsets(rays, lines, n: int):
    """Reference for ``polydom._dual``: the same lines and extreme rays,
    found by enumerating subsets of rays.

    The dual is ``{y : y.r >= 0 for every ray, y.l = 0 for every line}``.
    Its lines span the common null space of all rows.  Its extreme rays are
    primitive normals inside ``span(lines + rays)``: each is orthogonal to
    every line and to ``s - 1 - rank(lines)`` of the rays, where ``s`` is
    the rank of all rows, and has every ray on its non-negative side.
    """
    out_lines = [_primitive(v) for v in _nullspace(lines + rays, n)]
    need = n - len(out_lines) - 1 - len(rref(lines)[1])
    if need < 0:
        return out_lines, []
    fixed = lines + out_lines
    out_rays = set()
    for subset in combinations(rays, need):
        ys = _nullspace(fixed + list(subset), n)
        if len(ys) != 1:
            continue
        y = ys[0]
        sides = [_dot(y, r) for r in rays]
        if all(x <= 0 for x in sides):
            y = tuple(-x for x in y)
        elif not all(x >= 0 for x in sides):
            continue
        out_rays.add(_primitive(y))
    return out_lines, sorted(out_rays)


def _normal_in_span(basis, edge):
    """Nonzero vector in span(basis) orthogonal to ``edge`` (2-dim span)."""
    ee = _dot(edge, edge)
    for b in basis:
        n = _vec_sub(_scale_vec(b, ee), _scale_vec(edge, _dot(b, edge)))
        if any(x != 0 for x in n):
            return n
    return None


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _facet_from_normal(n, anchor, pts, names):
    """One-sided test: normal*(p - anchor) keeps one sign -> facet, else None."""
    sides = [_dot(n, _sub(p, anchor)) for p in pts]
    if all(s >= 0 for s in sides):
        expr = LinExpr.build(
            {names[i]: Fraction(c) for i, c in enumerate(n)},
            Fraction(-_dot(n, anchor)),
        )
        return AtomicConstraint(expr, Rel.GE).normalized()
    if all(s <= 0 for s in sides):
        expr = LinExpr.build(
            {names[i]: Fraction(-c) for i, c in enumerate(n)},
            Fraction(_dot(n, anchor)),
        )
        return AtomicConstraint(expr, Rel.GE).normalized()
    return None


def hull_from_points(points) -> list[AtomicConstraint]:
    """Exact constraint representation of conv(points) for dimension 1..3.

    Equalities describe the affine hull (nullspace of the difference
    vectors); inequalities are facets found by one-sided tests over all
    point subsets that can span a facet.  Every facet of the hull of a
    finite point set contains enough of the generating points, so the
    enumeration is complete.
    """
    pts = sorted(set(map(tuple, points)))
    if not pts:
        return [FALSUM]
    d = len(pts[0])
    names = canonical_arg_names(d)
    p0 = pts[0]
    basis = _independent_basis([_sub(p, p0) for p in pts[1:]])
    k = len(basis)

    out: list[AtomicConstraint] = []
    for n in _nullspace(basis, d):
        expr = LinExpr.build(
            {names[i]: Fraction(c) for i, c in enumerate(n)},
            Fraction(-_dot(n, p0)),
        )
        out.append(AtomicConstraint(expr, Rel.EQ).normalized())

    facets: set[AtomicConstraint] = set()
    if k == 1:
        t = basis[0]
        vals = [_dot(t, p) for p in pts]
        lo, hi = min(vals), max(vals)
        for n, b in (((t), -lo), (_scale_vec(t, -1), hi)):
            expr = LinExpr.build(
                {names[i]: Fraction(c) for i, c in enumerate(n)}, Fraction(b)
            )
            facets.add(AtomicConstraint(expr, Rel.GE).normalized())
    elif k == 2:
        for a, b in combinations(pts, 2):
            edge = _sub(b, a)
            n = _normal_in_span(basis, edge)
            if n is None:
                continue
            f = _facet_from_normal(n, a, pts, names)
            if f is not None:
                facets.add(f)
    elif k == 3:
        for a, b, c in combinations(pts, 3):
            n = _cross(_sub(b, a), _sub(c, a))
            if all(x == 0 for x in n):
                continue
            f = _facet_from_normal(n, a, pts, names)
            if f is not None:
                facets.add(f)

    out.extend(sorted(facets, key=AtomicConstraint.sort_key))
    return out


# ---------------------------------------------------------------------------
# Random instances
# ---------------------------------------------------------------------------

def random_point_set(rng: random.Random, d: int, max_points: int = 5):
    n = rng.randint(1, max_points)
    return [
        tuple(rng.randint(-POINT_RANGE, POINT_RANGE) for _ in range(d))
        for _ in range(n)
    ]


def random_system(rng: random.Random, d: int, max_atoms: int = 6):
    """A random conjunction of small-coefficient constraints."""
    names = canonical_arg_names(d)
    atoms = []
    for _ in range(rng.randint(1, max_atoms)):
        nvars = rng.randint(1, d)
        chosen = rng.sample(names, nvars)
        coeffs = {}
        for v in chosen:
            c = rng.choice((-3, -2, -1, 1, 2, 3))
            coeffs[v] = Fraction(c)
        const = Fraction(rng.randint(-POINT_RANGE, POINT_RANGE))
        rel = rng.choice((Rel.GE, Rel.GE, Rel.GE, Rel.EQ, Rel.GT))
        atoms.append(AtomicConstraint(LinExpr.build(coeffs, const), rel))
    return atoms


def relax_all(atomics):
    """Close a system the way the polyhedra domain does on entry."""
    return [a.relax() for a in atomics]


def point_polyhedron(z) -> Polyhedron:
    d = len(z)
    names = canonical_arg_names(d)
    atoms = [
        AtomicConstraint(LinExpr.build({names[i]: Fraction(1)}, Fraction(-v)), Rel.EQ)
        for i, v in enumerate(z)
    ]
    return Polyhedron.of(names, atoms)


def rows_polyhedron(dims, atoms) -> Polyhedron:
    """The polyhedron whose rows are those of ``atoms``, taken as canonical."""
    return Polyhedron(dims, tuple(lincon._rows(atoms, sorted(dims))[1]))


def canonical_by_lp(dims, conjuncts) -> Polyhedron:
    """Canonical polyhedron for a conjunction, by decision procedures alone.

    An inequality whose hyperplane contains the whole polyhedron is an
    implied equality; a flip never changes the set, so one sweep finds them
    all, and one projection row-reduces them.  With the affine hull
    explicit, the facets are the inequalities not entailed by the others.
    """
    dims = tuple(dims)
    cs = lincon.project((a.relax() for a in conjuncts), dims)
    if cs == (FALSUM,):
        return Polyhedron.empty(dims)
    tight = [
        a
        for a in cs
        if a.rel is Rel.GE
        and not lincon.is_satisfiable(cs + (AtomicConstraint(a.expr, Rel.GT),))
    ]
    if tight:
        cs = lincon.project(
            (AtomicConstraint(a.expr, Rel.EQ) if a in tight else a for a in cs), dims
        )
    final = tuple(
        a
        for a in cs
        if a.rel is Rel.EQ or not lincon.entails([b for b in cs if b is not a], a)
    )
    return rows_polyhedron(dims, final)


def hull_by_projection(p: Polyhedron, q: Polyhedron) -> Polyhedron:
    """Closed convex hull of two non-empty polyhedra by projection.

    Benoy, King & Mesnard, "Computing convex hulls with a linear solver"
    (TPLP 2005): ``x = y + z`` with ``y`` in ``lam * P``, ``z`` in
    ``(1 - lam) * Q`` and ``0 <= lam <= 1``.  Substituting ``z = x - y``
    leaves a linear system over ``x``, ``y`` and ``lam``, and
    ``canonical_by_lp`` projects ``y`` and ``lam`` away.  Nothing here
    touches the generator conversion that ``Polyhedron.hull`` uses.
    """
    lam = LinExpr.var("Lam")
    y = {d: LinExpr.var(f"Y_{d}") for d in p.dims}
    x_minus_y = {d: LinExpr.var(d) - y[d] for d in p.dims}
    rows = [
        AtomicConstraint(lam, Rel.GE),
        AtomicConstraint(LinExpr((), Fraction(1)) - lam, Rel.GE),
    ]
    for a in p.conjuncts():
        k = a.expr.const
        expr = reference_subst(a.expr, y) - LinExpr((), k) + lam.scale(k)
        rows.append(AtomicConstraint(expr, a.rel))
    for a in q.conjuncts():
        expr = reference_subst(a.expr, x_minus_y) - lam.scale(a.expr.const)
        rows.append(AtomicConstraint(expr, a.rel))
    return canonical_by_lp(p.dims, rows)


def _measure(p: Polyhedron) -> int:
    """Conjunct count with equalities counted twice (their split size)."""
    return sum(2 if a.rel is Rel.EQ else 1 for a in p.conjuncts())


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

def run_hull_suite(seed: int = 20260815, per_dim: int = 60):
    """Computed hulls must match the facet oracle on the integer grid."""
    rng = random.Random(seed)
    failures: list[str] = []
    instances = 0
    for d in (1, 2, 3):
        names = canonical_arg_names(d)
        for i in range(per_dim):
            s1 = random_point_set(rng, d)
            s2 = random_point_set(rng, d)
            p = Polyhedron.of(names, hull_from_points(s1))
            q = Polyhedron.of(names, hull_from_points(s2))
            h = p.hull(q)
            truth = hull_from_points(s1 + s2)
            instances += 1
            tag = f"hull d={d} #{i}: {s1} | {s2}"
            if poly_grid(h) != grid_points(truth, d):
                failures.append(f"{tag}: grid mismatch with facet oracle")
                continue
            if not (h.includes(p) and h.includes(q)):
                failures.append(f"{tag}: hull does not include an operand")
    return instances, failures


def run_meet_suite(seed: int = 20260815, count: int = 120):
    """Canonicalization and meet must agree with the raw-grid oracle."""
    rng = random.Random(seed)
    failures: list[str] = []
    instances = 0
    for i in range(count):
        d = rng.randint(1, 3)
        names = canonical_arg_names(d)
        raw1 = random_system(rng, d)
        raw2 = random_system(rng, d)
        p = Polyhedron.of(names, raw1)
        q = Polyhedron.of(names, raw2)
        instances += 1
        tag = f"meet d={d} #{i}"
        # The domain closes strict constraints on entry, so the oracle
        # compares against the relaxed systems.
        g1 = grid_points(relax_all(raw1), d)
        g2 = grid_points(relax_all(raw2), d)
        if poly_grid(p) != g1:
            failures.append(f"{tag}: canonicalization changed the grid")
            continue
        m = p.meet(q)
        if poly_grid(m) != g1 & g2:
            failures.append(f"{tag}: meet grid differs from intersection")
    return instances, failures


def run_includes_suite(seed: int = 20260815, per_kind: int = 40):
    """Inclusion agrees with construction, point evaluation, and the grid."""
    rng = random.Random(seed)
    failures: list[str] = []
    instances = 0
    for i in range(per_kind):
        d = rng.randint(1, 3)
        names = canonical_arg_names(d)

        # (a) a meet is included in both operands, by construction
        p = Polyhedron.of(names, random_system(rng, d))
        r = Polyhedron.of(names, random_system(rng, d))
        sub = p.meet(r)
        instances += 1
        if not p.includes(sub):
            failures.append(f"includes (meet) d={d} #{i}: refused its own meet")

        # (b) point membership agrees with direct evaluation (of the
        # relaxed system, which is what the domain represents)
        z = tuple(rng.randint(-GRID_BOUND + 1, GRID_BOUND - 1) for _ in range(d))
        raw = random_system(rng, d)
        q = Polyhedron.of(names, raw)
        expected = satisfies_point(relax_all(raw), z, names)
        instances += 1
        if q.includes(point_polyhedron(z)) != expected:
            failures.append(f"includes (point) d={d} #{i}: z={z}")
        if q.contains_point(z) != expected:
            failures.append(f"contains_point d={d} #{i}: z={z}")

        # (c) a positive inclusion implies grid containment; reflexivity
        a = Polyhedron.of(names, random_system(rng, d))
        b = Polyhedron.of(names, random_system(rng, d))
        instances += 1
        if a.includes(b) and not poly_grid(b) <= poly_grid(a):
            failures.append(f"includes (grid) d={d} #{i}: claimed but refuted")
        if not a.includes(a):
            failures.append(f"includes (reflexive) d={d} #{i}")
    return instances, failures


def run_widen_suite(seed: int = 20260815, count: int = 60):
    """Both widenings must include both operands; thresholds only tighten."""
    rng = random.Random(seed)
    failures: list[str] = []
    instances = 0
    for i in range(count):
        d = rng.randint(1, 3)
        names = canonical_arg_names(d)
        x = Polyhedron.of(names, random_system(rng, d))
        grow = Polyhedron.of(names, hull_from_points(random_point_set(rng, d)))
        y = x.hull(grow)
        w = x.widen_upto(y)
        instances += 1
        tag = f"widen d={d} #{i}"
        if not (w.includes(x) and w.includes(y)):
            failures.append(f"{tag}: result excludes an operand")
            continue
        if not (poly_grid(x) | poly_grid(y)) <= poly_grid(w):
            failures.append(f"{tag}: grid point escaped the widening")
        ts = random_system(rng, d)
        wu = x.widen_upto(y, ts)
        if not (wu.includes(x) and wu.includes(y)):
            failures.append(f"{tag}: threshold widening excludes an operand")
        if not w.includes(wu):
            failures.append(f"{tag}: thresholds failed to tighten plain widening")
    return instances, failures


def run_chain_suite(seed: int = 20260815, count: int = 30):
    """Widening chains stabilize within the starting conjunct measure."""
    rng = random.Random(seed)
    failures: list[str] = []
    instances = 0
    for i in range(count):
        d = rng.randint(1, 3)
        names = canonical_arg_names(d)
        x = Polyhedron.of(names, hull_from_points(random_point_set(rng, d)))
        for _ in range(2):  # growth phase, as before a widening delay
            x = x.hull(Polyhedron.of(names, hull_from_points(random_point_set(rng, d))))
        m = _measure(x)
        changes = 0
        for _ in range(m + 5):
            t = x.hull(Polyhedron.of(names, hull_from_points(random_point_set(rng, d))))
            w = x.widen_upto(t)
            if w.includes(x) and x.includes(w):
                continue
            changes += 1
            x = w
        instances += 1
        if changes > m:
            failures.append(
                f"chain d={d} #{i}: {changes} strict widenings for measure {m}"
            )
    return instances, failures


def run_polyhedra_suites(seed: int = 20260815):
    """All domain suites; at least 500 instances in total."""
    results = {
        "hull": run_hull_suite(seed),
        "meet": run_meet_suite(seed + 1),
        "includes": run_includes_suite(seed + 2),
        "widen": run_widen_suite(seed + 3),
        "chain": run_chain_suite(seed + 4),
    }
    return results


# ---------------------------------------------------------------------------
# Rational reference kernel for ``lincon``
# ---------------------------------------------------------------------------
#
# The ``fractions.Fraction`` versions of ``project``, ``is_satisfiable`` and
# ``normalize`` that ``lincon``'s integer rows replaced, kept as the
# reference they must agree with call for call.  Rows here are ``LinExpr``s;
# variables are named, not indexed.

def _q_split(conjuncts):
    eqs, ineqs = [], []
    for a in conjuncts:
        if a.rel is Rel.EQ:
            eqs.append(a.expr)
        else:
            ineqs.append((a.expr, a.rel is Rel.GT))
    return eqs, ineqs


def _q_coeff(e: LinExpr, v: str) -> Fraction:
    return dict(e.coeffs).get(v, ZERO)


def _q_solve_for(e: LinExpr, v: str) -> LinExpr:
    c = _q_coeff(e, v)
    rest = e - LinExpr.build({v: c})
    return rest.scale(Fraction(-1) / c)


def _q_eliminate_equalities(eqs, ineqs, keep=frozenset()):
    """Sparse Gauss-Jordan: each equality solved for its first variable
    outside ``keep``, else its last; None on a ground contradiction."""
    solved = {}
    for e in eqs:
        e = reference_subst(e, solved)
        if e.is_const:
            if e.const != 0:
                return None
            continue
        v = next((u for u in e.vars() if u not in keep), e.vars()[-1])
        form = _q_solve_for(e, v)
        sub = {v: form}
        solved = {u: reference_subst(f, sub) if _q_coeff(f, v) else f for u, f in solved.items()}
        solved[v] = form
    kept = [LinExpr.var(v) - f for v, f in solved.items() if v in keep]
    if solved:
        ineqs = [(reference_subst(e, solved), s) for e, s in ineqs]
    return kept, ineqs


def _q_ground_ok(ineqs) -> bool:
    for e, s in ineqs:
        if e.is_const and (e.const < 0 or (s and e.const == 0)):
            return False
    return True


def _q_prune_rows(rows):
    """Tightest of each set of parallel rows, with the intersection of their
    histories; None on a ground contradiction."""
    best = {}
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
        if cur is None:
            best[key] = (const, s, h)
        elif const < cur[0] or (const == cur[0] and s and not cur[1]):
            best[key] = (const, s, h & cur[2])
        else:
            best[key] = (cur[0], cur[1], h & cur[2])
    return [(LinExpr(k, c), s, h) for k, (c, s, h) in best.items()]


def _q_fm_eliminate(ineqs, should_elim, max_rows=None):
    """Fourier-Motzkin with parallel-row pruning and Kohler's criterion;
    the first step stopped by ``max_rows`` is decided by the simplex."""
    rows = _q_prune_rows([(e, s, frozenset((i,))) for i, (e, s) in enumerate(ineqs)])
    if rows is None:
        return None
    steps = 0
    decided = False
    while True:
        counts = {}
        for e, _, _ in rows:
            for v, c in e.coeffs:
                if should_elim(v):
                    pair = counts.setdefault(v, [0, 0])
                    pair[0 if c > 0 else 1] += 1
        if not counts:
            return [(e, s) for e, s, _ in rows]
        v = min(counts, key=lambda u: (counts[u][0] * counts[u][1], u))
        steps += 1
        lowers, uppers, nxt = [], [], []
        for e, s, h in rows:
            c = _q_coeff(e, v)
            (lowers if c > 0 else uppers if c < 0 else nxt).append((e, s, h))
        passthrough = len(nxt)
        aborted = False
        for le, ls, lh in lowers:
            lc = _q_coeff(le, v)
            for ue, us, uh in uppers:
                strict = ls or us
                hist = lh | uh
                if not strict and len(hist) > steps + 1:
                    continue
                combined = le.scale(-_q_coeff(ue, v)) + ue.scale(lc)
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
            if not decided and not _q_lp_feasible([(e, s) for e, s, _ in rows]):
                return None
            decided = True
            rows = nxt[:passthrough]
            continue
        rows = _q_prune_rows(nxt)
        if rows is None:
            return None


_Q_ZERO_PAIR = (Fraction(0), Fraction(0))


def _q_lp_feasible(ineqs) -> bool:
    """Phase-1 simplex in ``Fraction`` arithmetic with (value, margin)
    right-hand sides for strict rows, and Bland's rule."""
    vars_ = sorted({v for e, _ in ineqs for v in e.vars()})
    if not vars_:
        return _q_ground_ok(ineqs)
    n, m = len(vars_), len(ineqs)
    vi = {v: i for i, v in enumerate(vars_)}
    ncols = 2 * n + m
    zero, one = Fraction(0), Fraction(1)
    rows, rhs = [], []
    for i, (e, s) in enumerate(ineqs):
        row = [zero] * ncols
        for v, c in e.coeffs:
            row[vi[v]] = c
            row[n + vi[v]] = -c
        row[2 * n + i] = -one
        b = (-e.const, one if s else zero)
        if b < _Q_ZERO_PAIR:
            row = [-c for c in row]
            b = (-b[0], -b[1])
        rows.append(row)
        rhs.append(b)
    basis = [ncols + i for i in range(m)]
    zrow = [sum(rows[i][j] for i in range(m)) for j in range(ncols)]
    zval = (sum((b[0] for b in rhs), zero), sum((b[1] for b in rhs), zero))
    while True:
        enter = next((j for j in range(ncols) if zrow[j] > 0), None)
        if enter is None:
            return zval == _Q_ZERO_PAIR
        pick = None
        for i in range(m):
            c = rows[i][enter]
            if c > 0:
                key = ((rhs[i][0] / c, rhs[i][1] / c), basis[i], i)
                if pick is None or key < pick:
                    pick = key
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


def rational_is_satisfiable(conjuncts) -> bool:
    eqs, ineqs = _q_split(conjuncts)
    res = _q_eliminate_equalities(eqs, ineqs)
    if res is None:
        return False
    _, ineqs = res
    if not _q_ground_ok(ineqs):
        return False
    live = [r for r in ineqs if not r[0].is_const]
    nvars = len({v for e, _ in live for v in e.vars()})
    if len(live) * max(nvars, 1) > 36:
        return _q_lp_feasible(live)
    remaining = _q_fm_eliminate(live, lambda v: True)
    return remaining is not None and _q_ground_ok(remaining)


def _q_merge_equality_pairs(atomics):
    out = []
    ge_exprs = {a.expr: i for i, a in enumerate(atomics) if a.rel is Rel.GE}
    dropped = set()
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


def rational_normalize(conjuncts) -> tuple:
    cleaned = []
    for a in conjuncts:
        na = a.normalized()
        if na.is_trivially_false():
            return (FALSUM,)
        if na.is_trivially_true():
            continue
        cleaned.append(na)
    merged = _q_merge_equality_pairs(cleaned)
    return tuple(sorted(set(merged), key=AtomicConstraint.sort_key))


def rational_project(conjuncts, keep, max_rows=None) -> tuple:
    keep_set = frozenset(keep)
    eqs, ineqs = _q_split(conjuncts)
    while True:
        res = _q_eliminate_equalities(eqs, ineqs, keep_set)
        if res is None:
            return (FALSUM,)
        kept_eqs, ineqs = res
        remaining = _q_fm_eliminate(ineqs, lambda v: v not in keep_set, max_rows)
        if remaining is None:
            return (FALSUM,)
        atomics = [AtomicConstraint(e, Rel.EQ) for e in kept_eqs]
        atomics += [AtomicConstraint(e, Rel.GT if s else Rel.GE) for e, s in remaining]
        normalized = rational_normalize(atomics)
        if normalized == (FALSUM,):
            return normalized
        eqs, ineqs = _q_split(normalized)
        if len(eqs) == len(kept_eqs):
            break
    if not rational_is_satisfiable(normalized):
        return (FALSUM,)
    return normalized


# ---------------------------------------------------------------------------
# Reference threshold harvest on ``Constraint`` values
# ---------------------------------------------------------------------------
#
# ``thresholds.tp_step`` as it was before facts stayed integer rows inside
# a step: every combination goes through ``lincon.project`` and each result
# is renamed and normalized as atoms, and a capped bucket sheds its facts
# through ``maximal`` on atoms.  The row harvest must equal it.

def _constraint_equivalent(f: Constraint, g: Constraint) -> bool:
    return lincon.entails_all(f.conjuncts, g.conjuncts) and lincon.entails_all(
        g.conjuncts, f.conjuncts
    )


def subsumed_by(f: Constraint, facts) -> bool:
    """True iff ``f`` entails some fact of ``facts``."""
    return any(lincon.entails_all(f.conjuncts, g.conjuncts) for g in facts)


def maximal(facts) -> list:
    """The facts that no other fact strictly subsumes, in input order.

    Facts enter an antichain one at a time: a fact entailed by a kept fact
    is skipped, otherwise it evicts the kept facts it subsumes.  Of a group
    of equivalent facts the earliest is kept.
    """
    kept: list[Constraint] = []
    for f in facts:
        if subsumed_by(f, kept):
            continue
        kept = [g for g in kept if not lincon.entails_all(g.conjuncts, f.conjuncts)]
        kept.append(f)
    return kept


def reference_tp_step(program, interp, cap=None):
    new = {p: [] for p in program.arities}
    seen = {p: set() for p in program.arities}
    for clause in program.clauses:
        bucket = new[clause.head.pred]
        if cap is not None and len(bucket) >= 2 * cap:
            continue
        fact_lists = []
        for atom in clause.body:
            facts = interp.get(atom.pred, ())
            if not facts:
                fact_lists = []
                break
            mapping = dict(zip(canonical_arg_names(len(atom.args)), atom.args))
            fact_lists.append([f.rename(mapping) for f in facts])
        if clause.body and not fact_lists:
            continue
        head_map = dict(zip(clause.head.args, canonical_arg_names(clause.head.arity)))
        combos = islice(product(*fact_lists), thresholds._COMBO_BUDGET)
        for combo in combos:
            if cap is not None and len(bucket) >= 2 * cap:
                break
            conjuncts = list(clause.constr.conjuncts)
            for f in combo:
                conjuncts.extend(f.conjuncts)
            proj = lincon.project(conjuncts, clause.head.args, max_rows=lincon.PROJECT_CAP)
            if proj == (FALSUM,):
                continue
            fact = Constraint(lincon.normalize(a.rename(head_map) for a in proj))
            if fact in seen[clause.head.pred]:
                continue
            seen[clause.head.pred].add(fact)
            if len(bucket) <= thresholds._SEMANTIC_DEDUP_LIMIT and any(
                _constraint_equivalent(fact, g) for g in bucket
            ):
                continue
            bucket.append(fact)
    if cap is not None:
        for p, facts in new.items():
            if len(facts) > cap:
                new[p] = maximal(facts)[:cap]
    return {p: tuple(facts) for p, facts in new.items()}


def reference_compute_thresholds(program):
    interp = thresholds.top_interpretation(program)
    for _ in range(3):
        interp = reference_tp_step(program, interp, cap=thresholds._TP_CAP)
    return thresholds.atomconstraints(interp)


# ---------------------------------------------------------------------------
# Dependency-graph walks
# ---------------------------------------------------------------------------
#
# The two searches that ``chc._walk`` replaced: the analyzer's own Tarjan
# search for the components, and the unfolding's own search for the
# backward edges.  ``reference_reachable`` below keeps the unfolding's worklist
# for the reachable predicates.

def reference_sccs(nodes, succs) -> list:
    """Tarjan's algorithm, iterative; components come out callees-first."""
    index = {}
    low = {}
    on_stack = set()
    stack = []
    out = []
    counter = 0

    for root in nodes:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            node, next_child = work[-1]
            if next_child == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            adj = succs[node]
            descended = False
            for k in range(next_child, len(adj)):
                child = adj[k]
                if child not in index:
                    work[-1] = (node, k + 1)
                    work.append((child, 0))
                    descended = True
                    break
                if child in on_stack:
                    low[node] = min(low[node], index[child])
            if descended:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                out.append(tuple(comp))
    return out


def reference_backward_targets(program: Program) -> frozenset:
    """Targets of the edges (p, q) whose q is on the DFS stack when the
    edge is examined, searching from ``false`` first."""
    succs = program.succs
    backward = set()
    visited = set()
    on_stack = set()

    def dfs(root):
        stack = [(root, iter(succs[root]))]
        visited.add(root)
        on_stack.add(root)
        while stack:
            node, it = stack[-1]
            advanced = False
            for q in it:
                if q in on_stack:
                    backward.add(q)
                elif q not in visited:
                    visited.add(q)
                    on_stack.add(q)
                    stack.append((q, iter(succs[q])))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                on_stack.discard(node)

    roots = [FALSE_PRED] if FALSE_PRED in succs else []
    roots.extend(p for p in program.arities if p != FALSE_PRED)
    for r in roots:
        if r not in visited:
            dfs(r)
    return frozenset(backward)


# ---------------------------------------------------------------------------
# Reference unfolding
# ---------------------------------------------------------------------------
#
# ``transform.unfold_forward`` and ``unfold_clause`` as they were before
# clauses carried summaries: each unfolding renames the definition apart,
# substitutes the call's arguments for its head parameters, and decides the
# whole accumulated constraint with ``lincon.is_satisfiable``.  Renaming and
# substitution add every coefficient to ``ZERO`` as ``LinExpr.rename`` and
# ``subst`` did.  The unfolding by summaries must equal it clause for clause.

def reference_subst(e: LinExpr, mapping) -> LinExpr:
    acc = {}
    const = e.const
    for v, c in e.coeffs:
        repl = mapping.get(v)
        if repl is None:
            acc[v] = acc.get(v, ZERO) + c
        else:
            for w, d in repl.coeffs:
                acc[w] = acc.get(w, ZERO) + c * d
            const += c * repl.const
    return LinExpr.build(acc, const)


def reference_rename(e: LinExpr, mapping) -> LinExpr:
    acc = {}
    for v, c in e.coeffs:
        w = mapping.get(v, v)
        acc[w] = acc.get(w, ZERO) + c
    return LinExpr.build(acc, e.const)


def _ref_constraint(c: Constraint, fn, mapping) -> Constraint:
    return Constraint(tuple(AtomicConstraint(fn(a.expr, mapping), a.rel) for a in c))


def _ref_rename_clause(c: Clause, mapping) -> Clause:
    return Clause(
        c.head.rename(mapping),
        _ref_constraint(c.constr, reference_rename, mapping),
        tuple(b.rename(mapping) for b in c.body),
    )


def _ref_canonical(c: Clause) -> Clause:
    names = c.vars()
    return _ref_rename_clause(c, dict(zip(names, canonical_arg_names(len(names)))))


def _ref_standardize_apart(clause: Clause, taken) -> Clause:
    mapping = {}
    used = set(taken)
    for v in clause.vars():
        if v in used:
            w = fresh_name(used)
            mapping[v] = w
            used.add(w)
        else:
            used.add(v)
    return _ref_rename_clause(clause, mapping) if mapping else clause


def _ref_unfold_with_defs(clause: Clause, at: int, defs) -> list:
    call = clause.body[at]
    out = []
    for d in defs:
        d2 = _ref_standardize_apart(d, set(clause.vars()))
        binding = {z: LinExpr.var(y) for z, y in zip(d2.head.args, call.args)}
        names = dict(zip(d2.head.args, call.args))
        body = clause.body[:at] + tuple(b.rename(names) for b in d2.body) + clause.body[at + 1 :]
        bound = _ref_constraint(d2.constr, reference_subst, binding)
        constr = Constraint(clause.constr.conjuncts + bound.conjuncts)
        if not lincon.is_satisfiable(constr):
            continue
        out.append(_ref_canonical(Clause(clause.head, constr, body)))
    return out


def reference_unfold_clause(program: Program, clause: Clause, at: int) -> Program:
    idx = program.clauses.index(clause)
    reps = _ref_unfold_with_defs(clause, at, program.clauses_for(clause.body[at].pred))
    return Program(program.clauses[:idx] + tuple(reps) + program.clauses[idx + 1 :])


def reference_reachable(program: Program, root: str) -> set:
    """The predicates of the program that ``root`` depends on, itself included."""
    seen = set()
    work = [root]
    while work:
        p = work.pop()
        if p not in seen and p in program.succs:
            seen.add(p)
            work.extend(program.succs[p])
    return seen


def _ref_drop_unreachable(program: Program, root: str) -> Program:
    seen = reference_reachable(program, root)
    return Program(tuple(c for c in program.clauses if c.head.pred in seen))


def reference_unfold_forward(program: Program, goal_pred: str = FALSE_PRED) -> Program:
    program = _ref_drop_unreachable(program, goal_pred)
    targets = reference_backward_targets(program)
    clauses = list(program.clauses)
    steps = 0
    i = 0
    while i < len(clauses):
        c = clauses[i]
        at = next((k for k, b in enumerate(c.body) if b.pred not in targets), None)
        if at is None:
            i += 1
            continue
        defs = [d for d in clauses if d.head.pred == c.body[at].pred]
        clauses[i : i + 1] = _ref_unfold_with_defs(c, at, defs)
        steps += 1
        if steps > 100_000:
            raise ChcError("unfolding exceeded its rewrite budget")
    return _ref_drop_unreachable(Program(tuple(clauses)), goal_pred)


# ---------------------------------------------------------------------------
# Atom-path reference for the polyhedra and the fixpoint loop
# ---------------------------------------------------------------------------
#
# The constraint-form ``Polyhedron.of``, ``hull`` and ``widen_upto``
# (``atom_widen_upto``), the clause contribution and the fixpoint loop that
# the integer-row polyhedra replaced.  A contribution renames atoms, projects them with
# ``lincon.project``, renames again and projects a second time in ``of``;
# every join reads each operand's generators off its atoms again; each
# widening candidate is one ``lincon.entails`` call; every evaluation joins.
# Rows and generators here are laid out over the dimensions in position
# order with the constant first.

def _atom_cone(dims, conjuncts):
    rays = [(1,) + (0,) * len(dims)]
    lines = []
    for a in conjuncts:
        row = (a.expr.const,) + tuple(dict(a.expr.coeffs).get(d, 0) for d in dims)
        (lines if a.rel is Rel.EQ else rays).append(tuple(map(int, row)))
    return _dual(rays, lines, len(dims) + 1)


def _atom_canonical(dims, cones) -> Polyhedron:
    lines = [v for cone_lines, _ in cones for v in cone_lines]
    rays = [v for _, cone_rays in cones for v in cone_rays]
    eqs, facets = _dual(rays, lines, len(dims) + 1)

    def expr(v):
        return LinExpr.build({d: c for d, c in zip(dims, v[1:])}, v[0])

    out = [AtomicConstraint(expr(v), Rel.EQ) for v in eqs]
    out += [AtomicConstraint(expr(v), Rel.GE) for v in facets if any(v[1:])]
    return rows_polyhedron(dims, lincon.project(out, dims))


def reference_of(dims, conjuncts) -> Polyhedron:
    dims = tuple(dims)
    cs = lincon.project((a.relax() for a in conjuncts), dims)
    if cs == (FALSUM,):
        return Polyhedron.empty(dims)
    return _atom_canonical(dims, [_atom_cone(dims, cs)])


def reference_hull(p: Polyhedron, *others: Polyhedron) -> Polyhedron:
    operands = [q for q in (p,) + others if not q.is_empty]
    if len(operands) <= 1:
        return operands[0] if operands else p
    if any(q.is_universe for q in operands):
        return Polyhedron.universe(p.dims)
    return _atom_canonical(p.dims, [_atom_cone(p.dims, q.conjuncts()) for q in operands])


def atom_widen_upto(p: Polyhedron, other: Polyhedron, thresholds=()) -> Polyhedron:
    if p.is_empty:
        return other
    if other.is_empty:
        return p
    candidates = [t.relax() for t in thresholds]
    for a in p.conjuncts():
        if a.rel is Rel.EQ:
            candidates.append(AtomicConstraint(a.expr, Rel.GE))
            candidates.append(AtomicConstraint(-a.expr, Rel.GE))
        else:
            candidates.append(a)
    kept = [a for a in candidates if lincon.entails(other.conjuncts(), a)]
    return reference_of(p.dims, kept)


def reference_contribution(clause: Clause, head_dims, body) -> Polyhedron:
    if any(poly.is_empty for poly in body):
        return Polyhedron.empty(head_dims)
    conjuncts = list(clause.constr.conjuncts)
    for atom, poly in zip(clause.body, body):
        mapping = dict(zip(poly.dims, atom.args))
        conjuncts.extend(a.rename(mapping) for a in poly.conjuncts())
    proj = lincon.project(conjuncts, clause.head.args, max_rows=lincon.PROJECT_CAP)
    head_map = dict(zip(clause.head.args, head_dims))
    return reference_of(head_dims, (a.rename(head_map) for a in proj))


def reference_analyze(program: Program, thresholds=None):
    """``analyzer.analyze`` on the atom path, joining on every evaluation."""
    ts = thresholds if thresholds is not None else ThresholdSet.empty()
    preds = list(program.arities)
    order = {p: i for i, p in enumerate(preds)}
    dims = {p: canonical_arg_names(n) for p, n in program.arities.items()}
    clauses_of = {p: program.clauses_for(p) for p in preds}
    succs = program.succs
    values = {p: Polyhedron.empty(dims[p]) for p in preds}
    update_count = {p: 0 for p in preds}
    passes = updates = widenings = 0
    for comp in reference_sccs(preds, succs):
        members = sorted(comp, key=order.__getitem__)
        cyclic = len(members) > 1 or any(p in succs[p] for p in members)
        while True:
            passes += 1
            changed = False
            for p in members:
                contribs = [
                    reference_contribution(
                        c, dims[p], tuple(values[atom.pred] for atom in c.body)
                    )
                    for c in clauses_of[p]
                ]
                grown = reference_hull(values[p], *contribs)
                if grown == values[p]:
                    continue
                update_count[p] += 1
                if cyclic and update_count[p] > analyzer._WIDEN_DELAY:
                    values[p] = atom_widen_upto(values[p], grown, ts.get(p))
                    widenings += 1
                else:
                    values[p] = grown
                updates += 1
                changed = True
            if not changed or not cyclic:
                break
            if passes > analyzer._MAX_PASSES:
                raise ChcError("abstract iteration exceeded its pass budget")
    return analyzer.AbstractModel(dict(values)), analyzer.AnalysisStats(passes, updates, widenings)


# ---------------------------------------------------------------------------
# The join that pools every generator and the widening decided on rows
# ---------------------------------------------------------------------------

def reference_join(p: Polyhedron, cones) -> Polyhedron:
    """``Polyhedron.join`` before it dropped the operand generators that
    already lie in ``p``'s cone: every non-empty operand's cone is pooled
    with ``p``'s generators, and a double description always runs."""
    cones = [c for c in cones if c is not None]
    if not cones or p.is_universe:
        return p
    if not p.is_empty:
        cones = [p.generators, *cones]
    return _canonical(p.dims, cones)


def reference_widen_upto(p: Polyhedron, other: Polyhedron, thresholds=()) -> Polyhedron:
    """``Polyhedron.widen_upto`` before it decided by generators: every
    candidate is decided against ``other``'s rows in one ``lincon._entailed``
    batch, each by an elimination unless keying decides it."""
    if p.is_empty:
        return other
    if other.is_empty:
        return p
    candidates = lincon._rows([t.relax() for t in thresholds], sorted(p.dims))[1]
    for r, rel in p.rows:
        if rel is Rel.EQ:
            candidates.append((r, Rel.GE))
            candidates.append((lincon._neg(r), Rel.GE))
        else:
            candidates.append((r, rel))
    held = lincon._entailed(other.rows, candidates, len(p.dims))
    return _from_rows(p.dims, [row for row, ok in zip(candidates, held) if ok])


# ---------------------------------------------------------------------------
# The double description's own null-space elimination, and the Gauss-Jordan
# pass that eliminates each new pivot at once
# ---------------------------------------------------------------------------

def reference_nullspace(rows, n: int):
    """``polydom._nullspace`` with the fraction-free Gauss-Jordan elimination
    it kept before it ran on ``lincon._gauss_jordan``.

    Each row, reduced by the pivot rows before it, is pivoted on its first
    non-zero column and eliminated from the earlier pivot rows; each free
    column then yields one primitive basis vector, positive there.
    """

    def combine(a, u, b, v):
        return lincon._coprime([a * x - b * y for x, y in zip(u, v)])

    reduced = []
    pivots = []
    for row in rows:
        for pr, pc in zip(reduced, pivots):
            if row[pc]:
                row = combine(pr[pc], row, row[pc], pr)
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is None:
            continue
        reduced = [combine(row[lead], pr, pr[lead], row) if pr[lead] else pr for pr in reduced]
        reduced.append(tuple(row))
        pivots.append(lead)
    scale = math.lcm(*(pr[pc] for pr, pc in zip(reduced, pivots)))
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        vec = [0] * n
        vec[free] = scale
        for pr, pc in zip(reduced, pivots):
            vec[pc] = -pr[free] * scale // pr[pc]
        basis.append(lincon._coprime(vec))
    return basis


def reference_gauss_jordan(eqs, keep=(), solved=()):
    """``lincon._gauss_jordan`` before it back-substituted once per pass:
    each new pivot is eliminated from every earlier pivot row at once, so
    the rows are fully reduced after every equality."""
    solved = list(solved)
    for e in eqs:
        for j, p in solved:
            if e[j]:
                e = lincon._reduce(e, p, j)
        cols = [j for j, c in enumerate(e[:-1]) if c]
        if not cols:
            if e[-1]:
                return None
            continue
        v = next((j for j in cols if j not in keep), cols[-1]) if keep else cols[0]
        solved = [(j, lincon._reduce(p, e, v) if p[v] else p) for j, p in solved]
        solved.append((v, e))
    return solved


# ---------------------------------------------------------------------------
# The consequence step that eliminates every equality per derivation
# ---------------------------------------------------------------------------

def reference_embed(rows, target, n: int):
    """The embedding of rows before forms kept their maps: each row moved
    to columns ``target`` of ``n``, the constant kept last.

    Columns with the same target (a repeated argument) add up, so each row
    is made coprime again.
    """
    out = []
    for r, rel in rows:
        v = [0] * n + [r[-1]]
        for j, c in zip(target, r):
            v[j] += c
        out.append((lincon._coprime(v), rel))
    return out


def reference_clause_rows(clause: Clause):
    """``lincon._clause_rows`` before clauses were prepared: the number of
    columns, the clause constraint's rows, and the body atoms' and the
    head's ``reference_embed`` targets."""
    names = sorted(clause.vars())
    col = {v: j for j, v in enumerate(names)}

    def cols(atom):
        return [col[atom.args[i]] for i in lincon._layout(atom.arity)[1]]

    constr = lincon._rows(clause.constr.conjuncts, names)[1]
    return len(names), constr, [cols(a) for a in clause.body], cols(clause.head)


def reference_derive(n: int, constr, source, bodies, max_rows):
    """``lincon._derive`` before clauses were prepared: the constraint rows
    and the body rows concatenated, and one ``_project_rows`` over all of
    them, which eliminates the constraint's own equalities again."""
    rows = [row for part in (constr, *bodies) for row in part]
    proj, _ = lincon._project_rows(*lincon._split(rows), n, source, max_rows)
    return None if proj is None else tuple(proj)


def reference_prepared(clause: Clause):
    """``lincon._clause_rows`` before forms were cut to the columns a step
    reads: the full layout of ``reference_clause_rows``, every pivot row
    of the constraint's equalities kept, and its inequalities with those
    pivots substituted out."""
    n, constr, targets, source = reference_clause_rows(clause)
    eqs, ineqs = lincon._split(constr)
    solved = lincon._gauss_jordan(eqs, source)
    if solved is not None:
        ineqs = lincon._substitute(solved, ineqs)
    return lincon._Prepared(n, source, targets, solved, ineqs)


# ---------------------------------------------------------------------------
# Fourier-Motzkin with set histories and a separate prune pass
# ---------------------------------------------------------------------------

def reference_prune_rows(rows):
    """``lincon._prune_rows`` before it kept each row's slope, constant and
    gcd: ``(row, strict, history)`` triples in, with ``frozenset``
    histories, and the kept triples out as a list; None on a ground
    contradiction."""
    best = {}
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
            mine, theirs = const * cur[1], cur[0] * g
            if not (mine < theirs or (mine == theirs and s and not cur[2])):
                best[key] = (cur[0], cur[1], cur[2], h, cur[4])
                continue
        best[key] = (const, g, s, h, r)
    return [(r, s, h) for _, _, s, h, r in best.values()]


def reference_opposed_pair(ineqs):
    """Whether two of the ``(row, strict)`` pairs are opposed with no room
    between them: ``a.x + c >= 0`` and ``-l*a.x + c' >= 0`` for some
    ``l > 0`` with ``c + c'/l < 0``, or ``= 0`` with either row strict.
    Decided pair by pair on ``Fraction`` ratios, with no gcds."""
    for (r, s), (q, t) in combinations(ineqs, 2):
        j = next((j for j, c in enumerate(r[:-1]) if c), None)
        if j is None or q[j] * r[j] >= 0:
            continue
        ratio = Fraction(-q[j], r[j])
        if any(y != -ratio * x for x, y in zip(r[:-1], q[:-1])):
            continue
        room = r[-1] + q[-1] / ratio
        if room < 0 or (room == 0 and (s or t)):
            return True
    return False


def reference_fm_eliminate(ineqs, elim, max_rows=None):
    """``lincon._fm_eliminate`` before each step was one pass: histories are
    sets of input indices, Kohler's test takes their size, every step
    collects its passthrough rows and combinations in one list, and
    :func:`reference_prune_rows` prunes the list afterwards."""
    rows = reference_prune_rows([(r, s, frozenset((i,))) for i, (r, s) in enumerate(ineqs)])
    if rows is None:
        return None, False
    steps = 0
    decided = False
    while True:
        counts = {}
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
        lowers, uppers, nxt = [], [], []
        for row in rows:
            c = row[0][v]
            (lowers if c > 0 else uppers if c < 0 else nxt).append(row)
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
            if not decided and not lincon._lp_feasible([(r, s) for r, s, _ in rows]):
                return None, False
            decided = True
            rows = nxt[:passthrough]
            continue
        rows = reference_prune_rows(nxt)
        if rows is None:
            return None, decided


def reference_entailed(base, goals, n):
    """``lincon._entailed`` before it keyed its base once: each goal that is
    not a base row runs ``lincon._fm_eliminate`` over the substituted base
    inequalities plus one negation, so every elimination keys the whole
    base again."""
    eqs, ineqs = lincon._split(base)
    solved = lincon._gauss_jordan(eqs)
    if solved is None:  # an unsatisfiable base entails everything
        yield from (True for _ in goals)
        return
    ineqs = lincon._substitute(solved, ineqs)
    for goal in goals:
        if goal in base:
            yield True
            continue
        r, rel = goal
        if rel is Rel.EQ:
            negations = [(r, True), (lincon._neg(r), True)]
        else:
            negations = [(lincon._neg(r), rel is Rel.GE)]
        yield all(
            lincon._fm_eliminate(ineqs + [neg], range(n), lincon.PROJECT_CAP)[0] is None
            for neg in lincon._substitute(solved, negations)
        )


# ---------------------------------------------------------------------------
# The character-by-character scanner
# ---------------------------------------------------------------------------
#
# ``parser.tokenize`` before it became one compiled regex: each position
# tries every punctuation string in turn, and each token carries the line
# and column that the scan counts as it goes.  A character is one column,
# a tab and ``\r`` included, and a comment is skipped without counting.
# Digits, a point and more digits are one ``dec`` token.

_PUNCT = (":-", "=<", ">=", ",", ".", "(", ")", "+", "-", "*", "/", "<", ">", "=")


def reference_tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """``(kind, text, line, column)`` per token, ``eof`` last."""
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        for op in _PUNCT:
            if text.startswith(op, i):
                tokens.append(("op", op, line, start_col))
                i += len(op)
                col += len(op)
                break
        else:
            if "0" <= ch <= "9":
                j = i
                while j < n and "0" <= text[j] <= "9":
                    j += 1
                kind = "int"
                if j + 1 < n and text[j] == "." and "0" <= text[j + 1] <= "9":
                    kind = "dec"
                    j += 1
                    while j < n and "0" <= text[j] <= "9":
                        j += 1
                tokens.append((kind, text[i:j], line, start_col))
                col += j - i
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                kind = "var" if ch.isupper() or ch == "_" else "ident"
                tokens.append((kind, text[i:j], line, start_col))
                col += j - i
                i = j
            else:
                raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(("eof", "", line, col))
    return tokens
