"""Convex polyhedra in constraint form, used as an abstract domain.

A polyhedron is a conjunction of closed linear constraints over a fixed
tuple of dimension variables, or the distinguished empty element.  The
constraint list is canonical: the equalities are the reduced row echelon
basis of the affine hull, the inequalities are the facets only, with every
pivot substituted out, and all rows are normalized and sorted.  That form
is unique, so structural equality coincides with semantic equality.

Strict inequalities have no place in a closed domain; they are relaxed to
their non-strict counterparts on entry.  This over-approximates, which is
the safe direction for the analysis built on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from . import lincon
from .chc import (
    FALSUM,
    AtomicConstraint,
    Constraint,
    LinExpr,
    Rel,
    format_atomic_bracketed,
)

_F0 = Fraction(0)
_F1 = Fraction(1)


@dataclass(frozen=True)
class Polyhedron:
    """Closed convex polyhedron over ``dims``; ``constr`` is None when empty."""

    dims: tuple[str, ...]
    constr: Constraint | None

    # -- construction --------------------------------------------------------

    @staticmethod
    def universe(dims: Sequence[str]) -> "Polyhedron":
        return Polyhedron(tuple(dims), Constraint.true())

    @staticmethod
    def empty(dims: Sequence[str]) -> "Polyhedron":
        return Polyhedron(tuple(dims), None)

    @staticmethod
    def of(dims: Sequence[str], conjuncts: Iterable[AtomicConstraint]) -> "Polyhedron":
        """Canonical polyhedron for a conjunction (strict parts relaxed)."""
        dims = tuple(dims)
        cs = lincon.project((a.relax() for a in conjuncts), dims)
        if cs == (FALSUM,):
            return Polyhedron.empty(dims)
        # Make implied equalities explicit: an inequality whose hyperplane
        # contains the whole polyhedron becomes an equality.  A flip never
        # changes the set, so one sweep finds them all, and one projection
        # row-reduces them.
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
        # With the affine hull explicit, the facets are exactly the
        # inequalities not entailed by the other rows.
        final = tuple(
            a
            for a in cs
            if a.rel is Rel.EQ or not lincon.entails([b for b in cs if b is not a], a)
        )
        return Polyhedron(dims, Constraint(final))

    # -- basic queries --------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.constr is None

    @property
    def is_universe(self) -> bool:
        return self.constr is not None and self.constr.is_true

    def conjuncts(self) -> tuple[AtomicConstraint, ...]:
        return () if self.constr is None else self.constr.conjuncts

    def _check_dims(self, other: "Polyhedron") -> None:
        if self.dims != other.dims:
            raise ValueError(f"dimension mismatch: {self.dims} vs {other.dims}")

    def includes(self, other: "Polyhedron") -> bool:
        """True iff ``other`` is a subset of ``self``."""
        self._check_dims(other)
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        return lincon.entails_all(other.conjuncts(), self.conjuncts())

    def contains_point(self, point: Sequence) -> bool:
        """Membership test for a rational point given in dimension order."""
        if self.is_empty:
            return False
        env = {d: Fraction(x) for d, x in zip(self.dims, point)}
        for a in self.conjuncts():
            v = a.expr.evaluate(env)
            ok = v > 0 if a.rel is Rel.GT else (v >= 0 if a.rel is Rel.GE else v == 0)
            if not ok:
                return False
        return True

    # -- lattice operations ----------------------------------------------------

    def meet(self, other: "Polyhedron") -> "Polyhedron":
        self._check_dims(other)
        if self.is_empty or other.is_empty:
            return Polyhedron.empty(self.dims)
        return Polyhedron.of(self.dims, self.conjuncts() + other.conjuncts())

    def hull(self, other: "Polyhedron") -> "Polyhedron":
        """Closure of the convex hull of the union.

        Each operand's homogenized cone is the dual of its constraint rows,
        so :func:`_dual` turns the rows into generators; the hull's cone is
        the sum of the operands' cones, and a second :func:`_dual` turns
        the pooled generators back into equalities and facets.  The output
        is complete (every equality of the affine hull) and irredundant
        (one row per facet), so projection alone makes it canonical.
        """
        self._check_dims(other)
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        if not self.dims:
            return Polyhedron.universe(self.dims)
        if self.is_universe or other.is_universe:
            return Polyhedron.universe(self.dims)
        lines_p, rays_p = _cone(self)
        lines_q, rays_q = _cone(other)
        eqs, facets = _dual(rays_p + rays_q, lines_p + lines_q, len(self.dims) + 1)
        out = [AtomicConstraint(_expr_from(v, self.dims), Rel.EQ) for v in eqs]
        out += [
            AtomicConstraint(_expr_from(v, self.dims), Rel.GE)
            for v in facets
            if any(v[1:])  # t >= 0 constrains nothing in x-space
        ]
        return Polyhedron(self.dims, Constraint(lincon.project(out, self.dims)))

    def widen_upto(
        self, other: "Polyhedron", thresholds: Iterable[AtomicConstraint] = ()
    ) -> "Polyhedron":
        """Standard widening, bounded by thresholds.

        Keeps this polyhedron's conjuncts (an equality as its two
        inequalities) and the relaxed thresholds that still hold in
        ``other``; the thresholds salvage bounds that plain widening would
        discard.  Expects ``self`` to be included in ``other`` (the analysis
        joins before widening), so every kept threshold holds of both.
        """
        self._check_dims(other)
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        candidates = [t.relax() for t in thresholds]
        for a in self.conjuncts():
            if a.rel is Rel.EQ:
                candidates.append(AtomicConstraint(a.expr, Rel.GE))
                candidates.append(AtomicConstraint(-a.expr, Rel.GE))
            else:
                candidates.append(a)
        kept = [a for a in candidates if lincon.entails(other.conjuncts(), a)]
        return Polyhedron.of(self.dims, kept)


# ---------------------------------------------------------------------------
# Cone duality (used by hull)
#
# A polyhedron {x : c + a.x >= 0, c' + a'.x = 0, ...} is the slice t = 1 of
# its homogenized cone {(t, x) : t >= 0, c t + a.x >= 0, c' t + a'.x = 0}.
# With each constraint written as the row (c, a...), that cone is the dual of
# cone(inequality rows and (1, 0, ..., 0)) + span(equality rows), so one
# conversion reads its generators off the rows: vertices at t > 0, rays and
# lines at t = 0.  The hull's cone is the sum of the operands' cones, and the
# same conversion reads its constraints back off the pooled generators, as in
# the double description method.  Facets are found by enumerating subsets of
# rays, which is exponential in the dimension only; that stays small here.
# ---------------------------------------------------------------------------

def _dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), _F0)


def _nullspace_basis(rows: Iterable[Sequence[Fraction]], n: int):
    """Basis of the solutions of ``r . x = 0`` for every given row."""
    reduced, pivots = lincon.row_reduce(rows)
    basis: list[tuple[Fraction, ...]] = []
    for free in range(n):
        if free in pivots:
            continue
        vec = [_F0] * n
        vec[free] = _F1
        for pr, pc in zip(reduced, pivots):
            vec[pc] = -pr[free] / pr[pc]
        basis.append(tuple(vec))
    return basis


def _primitive(vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Canonical integer direction vector (coprime entries)."""
    lcm = math.lcm(*(x.denominator for x in vec))
    ints = [int(x * lcm) for x in vec]
    g = math.gcd(*ints)
    if g:
        ints = [v // g for v in ints]
    return tuple(Fraction(v) for v in ints)


def _dual(rays, lines, n: int):
    """Lines and extreme rays of the dual of ``cone(rays) + span(lines)``.

    The dual is ``{y : y.r >= 0 for every ray, y.l = 0 for every line}`` in
    ``n`` dimensions.  Its lines span the common null space of all rows.
    Its extreme rays, one per facet of ``cone(rays) + span(lines)``, are
    primitive normals orthogonal to the dual's lines, that is inside
    ``span(lines + rays)``: each is orthogonal to every line and to
    ``s - 1 - rank(lines)`` of the rays, where ``s`` is the rank of all
    rows, and has every ray on its non-negative side.
    """
    out_lines = [_primitive(v) for v in _nullspace_basis(lines + rays, n)]
    need = n - len(out_lines) - 1 - len(lincon.row_reduce(lines)[1])
    if need < 0:
        return out_lines, []
    fixed = lines + out_lines
    out_rays: set[tuple[Fraction, ...]] = set()
    for subset in combinations(rays, need):
        ys = _nullspace_basis(fixed + list(subset), n)
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


def _cone(p: Polyhedron):
    """Lines and extreme rays of the homogenized cone of a nonempty ``p``.

    Vertices come out as the rays with ``t > 0``, at some positive scale.
    """
    rays = [(_F1,) + (_F0,) * len(p.dims)]
    lines = []
    for a in p.conjuncts():
        row = (a.expr.const,) + tuple(a.expr.coeff(d) for d in p.dims)
        (lines if a.rel is Rel.EQ else rays).append(row)
    return _dual(rays, lines, len(p.dims) + 1)


def _expr_from(nv: Sequence[Fraction], dims: Sequence[str]) -> LinExpr:
    return LinExpr.build({d: c for d, c in zip(dims, nv[1:])}, nv[0])


def format_polyhedron(p: Polyhedron) -> str:
    """Bracketed constraint list with explicit coefficients.

    The empty polyhedron has no finite constraint representation here and
    is rendered as ``[-1>=0]``; the universe is ``[]``.
    """
    if p.is_empty:
        return "[-1>=0]"
    return "[" + ",".join(format_atomic_bracketed(a) for a in p.conjuncts()) + "]"
