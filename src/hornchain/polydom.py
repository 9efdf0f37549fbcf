"""Convex polyhedra in constraint form, used as an abstract domain.

A polyhedron is a conjunction of closed linear constraints over a fixed
tuple of dimension variables, or the distinguished empty element.  Its
constraint rows are canonical: the equalities are the reduced row echelon
basis of the affine hull, the inequalities are the facets only, with every
pivot substituted out, and all rows are normalized and sorted.  That form
is unique, so structural equality coincides with semantic equality.

Strict inequalities have no place in a closed domain; they are relaxed to
their non-strict counterparts on entry.  This over-approximates, which is
the safe direction for the analysis built on top.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterable, Sequence

from . import lincon
from .chc import AtomicConstraint, Rel, _Value, format_atomic_bracketed


class Polyhedron(_Value):
    """Closed convex polyhedron over ``dims``, held as its canonical rows.

    ``rows`` are ``lincon`` rows over ``dims`` in name order (``V26`` sorts
    between ``U`` and ``W``): None when the polyhedron is empty and ``()``
    for the universe.  They are its identity, so ``==`` compares sets.
    A non-empty polyhedron also holds lines and rays whose cone is its
    homogenized cone, ``generators`` (the double description of the Parma
    Polyhedra Library: Bagnara, Hill & Zaffanella, SCP 72(1-2), 2008).
    Either side is computed from the other at most once, on its first
    read: a polyhedron made from rows computes its generators, and one
    made from pooled generators (by :func:`_canonical`, so by :meth:`join`
    and every canonical construction) its rows, so a join that the
    analysis widens away is never converted.  A pooled polyhedron is never
    empty, so :attr:`is_empty` answers without its rows.  Atoms are built
    only on demand, by :meth:`conjuncts`.  A polyhedron keeps a
    ``__dict__`` for its rows and the cached side.
    """

    _fields = ("dims", "rows")

    def __init__(
        self, dims: tuple[str, ...], rows: tuple[tuple[lincon._Vec, Rel], ...] | None
    ) -> None:
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "rows", rows)

    # -- construction --------------------------------------------------------

    @staticmethod
    def universe(dims: Sequence[str]) -> "Polyhedron":
        return Polyhedron(tuple(dims), ())

    @staticmethod
    def empty(dims: Sequence[str]) -> "Polyhedron":
        return Polyhedron(tuple(dims), None)

    @staticmethod
    def of(dims: Sequence[str], conjuncts: Iterable[AtomicConstraint]) -> "Polyhedron":
        """Canonical polyhedron for a conjunction (strict parts relaxed).

        The conjunction is laid out over ``dims`` and its own variables in
        name order and projected onto ``dims`` by ``lincon._project_rows``.
        """
        dims = tuple(dims)
        atoms = [a.relax() for a in conjuncts]
        names = sorted(set(dims).union(*(a.vars() for a in atoms)))
        kept = [j for j, v in enumerate(names) if v in dims]
        eqs, ineqs = lincon._split(lincon._rows(atoms, names)[1])
        rows, _ = lincon._project_rows(eqs, ineqs, len(names), kept, None)
        return Polyhedron.empty(dims) if rows is None else _from_rows(dims, rows)

    # -- basic queries --------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        # Rows not read yet are a pooled polyhedron's, which is not empty.
        return vars(self).get("rows", ()) is None

    @property
    def is_universe(self) -> bool:
        return self.rows == ()

    def conjuncts(self) -> tuple[AtomicConstraint, ...]:
        """The rows as atoms over ``dims``, for printing and checking."""
        if self.rows is None:
            return ()
        names = sorted(self.dims)
        return tuple([lincon._atom(names, r, rel) for r, rel in self.rows])

    @cached_property
    def rows(self):
        """The canonical rows of a polyhedron :func:`_canonical` made,
        converted from its pooled generators on first read (see
        :func:`_rows_of`).  Every other polyhedron is given its rows."""
        return _rows_of(self.generators, len(self.dims))

    @cached_property
    def generators(self):
        """Lines and rays whose cone is the homogenized cone: the ones
        :func:`_canonical` pooled when it made this polyhedron, else the
        lines and extreme rays its rows give (see :func:`_cone`), each ray
        taken modulo the lines (any representative)."""
        return _cone(self.rows, len(self.dims))

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
        return all(lincon._entailed(other.rows, self.rows, len(self.dims)))

    def contains_point(self, point: Sequence) -> bool:
        """Membership test for a rational point given in dimension order."""
        if self.is_empty:
            return False
        env = {d: Fraction(x) for d, x in zip(self.dims, point)}
        return all(a.rel.holds(a.expr.evaluate(env)) for a in self.conjuncts())

    # -- lattice operations ----------------------------------------------------

    def meet(self, other: "Polyhedron") -> "Polyhedron":
        self._check_dims(other)
        if self.is_empty or other.is_empty:
            return Polyhedron.empty(self.dims)
        n = len(self.dims)
        rows, _ = lincon._project_rows(
            *lincon._split(self.rows + other.rows), n, range(n), None
        )
        return Polyhedron.empty(self.dims) if rows is None else _from_rows(self.dims, rows)

    def hull(self, *others: "Polyhedron") -> "Polyhedron":
        """Closure of the convex hull of the union of all operands: their
        :meth:`join`, which skips empty operands and pools the rest's cones."""
        for other in others:
            self._check_dims(other)
        return self.join([None if p.is_empty else p.generators for p in others])

    def join(self, cones) -> "Polyhedron":
        """Closure of the convex hull of this polyhedron and the polyhedra
        over ``dims`` whose cones (see :func:`_cone`) are ``cones``; a None
        entry stands for an empty polyhedron and is skipped.

        The hull's cone is the sum of the operands' cones, so one
        :func:`_canonical` call over the pooled generators joins any number
        of operands; an operand given as its cone never needs its rows.
        An operand's rays and lines that already satisfy this polyhedron's
        rows lie in its cone and add nothing to the sum, so they are
        dropped, and with none left the join is this polyhedron itself.
        The join returns ``self`` exactly then (or when ``self`` is the
        universe, or no operand is given): otherwise the pooled cone is
        strictly larger, so the hull differs, and ``is`` tells whether the
        join changed anything.  The result keeps the lines and rays it
        pooled as its :attr:`generators` and converts them to rows only
        when they are first read.
        """
        cones = [c for c in cones if c is not None]
        if not cones or self.is_universe:
            return self
        if not self.is_empty:
            rows = self.rows
            lines = [
                v for cone_lines, _ in cones for v in cone_lines
                if not all(_dot_ok(r, v, True) for r, _ in rows)
            ]
            rays = [
                v for _, cone_rays in cones for v in cone_rays
                if not all(_dot_ok(r, v, rel is Rel.EQ) for r, rel in rows)
            ]
            if not lines and not rays:
                return self
            cones = [self.generators, (lines, rays)]
        return _canonical(self.dims, cones)

    def widen_upto(
        self, other: "Polyhedron", thresholds: Iterable[AtomicConstraint] = ()
    ) -> "Polyhedron":
        """Standard widening, bounded by thresholds.

        Keeps this polyhedron's conjuncts (an equality as its two
        inequalities) and the relaxed thresholds that still hold in
        ``other``; the thresholds salvage bounds that plain widening would
        discard.  Expects ``self`` to be included in ``other`` (the analysis
        joins before widening), so every kept threshold holds of both.
        Thresholds are constraints over ``dims``.  A candidate row holds in
        the non-empty ``other`` exactly when it is non-negative on every
        ray of ``other``'s homogenized cone and orthogonal to every line,
        and an equality candidate when it is orthogonal to both, so each is
        decided by dot products against ``other``'s :attr:`generators`, with
        no elimination.  The kept rows hold in ``other``, so they need no
        projection.
        """
        self._check_dims(other)
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        candidates = lincon._rows([t.relax() for t in thresholds], sorted(self.dims))[1]
        for r, rel in self.rows:
            if rel is Rel.EQ:
                candidates.append((r, Rel.GE))
                candidates.append((lincon._neg(r), Rel.GE))
            else:
                candidates.append((r, rel))
        lines, rays = other.generators
        kept = [
            (r, rel) for r, rel in candidates
            if all(_dot_ok(r, v, True) for v in lines)
            and all(_dot_ok(r, v, rel is Rel.EQ) for v in rays)
        ]
        return _from_rows(self.dims, kept)


def _dot_ok(row: Sequence[int], vec: Sequence[int], tight: bool) -> bool:
    """``row . vec = 0`` when ``tight``, else ``row . vec >= 0``: a row and a
    generator of a homogenized cone, both with the constant coordinate last."""
    d = sum(map(mul, row, vec))
    return d == 0 if tight else d >= 0


# ---------------------------------------------------------------------------
# Cone duality (the canonical form of of and hull)
#
# A polyhedron {x : a.x + c >= 0, a'.x + c' = 0, ...} is the slice t = 1 of
# its homogenized cone {(x, t) : t >= 0, a.x + c t >= 0, a'.x + c' t = 0}.
# With each constraint written as its lincon row (a..., c), over the
# dimensions in name order with the constant last, that cone is the dual of
# cone(inequality rows and (0, ..., 0, 1)) + span(equality rows), so one
# conversion reads its generators off the rows: vertices at t > 0, rays and
# lines at t = 0.  The same conversion reads constraints back off
# generators: of takes one system's own cone there and back, and the hull's
# cone is the sum of the operands' cones, so it pools their generators.  A
# pooled polyhedron converts back to rows only when its rows are read.  The
# conversion is the incremental double description method (Motzkin et al.,
# 1953; Fukuda & Prodon, LNCS 1120, 1996): it cuts the cone by one row at a
# time and combines only adjacent pairs of rays, so its cost follows the
# number of generators.  Rows and generators are tuples of coprime ints.
# ---------------------------------------------------------------------------

def _nullspace(rows: Iterable[Sequence[int]], n: int) -> list[tuple[int, ...]]:
    """Primitive basis of the solutions of ``r . y = 0`` for every row.

    One ``lincon._gauss_jordan`` pass over the rows, each given a zero
    constant, gives the reduced row echelon form; each free column then
    yields one basis vector, positive there.
    """
    solved = lincon._gauss_jordan([(*row, 0) for row in rows])
    pivots = [j for j, _ in solved]
    scale = math.lcm(*(p[j] for j, p in solved))
    basis = []
    for free in range(n):
        if free in pivots:
            continue
        vec = [0] * n
        vec[free] = scale
        for j, p in solved:
            vec[j] = -p[free] * scale // p[j]
        basis.append(lincon._coprime(vec))
    return basis


def _dual(rays, lines, n: int):
    """Lines and extreme rays of the dual of ``cone(rays) + span(lines)``.

    The dual is ``{y : y.r >= 0 for every ray, y.l = 0 for every line}`` in
    ``n`` dimensions.  The cuts start from a basis of the null space of the
    input lines alone, and each ray row then cuts the cone.  A row that is
    not orthogonal to the whole basis turns one basis vector into a ray on
    its positive side.  Otherwise the rays on its non-negative side stay,
    and each adjacent pair across it is combined into a ray on the row's
    hyperplane.  Two rays are adjacent when no third ray is tight on every
    row that both are tight on; tight sets are bit masks over the rows cut
    so far.  Each cut keeps the basis orthogonal to every row so far, so
    after the last ray row it spans exactly the null space of all rows:
    the dual's lines.  Those are orthogonal to every row the loop cuts
    with, so they lie in the lineality of every cone cut so far, and
    starting from the null space of the lines alone, rather than from its
    part orthogonal to the dual's lines, adds them to each such cone and
    nothing else.  A side or a tight set depends only on a ray's class
    modulo the lineality of the cone cut so far, so every side, tight set
    and adjacency test is the one the smaller start gives.  The extreme
    rays, one per facet of ``cone(rays) + span(lines)``, come out as
    primitive representatives modulo the dual's lines, not as the ones
    orthogonal to them.

    Every reader depends only on the cone: :func:`_rows_of` puts the lines
    in their unique reduced row echelon form and substitutes its pivots
    out of each facet, which leaves the facet's unique representative zero
    at the pivots; a line has ``t = 0`` and is orthogonal to every row of
    the system it came from, so neither ``analyzer._decided_cone``'s ``t``
    coordinates nor its strict-row dot products move; ``widen_upto`` keeps
    only candidates orthogonal to ``other``'s lines, on which a ray's dot
    product does not move either; and :meth:`Polyhedron.join` drops the
    same operands, since a line inside the old lineality is orthogonal to
    every old row and one outside it is pooled.
    """
    basis = _nullspace(lines, n)
    gens: list[tuple[int, ...]] = []
    tight: list[int] = []
    for i, row in enumerate(rays):
        bit = 1 << i
        dots = [sum(map(mul, row, u)) for u in basis]
        sides = [sum(map(mul, row, g)) for g in gens]
        k = next((k for k, s in enumerate(dots) if s), None)
        if k is not None:
            v, s = basis.pop(k), dots.pop(k)
            if s < 0:
                v, s = tuple(-x for x in v), -s
            basis = [lincon._combine(s, u, d, v) if d else u for u, d in zip(basis, dots)]
            gens = [lincon._combine(s, g, d, v) if d else g for g, d in zip(gens, sides)] + [v]
            tight = [z | bit for z in tight] + [bit - 1]
            continue
        minus = [k for k, s in enumerate(sides) if s < 0]
        tight = [z | bit if s == 0 else z for z, s in zip(tight, sides)]
        if not minus:
            continue
        plus = [k for k, s in enumerate(sides) if s > 0]
        new_gens = [g for g, s in zip(gens, sides) if s >= 0]
        new_tight = [z for z, s in zip(tight, sides) if s >= 0]
        for p in plus:
            for q in minus:
                common = tight[p] & tight[q]
                if any(common & z == common for j, z in enumerate(tight) if j != p and j != q):
                    continue
                new_gens.append(lincon._combine(sides[p], gens[q], sides[q], gens[p]))
                new_tight.append(common | bit)
        gens, tight = new_gens, new_tight
    return basis, sorted(gens)


def _cone(rows: Iterable[tuple[lincon._Vec, Rel]], n: int):
    """Lines and extreme rays of the homogenized cone of satisfiable rows.

    The rows are ``lincon`` rows over ``n`` columns, the constant last, so
    ``t`` is the last coordinate and vertices come out as the rays with
    ``t > 0``, at some positive scale.  A strict row counts as its
    relaxation.
    """
    rays = [(0,) * n + (1,)]
    lines = []
    for r, rel in rows:
        (lines if rel is Rel.EQ else rays).append(r)
    return _dual(rays, lines, n + 1)


def _canonical(dims: tuple[str, ...], cones) -> Polyhedron:
    """Polyhedron whose homogenized cone is the sum of ``cones``.

    It keeps the pooled lines and rays as its ``generators`` and converts
    them to canonical rows (:func:`_rows_of`) on the first read of
    ``rows``; it is never empty, since every cone given has a ray with
    ``t > 0``.
    """
    p = Polyhedron.__new__(Polyhedron)
    lines = [v for cone_lines, _ in cones for v in cone_lines]
    rays = [v for _, cone_rays in cones for v in cone_rays]
    vars(p).update(dims=dims, generators=(lines, rays))
    return p


def _rows_of(generators, n: int) -> tuple[tuple[lincon._Vec, Rel], ...]:
    """Canonical rows over ``n`` columns of the polyhedron whose homogenized
    cone the lines and rays ``generators`` generate.

    :func:`_dual` reads the constraints back off the generators.  Its lines
    are a basis of the affine hull's equalities and its extreme rays are
    one normal per facet, so the output is complete (every equality of the
    affine hull) and irredundant (one row per facet), and one Gauss-Jordan
    pass makes it canonical: the equalities come out in reduced row
    echelon form and each facet, with every pivot substituted out, as the
    unique representative of its class modulo the equalities that is zero
    at the pivots.
    """
    lines, rays = generators
    eqs, facets = _dual(rays, lines, n + 1)
    solved = lincon._gauss_jordan(eqs, range(n))
    ineqs = lincon._substitute(solved, [(v, False) for v in facets])
    # t >= 0 constrains nothing in x-space: substituted, its x-part is zero.
    rows = lincon._normal_form(
        [(r, Rel.EQ) for _, r in solved] + [(r, Rel.GE) for r, _ in ineqs if any(r[:-1])]
    )
    return tuple(rows)


def _from_rows(dims: tuple[str, ...], rows) -> Polyhedron:
    """Canonical polyhedron of satisfiable ``lincon`` rows over ``dims`` in name
    order, strict rows relaxed: their cone, taken back to rows when read."""
    return _canonical(dims, [_cone(rows, len(dims))])


def format_polyhedron(p: Polyhedron) -> str:
    """Bracketed constraint list with explicit coefficients.

    The empty polyhedron has no finite constraint representation here and
    is rendered as ``[-1>=0]``; the universe is ``[]``.
    """
    if p.is_empty:
        return "[-1>=0]"
    return "[" + ",".join(format_atomic_bracketed(a) for a in p.conjuncts()) + "]"
