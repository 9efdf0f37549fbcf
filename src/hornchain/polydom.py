"""Convex polyhedra in constraint form, used as an abstract domain.

A polyhedron is a conjunction of closed linear constraints over a fixed
tuple of dimension variables, or the distinguished empty element.  The
constraint list is kept canonical (normalized, implied equalities made
explicit, redundant conjuncts dropped, deterministic order), so that
structural equality coincides with semantic equality for the operations
used by the analysis.

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
        # contains the whole polyhedron becomes an equality, which then
        # feeds the row reduction inside project.
        while True:
            flipped = None
            for a in cs:
                if a.rel is Rel.GE and not lincon.is_satisfiable(
                    cs + (AtomicConstraint(a.expr, Rel.GT),)
                ):
                    flipped = a
                    break
            if flipped is None:
                break
            cs = lincon.project(
                tuple(
                    AtomicConstraint(a.expr, Rel.EQ) if a is flipped else a
                    for a in cs
                ),
                dims,
            )
            if cs == (FALSUM,):
                return Polyhedron.empty(dims)
        eqs = [a for a in cs if a.rel is Rel.EQ]
        ineqs = [a for a in cs if a.rel is not Rel.EQ]
        kept = list(ineqs)
        for a in ineqs:
            others = eqs + [b for b in kept if b is not a]
            if a in kept and lincon.entails(others, a):
                kept.remove(a)
        final = tuple(sorted(eqs + kept, key=AtomicConstraint.sort_key))
        return Polyhedron(dims, Constraint(final))

    @staticmethod
    def _of_minimal(
        dims: Sequence[str], conjuncts: Iterable[AtomicConstraint]
    ) -> "Polyhedron":
        """Canonicalize a system already known complete and irredundant.

        Generator reconstruction emits every equality of the affine hull and
        only strictly one-sided facets, so the implied-equality search and the
        full redundancy sweep of :meth:`of` cannot change anything; projection
        (which rewrites inequalities modulo the equalities) plus a cheap
        equality-entailment pass yields the same canonical form.
        """
        dims = tuple(dims)
        cs = lincon.project(conjuncts, dims)
        if cs == (FALSUM,):
            return Polyhedron.empty(dims)
        eqs = [a for a in cs if a.rel is Rel.EQ]
        ineqs = [a for a in cs if a.rel is not Rel.EQ]
        if eqs:
            ineqs = [a for a in ineqs if not lincon.entails(tuple(eqs), a)]
        final = tuple(sorted(eqs + ineqs, key=AtomicConstraint.sort_key))
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

        Both operands are converted to generators (vertices, extreme rays,
        lineality directions) by enumerating active constraint subsets;
        the hull's constraints are then read back off the combined
        generators in homogenized form.  Everything is exact, and the
        subset enumeration is cheap in the low dimensions used here.
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
        gens = _homogenized_generators(self) + _homogenized_generators(other)
        return Polyhedron._of_minimal(
            self.dims, _constraints_from_generators(gens, self.dims)
        )

    def widen(self, other: "Polyhedron") -> "Polyhedron":
        """Standard widening: keep this polyhedron's conjuncts that still
        hold in ``other``; equalities may survive as single inequalities.

        Expects ``self`` to be included in ``other`` (the analysis joins
        before widening, so this holds there).
        """
        self._check_dims(other)
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        candidates: list[AtomicConstraint] = []
        for a in self.conjuncts():
            if a.rel is Rel.EQ:
                candidates.append(AtomicConstraint(a.expr, Rel.GE))
                candidates.append(AtomicConstraint(-a.expr, Rel.GE))
            else:
                candidates.append(a)
        kept = [a for a in candidates if lincon.entails(other.conjuncts(), a)]
        return Polyhedron.of(self.dims, kept)

    def widen_upto(
        self, other: "Polyhedron", thresholds: Iterable[AtomicConstraint] = ()
    ) -> "Polyhedron":
        """Widening bounded by thresholds.

        The plain widening result is strengthened with every threshold
        constraint that both operands already satisfy, salvaging bounds
        that plain widening would discard.
        """
        self._check_dims(other)
        if self.is_empty:
            return other
        if other.is_empty:
            return self
        base = self.widen(other)
        keep = [
            t.relax()
            for t in thresholds
            if lincon.entails(self.conjuncts(), t.relax())
            and lincon.entails(other.conjuncts(), t.relax())
        ]
        if not keep:
            return base
        return Polyhedron.of(self.dims, base.conjuncts() + tuple(keep))


# ---------------------------------------------------------------------------
# Generator representation (used by hull)
#
# A nonempty polyhedron is converted to vertices, extreme rays, and lineality
# directions by enumerating subsets of active constraints; conversely, the
# constraints of a hull are read off its homogenized generators.  Subset
# enumeration is exponential in the dimension only, which stays small here.
# ---------------------------------------------------------------------------

def _dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), _F0)


def _rank(rows: Iterable[Sequence[Fraction]]) -> int:
    return len(lincon.row_reduce(rows)[1])


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


def _solve_unique(rows, n: int):
    """Unique solution of ``normal . x = rhs`` rows, or None."""
    aug = [tuple(normal) + (rhs,) for normal, rhs in rows]
    reduced, pivots = lincon.row_reduce(aug)
    if n in pivots:  # a row degenerated to 0 = nonzero
        return None
    if len(pivots) != n:  # underdetermined
        return None
    x = [_F0] * n
    for pr, pc in zip(reduced, pivots):
        x[pc] = pr[n] / pr[pc]
    return tuple(x)


def _primitive(vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Canonical integer direction vector (coprime entries)."""
    lcm = math.lcm(*(x.denominator for x in vec))
    ints = [int(x * lcm) for x in vec]
    g = math.gcd(*ints)
    if g:
        ints = [v // g for v in ints]
    return tuple(Fraction(v) for v in ints)


def _constraint_rows(p: Polyhedron):
    """Split conjuncts into ``normal . x = rhs`` and ``normal . x >= rhs``."""
    eqs, ineqs = [], []
    for a in p.conjuncts():
        normal = tuple(a.expr.coeff(d) for d in p.dims)
        rhs = -a.expr.const
        (eqs if a.rel is Rel.EQ else ineqs).append((normal, rhs))
    return eqs, ineqs


def _homogenized_generators(p: Polyhedron) -> list[tuple[Fraction, ...]]:
    """Vertices as (1, v) and rays/lineality directions as (0, r)."""
    d = len(p.dims)
    eqs, ineqs = _constraint_rows(p)
    lines = _nullspace_basis([n for n, _ in eqs] + [n for n, _ in ineqs], d)
    # Restrict to the orthogonal complement of the lineality space; the
    # polyhedron is recovered by adding the lineality directions back.
    pointed_eqs = eqs + [(l, _F0) for l in lines]
    need = d - _rank([n for n, _ in pointed_eqs])

    verts: set[tuple[Fraction, ...]] = set()
    for subset in combinations(range(len(ineqs)), need):
        x = _solve_unique(pointed_eqs + [ineqs[i] for i in subset], d)
        if x is not None and all(_dot(n, x) >= rhs for n, rhs in ineqs):
            verts.add(x)

    rays: set[tuple[Fraction, ...]] = set()
    if need >= 1:
        hom = [n for n, _ in pointed_eqs]
        for subset in combinations(range(len(ineqs)), need - 1):
            ns = _nullspace_basis(hom + [ineqs[i][0] for i in subset], d)
            if len(ns) != 1:
                continue
            w = _primitive(ns[0])
            for cand in (w, tuple(-x for x in w)):
                if all(_dot(n, cand) >= 0 for n, _ in ineqs):
                    rays.add(cand)

    gens = [(_F1,) + v for v in sorted(verts)]
    gens += [(_F0,) + r for r in sorted(rays)]
    for l in lines:
        lp = _primitive(l)
        gens.append((_F0,) + lp)
        gens.append((_F0,) + tuple(-x for x in lp))
    return gens


def _expr_from(nv: Sequence[Fraction], dims: Sequence[str]) -> LinExpr:
    return LinExpr.build({d: c for d, c in zip(dims, nv[1:])}, nv[0])


def _constraints_from_generators(gens, dims) -> list[AtomicConstraint]:
    """Equalities and facets of the cone spanned by homogenized generators."""
    out: list[AtomicConstraint] = []
    n1 = len(dims) + 1
    for nv in _nullspace_basis(gens, n1):
        out.append(AtomicConstraint(_expr_from(nv, dims), Rel.EQ))
    basis, _ = lincon.row_reduce(gens)
    s = len(basis)
    facets: set[AtomicConstraint] = set()
    for subset in combinations(range(len(gens)), s - 1):
        # The facet normal lives in the span of the generators and is
        # orthogonal to the chosen subset; it is unique up to scale when
        # the subset has full facet rank.
        rows = [tuple(_dot(gens[i], b) for b in basis) for i in subset]
        ys = _nullspace_basis(rows, s)
        if len(ys) != 1:
            continue
        y = ys[0]
        nv = tuple(
            sum((y[k] * basis[k][j] for k in range(s)), _F0) for j in range(n1)
        )
        sides = [_dot(nv, g) for g in gens]
        if all(x <= 0 for x in sides):
            nv = tuple(-x for x in nv)
        elif not all(x >= 0 for x in sides):
            continue
        if all(x == 0 for x in nv[1:]):
            continue  # the t >= 0 facet constrains nothing in x-space
        facets.add(AtomicConstraint(_expr_from(nv, dims), Rel.GE).normalized())
    out.extend(sorted(facets, key=AtomicConstraint.sort_key))
    return out


def format_polyhedron(p: Polyhedron) -> str:
    """Bracketed constraint list with explicit coefficients.

    The empty polyhedron has no finite constraint representation here and
    is rendered as ``[-1>=0]``; the universe is ``[]``.
    """
    if p.is_empty:
        return "[-1>=0]"
    return "[" + ",".join(format_atomic_bracketed(a) for a in p.conjuncts()) + "]"
