"""Core data model for constrained Horn clause programs.

A program is a sequence of clauses ``H :- C, B1, ..., Bk`` where ``H`` and
the ``Bi`` are predicate atoms over variables and ``C`` is a conjunction of
linear constraints over rationals.  The distinguished 0-ary predicate
``false`` may only appear in clause heads; clauses with head ``false`` are
the integrity constraints whose bodies describe unsafe states.

All values here are immutable, but for caches outside their fields
(``Clause.rows``, and a prepared form's ``table``, ``moves`` and ``top``;
see ``lincon._Prepared``), and safe to share across threads.  A
``polydom.Polyhedron`` made from pooled generators computes its ``rows``
field on first read, always to the same value.  Each value
class derives from ``_Value``, which gives it what a frozen dataclass
would: a subclass names its fields once, in ``_fields``, and sets them in
its own ``__init__`` with ``object.__setattr__``.  Two
values are equal when they are of the same class and their field tuples
are equal, and a value hashes as its field tuple, so set and dict orders
are a frozen dataclass's.  ``repr`` shows the fields by name, and
assigning or deleting an attribute raises ``AttributeError``.  The package
does not use ``dataclasses``: importing it (with ``inspect``, ``ast``,
``dis`` and ``tokenize``) and generating each class's code would cost more
than the rest of ``import hornchain``.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from functools import cached_property
from operator import attrgetter
from typing import Iterable, Iterator, Mapping, Sequence

FALSE_PRED = "false"

ZERO = Fraction(0)
ONE = Fraction(1)


class ChcError(Exception):
    """Base class for errors raised by this package."""


class ArityError(ChcError):
    """A predicate is used with inconsistent arities."""


class _Value:
    """Base of the immutable value classes (see the module docstring)."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # ``attrgetter`` of one name returns the value, not a 1-tuple, and
        # two values compare as their 1-tuples do.
        get = attrgetter(*cls._fields)
        single = len(cls._fields) == 1

        def __eq__(self, other: object) -> bool:
            if other.__class__ is self.__class__:
                return get(self) == get(other)
            return NotImplemented

        def __hash__(self) -> int:
            return hash((get(self),) if single else get(self))

        cls.__eq__, cls.__hash__ = __eq__, __hash__

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _arg_name(i: int) -> str:
    return chr(ord("A") + i) if i < 26 else f"V{i}"


def canonical_arg_names(n: int) -> tuple[str, ...]:
    """Canonical argument variable names: A, B, ..., Z, V26, V27, ..."""
    return tuple([_arg_name(i) for i in range(n)])


def fresh_name(taken: set[str]) -> str:
    """The first of ``V0``, ``V1``, ... that is not in ``taken``."""
    i = 0
    while f"V{i}" in taken:
        i += 1
    return f"V{i}"


# ---------------------------------------------------------------------------
# Linear expressions and atomic constraints
# ---------------------------------------------------------------------------

class LinExpr(_Value):
    """Linear expression: sum of coeff*var terms plus a rational constant.

    ``coeffs`` is sorted by variable name and holds no zero coefficients,
    so structural equality coincides with syntactic equality.
    """

    __slots__ = _fields = ("coeffs", "const")

    def __init__(
        self, coeffs: tuple[tuple[str, Fraction], ...] = (), const: Fraction = ZERO
    ) -> None:
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "const", const)

    @staticmethod
    def build(coeffs: Mapping[str, Fraction], const: Fraction = ZERO) -> "LinExpr":
        # ``Fraction(c)`` of a ``Fraction`` still runs an ABC instance check.
        items = tuple(sorted(
            (v, c if type(c) is Fraction else Fraction(c)) for v, c in coeffs.items() if c != 0
        ))
        return LinExpr(items, const if type(const) is Fraction else Fraction(const))

    @staticmethod
    def var(name: str) -> "LinExpr":
        return LinExpr(((name, ONE),), ZERO)

    def vars(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.coeffs)

    @property
    def is_const(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LinExpr") -> "LinExpr":
        acc = dict(self.coeffs)
        for v, c in other.coeffs:
            acc[v] = acc.get(v, ZERO) + c
        return LinExpr.build(acc, self.const + other.const)

    def __sub__(self, other: "LinExpr") -> "LinExpr":
        return self + other.scale(Fraction(-1))

    def __neg__(self) -> "LinExpr":
        return self.scale(Fraction(-1))

    def scale(self, k: Fraction) -> "LinExpr":
        if k == 0:
            return LinExpr((), ZERO)
        return LinExpr(tuple((v, c * k) for v, c in self.coeffs), self.const * k)

    def rename(self, mapping: Mapping[str, str]) -> "LinExpr":
        """Rename variables; terms that land on one name are added up.

        When the new names are distinct, the terms are only re-sorted.
        """
        terms = [(mapping.get(v, v), c) for v, c in self.coeffs]
        if len({w for w, _ in terms}) == len(terms):
            terms.sort()
            return LinExpr(tuple(terms), self.const)
        acc: dict[str, Fraction] = {}
        for w, c in terms:
            acc[w] = acc[w] + c if w in acc else c
        return LinExpr.build(acc, self.const)

    def evaluate(self, env: Mapping[str, Fraction]) -> Fraction:
        return sum((c * env[v] for v, c in self.coeffs), self.const)


class Rel(Enum):
    """Relation of a linear expression against zero."""

    GE = ">="
    GT = ">"
    EQ = "="

    def holds(self, value: Fraction | int) -> bool:
        """Whether ``value REL 0``."""
        return value > 0 if self is Rel.GT else (value >= 0 if self is Rel.GE else value == 0)


class AtomicConstraint(_Value):
    """A single linear constraint ``expr REL 0``.

    ``a =< b`` and ``a < b`` are stored as ``b - a >= 0`` / ``b - a > 0``,
    so only the three relations above occur.
    """

    __slots__ = _fields = ("expr", "rel")

    def __init__(self, expr: LinExpr, rel: Rel) -> None:
        object.__setattr__(self, "expr", expr)
        object.__setattr__(self, "rel", rel)

    def vars(self) -> tuple[str, ...]:
        return self.expr.vars()

    def rename(self, mapping: Mapping[str, str]) -> "AtomicConstraint":
        return AtomicConstraint(self.expr.rename(mapping), self.rel)

    def relax(self) -> "AtomicConstraint":
        """Close a strict inequality (> becomes >=)."""
        return AtomicConstraint(self.expr, Rel.GE) if self.rel is Rel.GT else self

    def negate(self) -> tuple["AtomicConstraint", ...]:
        """Negation as a disjunction of atomic constraints."""
        if self.rel is Rel.GE:
            return (AtomicConstraint(-self.expr, Rel.GT),)
        if self.rel is Rel.GT:
            return (AtomicConstraint(-self.expr, Rel.GE),)
        return (
            AtomicConstraint(self.expr, Rel.GT),
            AtomicConstraint(-self.expr, Rel.GT),
        )

    def is_trivially_true(self) -> bool:
        return self.expr.is_const and self.rel.holds(self.expr.const)

    def is_trivially_false(self) -> bool:
        return self.expr.is_const and not self.is_trivially_true()

    def normalized(self) -> "AtomicConstraint":
        """Scale to coprime integer coefficients with a fixed sign rule.

        Equalities are oriented so the first variable (in name order) has a
        positive coefficient; inequality directions are semantic and kept.
        """
        expr = self.expr
        if expr.is_const:
            return FALSUM if self.is_trivially_false() else VERUM
        denoms = [c.denominator for _, c in expr.coeffs] + [expr.const.denominator]
        nums = [c.numerator for _, c in expr.coeffs] + [expr.const.numerator]
        lcm = math.lcm(*denoms)
        g = math.gcd(*(n * lcm // d for n, d in zip(nums, denoms)))
        k = Fraction(lcm, g)
        expr = expr.scale(k)
        rel = self.rel
        if rel is Rel.EQ and expr.coeffs[0][1] < 0:
            expr = -expr
        return AtomicConstraint(expr, rel)

    def sort_key(self) -> tuple:
        e = self.expr
        return (e.vars(), tuple(-c for _, c in e.coeffs), self.rel.value, e.const)


# Canonical representatives of trivial truth and falsity.
VERUM = AtomicConstraint(LinExpr((), ZERO), Rel.GE)       # 0 >= 0
FALSUM = AtomicConstraint(LinExpr((), Fraction(-1)), Rel.GE)  # -1 >= 0


class Constraint(_Value):
    """Conjunction of atomic constraints; the empty conjunction is true."""

    __slots__ = _fields = ("conjuncts",)

    def __init__(self, conjuncts: tuple[AtomicConstraint, ...] = ()) -> None:
        object.__setattr__(self, "conjuncts", conjuncts)

    @staticmethod
    def true() -> "Constraint":
        return Constraint(())

    @staticmethod
    def of(items: Iterable[AtomicConstraint]) -> "Constraint":
        return Constraint(tuple(items))

    def vars(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for a in self.conjuncts:
            for v, _ in a.expr.coeffs:
                seen[v] = None  # a key keeps its first position
        return tuple(seen)

    def rename(self, mapping: Mapping[str, str]) -> "Constraint":
        return Constraint(tuple(a.rename(mapping) for a in self.conjuncts))

    def __iter__(self) -> Iterator[AtomicConstraint]:
        return iter(self.conjuncts)


# ---------------------------------------------------------------------------
# Atoms, clauses, programs
# ---------------------------------------------------------------------------

class Atom(_Value):
    """Predicate atom over variables only."""

    __slots__ = _fields = ("pred", "args")

    def __init__(self, pred: str, args: tuple[str, ...] = ()) -> None:
        object.__setattr__(self, "pred", pred)
        object.__setattr__(self, "args", args)

    @property
    def arity(self) -> int:
        return len(self.args)

    def rename(self, mapping: Mapping[str, str]) -> "Atom":
        return Atom(self.pred, tuple(mapping.get(v, v) for v in self.args))


class Clause(_Value):
    """``head :- constr, body``; an empty body and true constraint is a fact.

    A clause keeps a ``__dict__`` for its cached :attr:`rows`.
    """

    _fields = ("head", "constr", "body")

    def __init__(
        self, head: Atom, constr: Constraint = Constraint.true(), body: tuple[Atom, ...] = ()
    ) -> None:
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "constr", constr)
        object.__setattr__(self, "body", body)

    def vars(self) -> tuple[str, ...]:
        seen = dict.fromkeys(self.head.args)
        for atom in self.body:
            seen.update(dict.fromkeys(atom.args))
        for a in self.constr.conjuncts:
            for v, _ in a.expr.coeffs:
                seen[v] = None  # a key keeps its first position
        return tuple(seen)

    @cached_property
    def rows(self):
        """The clause's constraint as ``lincon`` rows prepared for
        ``lincon._derive`` (see ``lincon._clause_rows``), computed at most
        once per clause, however many steps and derivations read it."""
        from . import lincon

        return lincon._clause_rows(self)

    def with_preds(self, head: str, body: Sequence[str]) -> "Clause":
        """The clause with its atoms' predicates replaced, arguments kept.

        Prepared rows depend only on the constraint and the argument lists,
        so the new clause shares this clause's ``rows``.
        """
        clause = Clause(
            Atom(head, self.head.args),
            self.constr,
            tuple([Atom(p, a.args) for p, a in zip(body, self.body)]),
        )
        object.__setattr__(clause, "rows", self.rows)
        return clause

    def with_canonical_vars(self) -> "Clause":
        """Rename variables to A, B, C, ... by first occurrence.

        One walk in :meth:`vars` order names each variable and renames each
        conjunct as soon as its variables are named; a conjunct that keeps
        every name is kept as it is.
        """
        canon: dict[str, str] = {}
        for atom in (self.head, *self.body):
            for v in atom.args:
                if v not in canon:
                    canon[v] = _arg_name(len(canon))
        conjuncts = []
        for a in self.constr.conjuncts:
            same = True
            for v, _ in a.expr.coeffs:
                w = canon.get(v)
                if w is None:
                    w = canon[v] = _arg_name(len(canon))
                if w != v:
                    same = False
            if not same:
                # The renaming is injective, so the terms are only re-sorted.
                e = a.expr
                terms = sorted([(canon[v], c) for v, c in e.coeffs])
                a = AtomicConstraint(LinExpr(tuple(terms), e.const), a.rel)
            conjuncts.append(a)
        return Clause(
            self.head.rename(canon),
            Constraint(tuple(conjuncts)),
            tuple([b.rename(canon) for b in self.body]),
        )


class Program(_Value):
    """Ordered clause list plus the derived predicate tables.

    ``arities`` maps each predicate to its arity and ``succs`` to the
    predicates its clause bodies call (the dependency graph's successors),
    both in first-appearance order and without duplicates.  Programs
    compare and hash by ``clauses`` alone.
    """

    _fields = ("clauses",)

    def __init__(self, clauses: tuple[Clause, ...]) -> None:
        object.__setattr__(self, "clauses", clauses)
        arities: dict[str, int] = {}
        succs: dict[str, dict[str, None]] = {}
        for c in self.clauses:
            for atom in (c.head, *c.body):
                known = arities.setdefault(atom.pred, atom.arity)
                if known != atom.arity:
                    raise ArityError(
                        f"predicate {atom.pred} used with arities {known} and {atom.arity}"
                    )
                succs.setdefault(atom.pred, {})
            succs[c.head.pred].update(dict.fromkeys(b.pred for b in c.body))
            if any(b.pred == FALSE_PRED for b in c.body):
                raise ChcError(f"{FALSE_PRED} must not appear in a clause body")
            if len(set(c.head.args)) != len(c.head.args):
                raise ChcError(f"head arguments of {c.head.pred} are not distinct")
        object.__setattr__(self, "arities", arities)
        object.__setattr__(self, "succs", {p: tuple(qs) for p, qs in succs.items()})

    def __repr__(self) -> str:
        return f"Program(clauses={self.clauses!r}, arities={self.arities!r}, succs={self.succs!r})"

    def clauses_for(self, pred: str) -> tuple[Clause, ...]:
        return tuple(c for c in self.clauses if c.head.pred == pred)


# ---------------------------------------------------------------------------
# Raw (as-parsed) clauses and normalization
# ---------------------------------------------------------------------------

class RawAtom(_Value):
    """Atom whose arguments are arbitrary linear expressions."""

    __slots__ = _fields = ("pred", "args")

    def __init__(self, pred: str, args: tuple[LinExpr, ...] = ()) -> None:
        object.__setattr__(self, "pred", pred)
        object.__setattr__(self, "args", args)


class RawClause(_Value):
    """Clause as parsed: the head may be a constraint, body items interleave."""

    __slots__ = _fields = ("head", "items")

    def __init__(
        self, head: RawAtom | AtomicConstraint, items: tuple[RawAtom | AtomicConstraint, ...] = ()
    ) -> None:
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "items", items)


def _lift(
    atom: RawAtom, taken: set[str], head_args: set[str] | None
) -> tuple[Atom, list[AtomicConstraint]]:
    """The atom over variables, and the equalities that bind them.

    Each argument that is not a bare variable, or that is a bare variable
    already in ``head_args`` (when given), becomes a fresh variable ``w``
    outside ``taken`` with the equality ``w - arg = 0``.  ``taken`` and
    ``head_args`` take in every name the atom ends up with.
    """
    args: list[str] = []
    eqs: list[AtomicConstraint] = []
    for e in atom.args:
        is_bare = len(e.coeffs) == 1 and e.coeffs[0][1] == 1 and e.const == 0
        v = e.coeffs[0][0] if is_bare else None
        if v is not None and (head_args is None or v not in head_args):
            args.append(v)
            if head_args is not None:
                head_args.add(v)
            continue
        w = fresh_name(taken)
        taken.add(w)
        eqs.append(AtomicConstraint(LinExpr.var(w) - e, Rel.EQ))
        args.append(w)
        if head_args is not None:
            head_args.add(w)
    return Atom(atom.pred, tuple(args)), eqs


def normalize_clause(raw: RawClause) -> list[Clause]:
    """Bring a raw clause into normal form.

    Head arguments become distinct variables (with binding equalities added
    to the constraint), body atom arguments become variables, and a clause
    whose head is a constraint turns into integrity constraints by negating
    the head and distributing the resulting disjunction.
    """
    if isinstance(raw.head, AtomicConstraint):
        out: list[Clause] = []
        for disjunct in raw.head.negate():
            flipped = RawClause(RawAtom(FALSE_PRED), (disjunct,) + raw.items)
            out.extend(normalize_clause(flipped))
        return out

    taken = set()
    for item in (raw.head, *raw.items):
        if isinstance(item, RawAtom):
            for e in item.args:
                taken.update(e.vars())
        else:
            taken.update(item.vars())

    head, conjuncts = _lift(raw.head, taken, set())
    body: list[Atom] = []
    for item in raw.items:
        if isinstance(item, AtomicConstraint):
            conjuncts.append(item)
        else:
            atom, eqs = _lift(item, taken, None)
            conjuncts.extend(eqs)
            body.append(atom)
    clause = Clause(head, Constraint.of(conjuncts), tuple(body))
    return [clause.with_canonical_vars()]


# ---------------------------------------------------------------------------
# Predicate dependency graph
# ---------------------------------------------------------------------------

def _walk(program: Program, roots: Iterable[str]) -> tuple[list[tuple[str, ...]], set[str]]:
    """One depth-first search of the predicate dependency graph.

    The graph has an edge from each clause head to each body predicate
    (``Program.succs``).  The search starts from each root in turn that it
    has not reached yet, and skips roots the program lacks.  Returns the
    strongly connected components of the reached predicates, callees first
    (Tarjan, SIAM J. Comput. 1(2), 1972), and the targets of the backward
    edges: an edge (p, q) is backward iff q is on the search path when the
    edge is examined.
    """
    succs = program.succs
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    stack: list[str] = []  # reached predicates not yet in a component
    on_stack: set[str] = set()
    path: set[str] = set()
    comps: list[tuple[str, ...]] = []
    backward: set[str] = set()

    def enter(p: str) -> tuple[str, Iterator[str]]:
        index[p] = low[p] = len(index)
        stack.append(p)
        on_stack.add(p)
        path.add(p)
        return p, iter(succs[p])

    for root in roots:
        if root in index or root not in succs:
            continue
        work = [enter(root)]
        while work:
            node, it = work[-1]
            for q in it:
                if q not in index:
                    work.append(enter(q))
                    break
                if q in path:
                    backward.add(q)
                if q in on_stack and index[q] < low[node]:
                    low[node] = index[q]
            else:
                work.pop()
                path.discard(node)
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] == index[node]:
                    comp = []
                    while True:
                        p = stack.pop()
                        on_stack.discard(p)
                        comp.append(p)
                        if p == node:
                            break
                    comps.append(tuple(comp))
    return comps, backward


def backward_targets(program: Program) -> frozenset[str]:
    """Targets of the backward edges of the predicate dependency graph,
    searched from ``false`` and then from the other predicates in
    first-appearance order, clauses in program order and body atoms left
    to right (see :func:`_walk`)."""
    return frozenset(_walk(program, (FALSE_PRED, *program.arities))[1])


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def _format_side(terms: list[tuple[Fraction, str]], const: Fraction) -> str:
    """``terms``, each with a positive coefficient, and ``const`` summed."""
    side = "+".join(v if c == 1 else f"{c}*{v}" for c, v in terms)
    if const > 0 and side:
        return f"{side}+{const}"
    if const != 0:
        return side + str(const)
    return side or "0"


_FLIP = {Rel.GE: "=<", Rel.GT: "<", Rel.EQ: "="}


def format_atomic(a: AtomicConstraint) -> str:
    """Render ``expr REL 0`` with positive terms on the left.

    Examples: ``A=<99``, ``C=A+1``, ``A+B>=2``.
    """
    pos = [(c, v) for v, c in a.expr.coeffs if c > 0]
    neg = [(-c, v) for v, c in a.expr.coeffs if c < 0]
    k = a.expr.const
    if pos:
        return f"{_format_side(pos, ZERO)}{a.rel.value}{_format_side(neg, -k)}"
    # Only negative terms: present them on the left with a flipped relation.
    return f"{_format_side(neg, ZERO)}{_FLIP[a.rel]}{_format_side([], k)}"


def format_atomic_bracketed(a: AtomicConstraint) -> str:
    """Render with explicit coefficients, e.g. ``1*A+ -1*B>=0``."""
    a = a.normalized()
    if a.expr.is_const:
        return format_atomic(a)
    parts: list[str] = []
    for v, c in a.expr.coeffs:
        t = f"{c}*{v}"
        if parts:
            parts.append("+ " if t.startswith("-") else "+")
        parts.append(t)
    rhs = -a.expr.const
    sep = " " if rhs < 0 else ""
    return f"{''.join(parts)}{a.rel.value}{sep}{rhs}"


def format_atom(atom: Atom) -> str:
    if not atom.args:
        return atom.pred
    return f"{atom.pred}({','.join(atom.args)})"


def format_clause(c: Clause) -> str:
    items = [format_atomic(a) for a in c.constr] + [format_atom(b) for b in c.body]
    if not items:
        return f"{format_atom(c.head)}."
    return f"{format_atom(c.head)} :- {', '.join(items)}."


def print_program(program: Program) -> str:
    """Program text that re-parses to a structurally identical program."""
    return "".join(format_clause(c) + "\n" for c in program.clauses)
