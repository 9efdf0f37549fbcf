"""Semantics-preserving program transformations.

Four rewrites, each preserving whether ``false`` (or its image under the
rewrite) is derivable:

* ``raf_filter``      removes argument positions that never influence a
                      derivation, shrinking predicates.
* ``unfold_forward``  inlines calls along non-recursive edges until only
                      calls to recursion targets remain, then discards
                      unreachable definitions.  Each clause carries the
                      projection of its constraint onto its atoms'
                      arguments, which decides each unfolding exactly.
                      A clause made by unfolding stays in flight, its
                      constraint shared segments of source conjuncts, and
                      only the clauses that survive the last discard are
                      built.
* ``query_answer``    specializes the program to the goal: every predicate
                      ``p`` splits into ``p_query`` (may be demanded by the
                      goal) and ``p_ans`` (derivable and demanded).
* ``split_predicates`` case-splits each predicate into variants with
                      mutually unsatisfiable clause groups, so the later
                      polyhedral analysis does not have to join them.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Sequence

from . import lincon
from .chc import (
    FALSE_PRED,
    Atom,
    AtomicConstraint,
    ChcError,
    Clause,
    Constraint,
    LinExpr,
    Program,
    RawAtom,
    Rel,
    _lift,
    _walk,
    backward_targets,
    canonical_arg_names,
)

_UNFOLD_BUDGET = 100_000


# ---------------------------------------------------------------------------
# Unfolding
# ---------------------------------------------------------------------------

# The projection of a clause's constraint onto the arguments of its atoms,
# head and body, as ``lincon`` rows: ``(names, rows)``, where column ``j`` of
# every row holds the coefficient of ``names[j]`` and the last the constant.
# The names are exactly the atom arguments, so renaming a summary renames
# its names alone.  When ``lincon.PROJECT_CAP`` stops the projection, the
# summary keeps the constraint's own rows over all of its variables instead:
# every decision projects a summary again, so rows whose projection onto
# the atom arguments is exact will do.  ``_UNSAT``, the ground row
# ``-1 >= 0``, stands for an unsatisfiable constraint, and None for a
# summary that is never read.
Summary = tuple[tuple[str, ...], tuple[tuple[tuple[int, ...], Rel], ...]] | None
_UNSAT: Summary = ((), (((-1,), Rel.GE),))


def _atom_args(head: Atom, body: Iterable[Atom]) -> set[str]:
    args = set(head.args)
    for b in body:
        args.update(b.args)
    return args


def _project(names: Sequence[str], rows: list, keep: set[str]) -> Summary:
    """The summary that projects ``rows``, laid out over ``names`` in name
    order, onto ``keep``: ``_UNSAT`` when the rows are unsatisfiable, and
    ``rows`` over ``names`` themselves when ``lincon.PROJECT_CAP`` stopped
    an elimination step."""
    kept = [j for j, v in enumerate(names) if v in keep]
    proj, capped = lincon._project_rows(
        *lincon._split(rows), len(names), kept, lincon.PROJECT_CAP
    )
    if proj is None:
        return _UNSAT
    if capped:
        return tuple(names), tuple(rows)
    return tuple([names[j] for j in kept]), tuple(proj)


def _summary(clause: Clause) -> Summary:
    """The clause's summary.

    A clause whose variables are all atom arguments eliminates nothing, so
    when at most one inequality is left once the equalities' pivots are
    substituted out, its own rows are its summary, or ``_UNSAT``, without a
    projection.  Its equalities hold on an affine space whose free columns
    are the non-pivot ones, and the inequality left mentions only those:
    non-ground, or a true ground row, it holds somewhere on that space,
    which is the argument of ``lincon._project_rows``' closing check.
    """
    names = sorted(clause.vars())
    rows = lincon._rows(clause.constr.conjuncts, names)[1]
    keep = _atom_args(clause.head, clause.body)
    if len(keep) == len(names):
        eqs, ineqs = lincon._split(rows)
        if len(ineqs) <= 1:
            solved = lincon._gauss_jordan(eqs)
            if solved is None or lincon._table(lincon._substitute(solved, ineqs)) is None:
                return _UNSAT
            return tuple(names), tuple(rows)
    return _project(names, rows, keep)


def _joint(
    summary: Summary, d_summary: Summary, mapping: dict[str, str], keep: set[str]
) -> Summary:
    """The projection onto ``keep`` of ``summary`` and ``d_summary`` renamed
    by ``mapping``, both moved onto the sorted union of their names by
    ``lincon._moves`` with no pivots; the columns of names that ``mapping``
    merges add up."""
    d_names = [mapping.get(v, v) for v in d_summary[0]]
    names = sorted({*summary[0], *d_names})
    col = {v: j for j, v in enumerate(names)}
    n = len(names)
    rows = []
    for s_names, s_rows in (summary, (d_names, d_summary[1])):
        move = lincon._moves([col[v] for v in s_names], (), n)
        rows += [(lincon._move(move, r, n + 1), rel) for r, rel in s_rows]
    return _project(names, rows, keep)


def _own_segments(conjuncts: tuple[AtomicConstraint, ...]) -> tuple[tuple, dict[str, int]]:
    """``conjuncts`` as the segments of a clause under their own names, and
    the index of the first conjunct that mentions each variable."""
    first: dict[str, int] = {}
    for i, a in enumerate(conjuncts):
        for v, _ in a.expr.coeffs:
            first.setdefault(v, i)
    return ((conjuncts, dict(zip(first, first))),) if conjuncts else (), first


class _Flight:
    """A clause in flight through unfolding; ``built`` makes it a ``Clause``.

    ``head`` and ``body`` are its atoms.  Its constraint is the conjuncts of
    ``segments`` in order: each segment is a tuple of source conjuncts,
    shared with the clause they come from, and the renaming of their
    variables into this clause's names.  ``first`` maps each variable of the
    constraint to the index of the first conjunct that mentions it, and
    ``size`` counts the conjuncts.  ``names`` holds the clause's variables,
    the first ``ordered`` of them in ``Clause.vars()`` order: an input
    clause's ``Clause.vars()``, all ordered, or, for a clause made by
    unfolding, the first ``len(names)`` canonical names, its atom arguments
    ordered.  ``clause`` is the input clause, or the clause once built.
    """

    def __init__(
        self,
        head: Atom,
        body: tuple[Atom, ...],
        segments: tuple[tuple[tuple[AtomicConstraint, ...], dict[str, str]], ...],
        first: dict[str, int],
        size: int,
        names: tuple[str, ...],
        ordered: int,
        clause: Clause | None = None,
    ) -> None:
        self.head = head
        self.body = body
        self.segments = segments
        self.first = first
        self.size = size
        self.names = names
        self.ordered = ordered
        self.clause = clause

    @staticmethod
    def of(clause: Clause) -> "_Flight":
        conjuncts = clause.constr.conjuncts
        segments, first = _own_segments(conjuncts)
        # ``Clause.vars()``: a key keeps its first position.
        names = dict.fromkeys(clause.head.args)
        for b in clause.body:
            names.update(dict.fromkeys(b.args))
        names = tuple({**names, **first})
        return _Flight(
            clause.head, clause.body, segments, first, len(conjuncts), names, len(names), clause
        )

    @cached_property
    def order(self) -> tuple[str, ...]:
        """``Clause.vars()`` of the built clause: the atom arguments, then the
        constraint's other variables by first conjunct, and within one
        conjunct in name order, as its sorted terms give them."""
        k, first = self.ordered, self.first
        return self.names[:k] + tuple(sorted(self.names[k:], key=lambda v: (first[v], v)))

    def built(self) -> Clause:
        if self.clause is None:
            conjuncts = []
            for source, ren in self.segments:
                for a in source:
                    e = a.expr
                    terms = sorted([(ren[v], c) for v, c in e.coeffs])
                    conjuncts.append(AtomicConstraint(LinExpr(tuple(terms), e.const), a.rel))
            self.clause = Clause(self.head, Constraint(tuple(conjuncts)), self.body)
        return self.clause


def _standardize_apart(names: Iterable[str], taken: set[str]) -> dict[str, str]:
    """A renaming of ``names`` onto names outside ``taken``, in their order:
    each name already used becomes the first of ``V0``, ``V1``, ... not
    used yet (see ``fresh_name``), and the names used only grow."""
    mapping = {}
    used = set(taken)
    i = 0
    for v in names:
        if v in used:
            while f"V{i}" in used:
                i += 1
            mapping[v] = w = f"V{i}"
            used.add(w)
        else:
            used.add(v)
    return mapping


def _unfold_with_defs(
    clause: _Flight, summary: Summary, at: int, defs: Sequence[tuple[_Flight, Summary]]
) -> list[tuple[_Flight, Summary]]:
    """Replace the body atom at position ``at`` by each of its definitions.

    ``defs`` pairs each definition with its summary, and so does the result
    for each satisfiable unfolding.  Standardized apart, the clause and a
    definition share only the call's arguments, which are atom arguments of
    both.  So existential quantification over every other variable
    distributes over the conjunction: the summary of the unfolding is the
    projection of the two summaries onto its own atom arguments, and it is
    ``_UNSAT`` exactly when the unfolding is unsatisfiable.

    An unfolding is named as renaming the clause with the definition's
    constraint conjoined to A, B, C, ... by first occurrence would name it,
    without walking either constraint: the atom arguments first, then the
    clause's constraint variables not yet named, by (first conjunct, name),
    then the definition's, by (first conjunct, name once standardized
    apart), which is the order of first occurrence in the conjoined
    constraint, whose terms are sorted by name.  The new clause's segments
    are the clause's and the definition's with their renamings composed,
    so no conjunct is built until a clause is.
    """
    call = clause.body[at]
    taken = set(clause.names)
    distinct = len(set(call.args)) == len(call.args)
    offset = clause.size
    out: list[tuple[_Flight, Summary]] = []
    for d, d_summary in defs:
        # Bind the fresh head parameters to the call's arguments; head
        # parameters are pairwise distinct, so the binding is a renaming too.
        mapping = _standardize_apart(d.order, taken)
        mapping.update(zip(d.head.args, call.args))
        body = (
            clause.body[:at]
            + tuple(b.rename(mapping) for b in d.body)
            + clause.body[at + 1 :]
        )
        keep = _atom_args(clause.head, body)
        new_summary = _joint(summary, d_summary, mapping, keep)
        if new_summary is _UNSAT:
            continue
        link, segments, first = mapping, d.segments, d.first
        if not distinct:
            # A repeated call argument makes the binding merge variables,
            # whose terms can cancel, so the definition's constraint is
            # renamed on its own first.
            merged = tuple([
                a.rename({v: mapping.get(w, w) for v, w in ren.items()})
                for source, ren in segments
                for a in source
            ])
            link = {}
            segments, first = _own_segments(merged)
        named = dict.fromkeys(clause.head.args)
        for atom in body:
            named.update(dict.fromkeys(atom.args))
        ordered = len(named)
        late = sorted([(i, v) for v, i in clause.first.items() if v not in named])
        named.update(dict.fromkeys([v for _, v in late]))
        late = sorted([(i, w) for v, i in first.items() if (w := link.get(v, v)) not in named])
        named.update(dict.fromkeys([w for _, w in late]))
        names = canonical_arg_names(len(named))
        canon = dict(zip(named, names))
        new_first = {canon[v]: i for v, i in clause.first.items()}
        for v, i in first.items():
            new_first.setdefault(canon[link.get(v, v)], offset + i)
        unfolded = _Flight(
            clause.head.rename(canon),
            tuple([b.rename(canon) for b in body]),
            tuple(
                [(s, {v: canon[w] for v, w in ren.items()}) for s, ren in clause.segments]
                + [(s, {v: canon[link.get(w, w)] for v, w in ren.items()}) for s, ren in segments]
            ),
            new_first,
            offset + d.size,
            names,
            ordered,
        )
        if set(new_summary[0]) <= keep:
            new_summary = (tuple([canon[v] for v in new_summary[0]]), new_summary[1])
        else:
            # A capped joint keeps names that the unfolding may have dropped.
            new_summary = _summary(unfolded.built())
        out.append((unfolded, new_summary))
    return out


def unfold_clause(program: Program, clause: Clause, at: int) -> Program:
    """Unfold one body atom of one clause, replacing the clause in place.

    ``clause`` is located by structural equality (first occurrence).  The
    replacement clauses take its position; those with unsatisfiable
    constraints are dropped.
    """
    try:
        idx = program.clauses.index(clause)
    except ValueError:
        raise ChcError("clause to unfold is not part of the program") from None
    if not 0 <= at < len(clause.body):
        raise ChcError(f"clause has no body atom at position {at}")
    defs = [(_Flight.of(d), _summary(d)) for d in program.clauses_for(clause.body[at].pred)]
    unfolded = _unfold_with_defs(_Flight.of(clause), _summary(clause), at, defs)
    reps = tuple([f.built() for f, _ in unfolded])
    return Program(program.clauses[:idx] + reps + program.clauses[idx + 1 :])


def _reached(program: Program, root: str) -> set[str]:
    """The predicates that ``root`` depends on, itself included."""
    return {p for comp in _walk(program, (root,))[0] for p in comp}


def _drop_unreachable(program: Program, root: str) -> Program:
    """Keep the clauses of the predicates that ``root`` depends on."""
    seen = _reached(program, root)
    return Program(tuple(c for c in program.clauses if c.head.pred in seen))


def unfold_forward(program: Program, goal_pred: str = FALSE_PRED) -> Program:
    """Inline every call that is not a target of a backward edge.

    Backward edges are determined once, on the input program's dependency
    graph; the unfolding then repeatedly rewrites the first offending call
    (scanning clauses top to bottom, body atoms left to right) with the
    current definitions of its predicate.  Definitions unreachable from the
    goal are discarded before and after.

    Each clause carries its summary, the exact projection of its constraint
    onto the arguments of its atoms, and each unfolding is decided by one
    small projection of two summaries, which is also the new clause's
    summary (see :func:`_unfold_with_defs`).  So the accumulated constraint
    is never decided again, and it is not even built while the unfolding
    runs: an input clause takes flight (:class:`_Flight`) when an unfolding
    first reads it, a clause made by unfolding stays in flight, and only
    the clauses that survive the last discard are built.  They keep the
    constraints of a plain unfolding; only the decision is made on
    summaries.
    """
    program = _drop_unreachable(program, goal_pred)
    targets = backward_targets(program)
    # Only unfolded clauses and definitions of non-targets have their summary
    # read, so a target's clause that calls only targets gets none.
    clauses: list[tuple[Clause | _Flight, Summary]] = [
        (c, None if {c.head.pred, *(b.pred for b in c.body)} <= targets else _summary(c))
        for c in program.clauses
    ]
    steps = 0
    i = 0
    while i < len(clauses):
        c, summary = clauses[i]
        at = next((k for k, b in enumerate(c.body) if b.pred not in targets), None)
        if at is None:
            i += 1
            continue
        pred = c.body[at].pred
        defs = []
        for k, (d, d_summary) in enumerate(clauses):
            if d.head.pred == pred:
                if isinstance(d, Clause):
                    d = _Flight.of(d)
                    clauses[k] = (d, d_summary)
                defs.append((d, d_summary))
        flight = c if isinstance(c, _Flight) else _Flight.of(c)
        clauses[i : i + 1] = _unfold_with_defs(flight, summary, at, defs)
        steps += 1
        if steps > _UNFOLD_BUDGET:
            raise ChcError("unfolding exceeded its rewrite budget")
    # The last discard reads the atoms alone.
    skeleton = [c if isinstance(c, Clause) else Clause(c.head, body=c.body) for c, _ in clauses]
    seen = _reached(Program(tuple(skeleton)), goal_pred)
    return Program(tuple([
        c.built() if isinstance(c, _Flight) else c for c, _ in clauses if c.head.pred in seen
    ]))


# ---------------------------------------------------------------------------
# Redundant argument filtering
# ---------------------------------------------------------------------------

def raf_filter(program: Program, goal_pred: str = FALSE_PRED) -> Program:
    """Drop argument positions that cannot influence any derivation.

    A position (p, i) is erasable when, in every clause defining p, the
    i-th head argument variable occurs neither in the constraint nor at any
    non-erasable body position.  The set of erasable positions is the
    greatest fixpoint of that condition; goal positions are never erased.
    """
    erasable = {
        (p, i)
        for p, n in program.arities.items()
        if p != goal_pred
        for i in range(n)
    }
    changed = True
    while changed:
        changed = False
        for c in program.clauses:
            constr_vars = set(c.constr.vars())
            for i, v in enumerate(c.head.args):
                if (c.head.pred, i) not in erasable:
                    continue
                used = v in constr_vars or any(
                    w == v and (b.pred, j) not in erasable
                    for b in c.body
                    for j, w in enumerate(b.args)
                )
                if used:
                    erasable.discard((c.head.pred, i))
                    changed = True

    if not erasable:
        return program

    def filt(atom: Atom) -> Atom:
        args = tuple(
            a for i, a in enumerate(atom.args) if (atom.pred, i) not in erasable
        )
        return Atom(atom.pred, args)

    return Program(
        tuple(
            Clause(filt(c.head), c.constr, tuple(filt(b) for b in c.body))
            for c in program.clauses
        )
    )


# ---------------------------------------------------------------------------
# Query-answer transformation
# ---------------------------------------------------------------------------

def query_pred(pred: str, program: Program | None = None) -> str:
    return _qa_name(pred, "_query", program)


def answer_pred(pred: str, program: Program | None = None) -> str:
    return _qa_name(pred, "_ans", program)


def _qa_name(pred: str, suffix: str, program: Program | None) -> str:
    name = pred + suffix
    if program is not None:
        while name in program.arities:
            name += "_"
    return name


def query_answer(program: Program, goal_pred: str = FALSE_PRED) -> Program:
    """Specialize the program with respect to the goal.

    For every clause ``H :- C, B1, ..., Bk`` the result contains the answer
    clause ``H_ans :- C, H_query, B1_ans, ..., Bk_ans`` and, for each i, the
    query clause ``Bi_query :- C, H_query, B1_ans, ..., B(i-1)_ans``.  The
    goal's query is seeded unconditionally.  Derivability of the goal is
    preserved: ``goal_ans`` is derivable iff the goal was.
    """
    q = {p: query_pred(p, program) for p in program.arities}
    a = {p: answer_pred(p, program) for p in program.arities}
    goal_arity = program.arities.get(goal_pred, 0)
    q.setdefault(goal_pred, query_pred(goal_pred, program))

    out: list[Clause] = []
    for c in program.clauses:
        head = Atom(a[c.head.pred], c.head.args)
        body = (Atom(q[c.head.pred], c.head.args),) + tuple(
            Atom(a[b.pred], b.args) for b in c.body
        )
        out.append(Clause(head, c.constr, body).with_canonical_vars())
    for c in program.clauses:
        for i, b in enumerate(c.body):
            # Call arguments need not be distinct; head arguments must be.
            call = RawAtom(q[b.pred], tuple([LinExpr.var(v) for v in b.args]))
            head, eqs = _lift(call, set(c.vars()), set())
            body = (Atom(q[c.head.pred], c.head.args),) + tuple(
                Atom(a[c.body[j].pred], c.body[j].args) for j in range(i)
            )
            constr = Constraint(c.constr.conjuncts + tuple(eqs))
            out.append(Clause(head, constr, body).with_canonical_vars())
    seed_args = canonical_arg_names(goal_arity)
    out.append(Clause(Atom(q[goal_pred], seed_args)))
    return Program(tuple(out))


# ---------------------------------------------------------------------------
# Predicate splitting
# ---------------------------------------------------------------------------

def split_predicates(program: Program, goal_pred: str = FALSE_PRED) -> Program:
    """Split each predicate into variants with disjoint clause groups.

    Clauses of a predicate are partitioned into the finest blocks such that
    clauses whose head-projected constraints overlap land in the same block
    (transitively).  Block j of predicate p defines ``p___j`` (1-based, in
    order of first clause appearance), and every call site is expanded to
    the disjunction over the variants, i.e. one clause per combination.
    The goal predicate and ``false`` keep their name and single variant.

    Overlaps are decided on each clause's prepared rows (``Clause.rows``):
    its projection onto the head's canonical columns is the capped step
    from no body rows that the rows keep (``lincon._Prepared.top``, shared
    with the harvest and the analysis), None when the constraint is
    unsatisfiable, and two projections overlap when
    ``lincon._project_rows`` of both onto no columns finds them jointly
    satisfiable; a predicate with one clause projects nothing.  A capped
    step only widens a projection, so it can only merge blocks, and any
    blocks keep every derivation.  A variant differs from its source in
    predicate names only and shares its rows.
    """
    variants: dict[str, list[str]] = {}
    block_of: dict[int, str] = {}  # clause index -> variant name
    for pred in program.arities:
        idxs = [i for i, c in enumerate(program.clauses) if c.head.pred == pred]
        if pred in (goal_pred, FALSE_PRED):
            for i in idxs:
                block_of[i] = pred
            variants[pred] = [pred]
            continue
        projs: dict[int, tuple | None] = {}
        if len(idxs) > 1:  # only pairs of clauses read projections
            projs = {i: program.clauses[i].rows.top for i in idxs}
        parent = {i: i for i in idxs}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in itertools.combinations(idxs, 2):
            if find(i) == find(j) or projs[i] is None or projs[j] is None:
                continue
            joint, _ = lincon._project_rows(
                *lincon._split(projs[i] + projs[j]), program.arities[pred], (), lincon.PROJECT_CAP
            )
            if joint is not None:
                parent[find(i)] = find(j)
        blocks: dict[int, list[int]] = {}
        for i in idxs:
            blocks.setdefault(find(i), []).append(i)
        ordered = sorted(blocks.values(), key=min)
        names = [f"{pred}___{k + 1}" for k in range(len(ordered))]
        for name, members in zip(names, ordered):
            for i in members:
                block_of[i] = name
        variants[pred] = names

    out: list[Clause] = []
    for i, c in enumerate(program.clauses):
        choice_lists = [variants.get(b.pred, []) for b in c.body]
        for combo in itertools.product(*choice_lists):
            out.append(c.with_preds(block_of[i], combo))
    return Program(tuple(out))
