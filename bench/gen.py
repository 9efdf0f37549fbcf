"""Workload generators for the verification benchmark.

Everything here is independent of ``hornchain``: programs are built in a
small clause representation of their own, printed as CHC text, and, where a
violating run is known, checked by replaying it with ``Fraction`` arithmetic.

A workload is a fixed corpus of program *structures*, drawn from a pinned
corpus seed, and an *instance* of it drawn from the run seed.  The instance
multiplies every constant of a program by a factor ``k`` and shuffles the
order of the programs.  Scaling constants by ``k > 0`` maps every solution
``x`` of every clause to ``k * x``, so verdicts and the shape of every model
are kept while the program text changes.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction

# Constants of a program instance are multiplied by one of these.  Primes
# above 100 share no factor with the coefficients that occur, so every
# constraint normalizes the same way and the work done (call counts and
# iteration counts) is that of the unscaled program.
SCALES = (1, 101, 103, 107, 109, 113, 127)


@dataclass(frozen=True)
class Lin:
    """``sum(c * v for v, c in coeffs) + const REL 0`` with REL in >=, >, =."""

    coeffs: tuple[tuple[str, int], ...]
    const: int
    rel: str

    def holds(self, env: dict[str, Fraction]) -> bool:
        value = sum(Fraction(c) * env[v] for v, c in self.coeffs) + self.const
        if self.rel == ">=":
            return value >= 0
        if self.rel == ">":
            return value > 0
        return value == 0

    def text(self) -> str:
        out = ""
        for v, c in self.coeffs:
            sign = "-" if c < 0 else ("+" if out else "")
            mag = abs(c)
            out += f"{sign}{v}" if mag == 1 else f"{sign}{mag}*{v}"
        if self.const:
            out += f"{self.const:+d}" if out else str(self.const)
        return f"{out or 0}{self.rel}0"


def lin(rel: str, const: int, **coeffs: int) -> Lin:
    return Lin(tuple((v, c) for v, c in coeffs.items() if c), const, rel)


def eq_shift(dst: str, src: str, delta: int) -> Lin:
    """``dst = src + delta``."""
    return Lin(((dst, 1), (src, -1)), -delta, "=")


@dataclass(frozen=True)
class Clause:
    head: tuple[str, tuple[str, ...]]
    cons: tuple[Lin, ...]
    body: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def text(self) -> str:
        items = [c.text() for c in self.cons] + [_atom_text(a) for a in self.body]
        head = _atom_text(self.head)
        return f"{head} :- {', '.join(items)}." if items else f"{head}."


def _atom_text(atom: tuple[str, tuple[str, ...]]) -> str:
    pred, args = atom
    return f"{pred}({','.join(args)})" if args else pred


# One step of a derivation: the clause used and values for all its variables.
Step = tuple[int, dict[str, Fraction]]


@dataclass(frozen=True)
class Case:
    """One generated program with what the generator knows about it."""

    name: str
    clauses: tuple[Clause, ...]
    witness: tuple[Step, ...] | None = None   # a derivation of ``false``

    def text(self) -> str:
        return "".join(c.text() + "\n" for c in self.clauses)


def replay(case: Case) -> bool:
    """True iff the witness is a derivation of ``false`` in the program.

    Each step must satisfy every constraint of its clause and use only facts
    derived by earlier steps; the last step must derive ``false``.
    """
    facts: set[tuple[str, tuple[Fraction, ...]]] = set()
    derived_false = False
    for idx, env in case.witness or ():
        clause = case.clauses[idx]
        if not all(c.holds(env) for c in clause.cons):
            return False
        for pred, args in clause.body:
            if (pred, tuple(env[a] for a in args)) not in facts:
                return False
        pred, args = clause.head
        facts.add((pred, tuple(env[a] for a in args)))
        derived_false = pred == "false"
    return derived_false


# ---------------------------------------------------------------------------
# random-small: drawn like the repository's random test programs
# ---------------------------------------------------------------------------

_PREDS = ("p", "q", "r", "s")
_HEAD_ARGS = ("A", "B", "C")
_EXTRA = ("X", "Y")


def _random_lin(rng: random.Random, pool: list[str], k: int) -> Lin:
    nvars = rng.randint(1, min(2, len(pool)))
    coeffs = {v: rng.choice((-2, -1, 1, 2)) for v in rng.sample(pool, nvars)}
    const = rng.randint(-10, 10) * k
    rel = rng.choice((">=", ">=", ">=", ">=", "=", ">"))
    return Lin(tuple(coeffs.items()), const, rel)


def random_small(rng: random.Random, k: int, name: str) -> Case:
    """At most 4 predicates of arity <= 3, 2-6 clauses plus one goal clause."""
    preds = list(_PREDS[: rng.randint(1, 4)])
    arity = {p: rng.randint(0, 3) for p in preds}
    clauses = []
    for _ in range(rng.randint(2, 6)):
        head = rng.choice(preds)
        args = _HEAD_ARGS[: arity[head]]
        pool = list(args) + list(_EXTRA)
        body = tuple(
            (bp, tuple(rng.choice(pool) for _ in range(arity[bp])))
            for bp in (rng.choice(preds) for _ in range(rng.randint(0, 2)))
        )
        cons = tuple(_random_lin(rng, pool, k) for _ in range(rng.randint(0, 2)))
        clauses.append(Clause((head, args), cons, body))
    goal = rng.choice(preds)
    pool = list(_EXTRA) + ["Z"]
    atom = (goal, tuple(rng.choice(pool) for _ in range(arity[goal])))
    cons = tuple(_random_lin(rng, pool, k) for _ in range(rng.randint(0, 2)))
    clauses.append(Clause(("false", ()), cons, (atom,)))
    return Case(name, tuple(clauses))


# ---------------------------------------------------------------------------
# Deterministic programs: a run of states, a final assertion, and mutants
# ---------------------------------------------------------------------------

class _Builder:
    """Collects clauses and the derivation that the single run performs."""

    def __init__(self, names: tuple[str, ...]):
        self.names = names
        self.clauses: list[Clause] = []
        self.steps: list[Step] = []

    def add(self, clause: Clause) -> int:
        self.clauses.append(clause)
        return len(self.clauses) - 1

    def fire(self, idx: int, old: dict[str, Fraction] | None, new: dict[str, Fraction]):
        env = {f"Y{i}": new[v] for i, v in enumerate(self.names)}
        if old is not None:
            env.update({f"X{i}": old[v] for i, v in enumerate(self.names)})
        self.steps.append((idx, env))


def _args(prefix: str, n: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(n))


def _transition(names, src: str, dst: str, guard: tuple[Lin, ...], update: dict) -> Clause:
    """``dst(Y) :- guard(X), Y = update(X), src(X)``.

    ``update`` maps a variable index to ``(source index, delta)``, or to
    ``(None, value)`` for a constant; variables absent from it keep their
    value.
    """
    n = len(names)
    eqs = []
    for i in range(n):
        j, d = update.get(i, (i, 0))
        if j is None:
            eqs.append(lin("=", -d, **{f"Y{i}": 1}))
        else:
            eqs.append(eq_shift(f"Y{i}", f"X{j}", d))
    return Clause((dst, _args("Y", n)), guard + tuple(eqs), ((src, _args("X", n)),))


def _apply(names, state: dict[str, Fraction], update: dict) -> dict[str, Fraction]:
    out = {}
    for i, v in enumerate(names):
        j, d = update.get(i, (i, 0))
        out[v] = Fraction(d) if j is None else state[names[j]] + d
    return out


def _assertion(
    rng: random.Random, b: _Builder, end: str, final: dict, unsafe: bool, k: int,
    guard: tuple[Lin, ...] = (),
):
    """Close the program with ``false :- guard, end(X), <bound on one variable>``.

    The bound excludes the final value (safe) or admits it (unsafe), and the
    run's derivation is extended to ``false`` in the unsafe case.
    """
    n = len(b.names)
    i = rng.randrange(n)
    value = final[b.names[i]]
    gap = rng.randint(1, 3) * k
    upper = rng.random() < 0.5
    if upper:   # false if X_i >= bound
        bound = value if unsafe else value + gap
        cons = (lin(">=", -int(bound), **{f"X{i}": 1}),)
    else:       # false if X_i =< bound
        bound = value if unsafe else value - gap
        cons = (lin(">=", int(bound), **{f"X{i}": -1}),)
    idx = b.add(Clause(("false", ()), guard + cons, ((end, _args("X", n)),)))
    if unsafe:
        b.steps.append((idx, {f"X{j}": final[v] for j, v in enumerate(b.names)}))


def loop_program(rng: random.Random, k: int, name: str, unsafe: bool) -> Case:
    """A loop over three counters whose index runs through 2-3 phases.

    ``inv(I, C1, C2)`` starts at fixed values; in phase ``p`` (the index
    between two thresholds) every counter moves by its own per-phase step.
    The reachable states are the single run, and the final assertion bounds
    one counter at the loop exit.  A fourth counter would put the analysis
    at dimension 4, where one hull costs about 0.25 s and one program about
    12 s, too slow for a run of the benchmark.
    """
    names = ("I", "C1", "C2")
    dims = len(names)
    phases = rng.randint(2, 3)
    cuts = sorted(rng.sample(range(3, 30), phases))
    deltas = [
        {i: (i, rng.choice((-1, 0, 1, 1, 2)) * k) for i in range(1, dims)}
        for _ in range(phases)
    ]
    b = _Builder(names)
    init = {v: Fraction(rng.randint(0, 10) * k) for v in names[1:]}
    init["I"] = Fraction(0)
    start = b.add(Clause(
        ("inv", _args("Y", dims)),
        tuple(lin("=", -int(init[v]), **{f"Y{i}": 1}) for i, v in enumerate(names)),
    ))
    b.fire(start, None, init)
    step_ids = []
    for p in range(phases):
        lo = 0 if p == 0 else cuts[p - 1] * k
        guard = (lin(">", cuts[p] * k, X0=-1),)
        if lo:
            guard += (lin(">=", -lo, X0=1),)
        update = dict(deltas[p])
        update[0] = (0, k)
        step_ids.append((b.add(_transition(names, "inv", "inv", guard, update)), update))
    state = dict(init)
    for p in range(phases):
        idx, update = step_ids[p]
        while state["I"] < cuts[p] * k:
            nxt = _apply(names, state, update)
            b.fire(idx, state, nxt)
            state = nxt
    _assertion(rng, b, "inv", state, unsafe, k, (lin(">=", -cuts[-1] * k, X0=1),))
    return Case(name, tuple(b.clauses), tuple(b.steps) if unsafe else None)


def cfg_program(rng: random.Random, k: int, name: str, unsafe: bool) -> Case:
    """A chain of straight-line blocks, two-way branches and counting loops.

    Block ``bN`` holds the state after the N-th block.  Every transition
    copies the variables it does not change, so clause constraints are long
    and mostly equalities.  Branch guards and loop bounds are decided by the
    (deterministic) state, so the reachable states are again one run.
    """
    nvars = 3
    names = tuple(f"V{i}" for i in range(nvars))
    b = _Builder(names)
    state = {v: Fraction(rng.randint(0, 9) * k) for v in names}
    start = b.add(Clause(
        ("b0", _args("Y", nvars)),
        tuple(lin("=", -int(state[v]), **{f"Y{i}": 1}) for i, v in enumerate(names)),
    ))
    b.fire(start, None, state)
    kinds = ["line"] * rng.randint(14, 30) + ["branch"] * rng.randint(1, 3)
    kinds += ["loop"] * rng.randint(1, 2)
    rng.shuffle(kinds)
    block = 0

    def step_update() -> dict:
        i = rng.randrange(nvars)
        if rng.random() < 0.3:   # copy another variable, plus a constant
            return {i: (rng.randrange(nvars), rng.randint(-3, 3) * k)}
        return {i: (i, rng.choice((-2, -1, 1, 2, 3)) * k)}

    def go(src: str, dst: str, guard: tuple[Lin, ...], update: dict):
        idx = b.add(_transition(names, src, dst, guard, update))
        nxt = _apply(names, state, update)
        return idx, nxt

    for kind in kinds:
        src, dst = f"b{block}", f"b{block + 1}"
        if kind == "line":
            idx, nxt = go(src, dst, (), step_update())
            b.fire(idx, state, nxt)
            state = nxt
        elif kind == "branch":
            i = rng.randrange(nvars)
            cut = int(state[names[i]]) + rng.choice((-1, 1)) * rng.randint(0, 2) * k
            then_, else_ = f"{dst}t", f"{dst}e"
            taken = None
            for arm, guard in (
                (then_, (lin(">=", -cut, **{f"X{i}": 1}),)),
                (else_, (lin(">", cut, **{f"X{i}": -1}),)),
            ):
                idx, nxt = go(src, arm, guard, step_update())
                env = {f"X{j}": state[v] for j, v in enumerate(names)}
                if all(c.holds(env) for c in guard):
                    taken = (idx, nxt, arm)
            idx, nxt, arm = taken
            b.fire(idx, state, nxt)
            state = nxt
            for arm2 in (then_, else_):
                jdx, joined = go(arm2, dst, (), step_update() if rng.random() < 0.5 else {})
                if arm2 == arm:
                    b.fire(jdx, state, joined)
                    after = joined
            state = after
        else:
            c = rng.randrange(nvars)
            bound = rng.randint(2, 12) * k
            head = f"{dst}h"
            idx, nxt = go(src, head, (), {c: (None, 0)})
            b.fire(idx, state, nxt)
            state = nxt
            upd = {c: (c, k)}
            other = rng.choice([j for j in range(nvars) if j != c])
            upd[other] = (other, rng.choice((-1, 1, 2)) * k)
            body_id = b.add(_transition(
                names, head, head, (lin(">", bound, **{f"X{c}": -1}),), upd
            ))
            while state[names[c]] < bound:
                nxt = _apply(names, state, upd)
                b.fire(body_id, state, nxt)
                state = nxt
            idx, nxt = go(head, dst, (lin(">=", -bound, **{f"X{c}": 1}),), {})
            b.fire(idx, state, nxt)
            state = nxt
        block += 1
    _assertion(rng, b, f"b{block}", state, unsafe, k)
    return Case(name, tuple(b.clauses), tuple(b.steps) if unsafe else None)


# The paper's worked example (backward encoding), and the same with every
# constant multiplied by 100.
_TWOPHASE = (
    "new6(A,B) :- B=<{99}.\n"
    "new5(A,B) :- B>={101}.\n"
    "new5(A,B) :- B=<{100}, new6(A,B).\n"
    "new4(A,B) :- C={1}+A, A=<{49}, new3(C,B).\n"
    "new4(A,B) :- C={1}+A, D={1}+B, A>={50}, new3(C,D).\n"
    "new3(A,B) :- A=<{99}, new4(A,B).\n"
    "new3(A,B) :- A>={100}, new5(A,B).\n"
    "false :- A=0, B={50}, new3(A,B).\n"
)


@dataclass(frozen=True)
class TextCase:
    """A program given as text, with no witness."""

    name: str
    body: str
    witness: None = None

    def text(self) -> str:
        return self.body


def twophase(k: int, name: str) -> TextCase:
    return TextCase(name, re.sub(r"\{(\d+)\}", lambda m: str(int(m.group(1)) * k), _TWOPHASE))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

# The corpus seed pins the program structures of every workload.
CORPUS_SEED = 20260815
SIZES = {"random-small": 40, "loops-poly": 12, "cfg-chain": 14}


def structure(workload: str, index: int, k: int):
    """Program ``index`` of a workload, with its constants scaled by ``k``."""
    rng = random.Random(CORPUS_SEED * 1_000_003 + index)
    name = f"{workload}/{index:03d}"
    if workload == "random-small":
        return random_small(rng, k, name)
    if workload == "loops-poly":
        if index == 0:
            return twophase(k, name)
        if index == 1:
            return twophase(100 * k, name)
        # Consecutive indices share a loop: the even one is safe, the odd
        # one its unsafe mutant.
        rng = random.Random(CORPUS_SEED * 1_000_003 + index // 2)
        return loop_program(rng, k, name, unsafe=index % 2 == 1)
    if workload == "cfg-chain":
        rng = random.Random(CORPUS_SEED * 1_000_003 + index // 2)
        return cfg_program(rng, k, name, unsafe=index % 2 == 1)
    raise ValueError(f"unknown workload {workload!r}")


def instance(workload: str, seed: int):
    """The workload's programs for one run seed: scaled, in shuffled order.

    Returns ``(case, k)`` pairs.
    """
    rng = random.Random(seed)
    order = list(range(SIZES[workload]))
    rng.shuffle(order)
    out = []
    for index in order:
        k = rng.choice(SCALES)
        out.append((structure(workload, index, k), k))
    return out
