"""Output checks that share no code with ``hornchain``.

``model_digest`` reads the printed model (``pred(A,B) :- [c1,c2,...]`` per
line, as ``format_model`` writes it), divides every constant by the
instance's scale factor, brings each constraint to coprime integers, sorts,
and hashes.  Models of the same program structure at different scales then
share one digest.
"""

from __future__ import annotations

import hashlib
import math
import re
from fractions import Fraction

_TERM = re.compile(r"\s*([+-]?)\s*(-?\d+(?:/\d+)?)\*([A-Za-z_]\w*)")
_REL = re.compile(r"(>=|>|=)")


def _constraint(text: str, k: int) -> str:
    lhs, rel, rhs = _REL.split(text, maxsplit=1)
    coeffs: dict[str, Fraction] = {}
    pos = 0
    while pos < len(lhs):
        m = _TERM.match(lhs, pos)
        if m is None:
            raise ValueError(f"unreadable constraint {text!r}")
        sign = -1 if m.group(1) == "-" else 1
        coeffs[m.group(3)] = coeffs.get(m.group(3), Fraction(0)) + sign * Fraction(m.group(2))
        pos = m.end()
    const = -Fraction(rhs.strip()) / k
    nums = list(coeffs.values()) + [const]
    lcm = math.lcm(*(n.denominator for n in nums))
    ints = [int(n * lcm) for n in nums]
    g = math.gcd(*ints) or 1
    ints = [n // g for n in ints]
    if rel == "=":
        first = next((n for n in ints if n), 1)
        if first < 0:
            ints = [-n for n in ints]
    names = sorted(coeffs)
    ordered = dict(zip(list(coeffs), ints))
    terms = ",".join(f"{ordered[v]}*{v}" for v in names if ordered[v])
    return f"{terms}|{ints[-1]}{rel}"


def model_digest(model_text: str, k: int) -> str:
    """Scale-free digest of a printed model."""
    lines = []
    for line in model_text.splitlines():
        head, _, body = line.partition(" :- ")
        inner = body.strip()[1:-1]
        parts = [p for p in inner.split(",") if p] if inner else []
        # ``[-1>=0]`` is the empty polyhedron; keep it literally.
        cons = sorted(_constraint(p, k) if "*" in p else p for p in parts)
        lines.append(f"{head}:{';'.join(cons)}")
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()[:16]
