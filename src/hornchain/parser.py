"""Parser for the Prolog-style CHC text format.

Syntax, one clause per ``.``-terminated statement::

    false :- A=0, B=50, new3(A,B).
    new3(A,B) :- A=<99, new4(A,B).
    new4(A,B) :- C is 1+A, A=<49, new3(C,B).
    p(0).

Variables start with an upper-case letter or ``_``, predicates with a
lower-case letter.  Constraints relate linear rational expressions with
``=<``, ``<``, ``>=``, ``>``, ``=`` or ``is`` (a synonym for ``=``).
``%`` starts a comment running to the end of the line.  Atom arguments may
be arbitrary linear expressions; normalization lifts them out.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .chc import (
    AtomicConstraint,
    ChcError,
    Clause,
    LinExpr,
    Program,
    RawAtom,
    RawClause,
    Rel,
    normalize_clause,
)


class ParseError(ChcError):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class NonlinearTermError(ParseError):
    """A product or quotient of expressions that is not linear."""


# One alternative per token kind, tried in order.  ``skip`` is whitespace
# and comments.  ``dec`` is a decimal literal such as ``0.5``, which the
# parser refuses where it meets it; ``X >= 0.`` before a newline or the end
# of the text is an integer and a full stop.  ASCII words are classified by
# the pattern; a word starting with any other letter is ``word`` and is
# classified by ``str.isalpha`` and ``str.isupper`` (``\w`` also takes
# digits such as ``²`` that ``str.isalpha`` refuses).  ``bad`` is any other
# character.
_TOKEN = re.compile(
    r"""
    (?P<skip>[ \t\r\n]+|%[^\n]*)
  | (?P<op>:-|=<|>=|[,.()+\-*/<>=])
  | (?P<dec>[0-9]+\.[0-9]+)
  | (?P<int>[0-9]+)
  | (?P<var>[A-Z_]\w*)
  | (?P<ident>[a-z]\w*)
  | (?P<word>\w+)
  | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)

# A token is ``(kind, text, offset)``; kinds are ``op``, ``dec``, ``int``,
# ``var``, ``ident`` and ``eof``.  Punctuation is the text of ``op`` tokens
# alone, so the parser tests a token's text without its kind.
Token = tuple[str, str, int]

# Parentheses and unary minus nested deeper than this are rejected.  Each
# level costs the recursive descent up to three Python frames, so the limit
# keeps a parse well inside the interpreter's default recursion limit.
_MAX_NESTING = 100


def _position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based line and column of ``offset``; every character, a tab or
    ``\r`` included, is one column."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "skip":
            continue
        if kind == "word" or kind == "bad":
            ch = text[m.start()]
            if not ch.isalpha():
                raise ParseError(f"unexpected character {ch!r}", *_position(text, m.start()))
            kind = "var" if ch.isupper() else "ident"
        append((kind, m.group(), m.start()))
    # A comment that runs to the end of the text ends it where it starts.
    last = text.find("%", text.rfind("\n") + 1)
    append(("eof", "", len(text) if last < 0 else last))
    return tokens


def _linexpr(acc: dict[str, Fraction | int], sign: int = 1) -> LinExpr:
    """The expression summed in ``acc`` (the constant under ``""``), times ``sign``."""
    const = acc.pop("", 0)
    if sign < 0:
        acc = {v: -c for v, c in acc.items()}
        const = -const
    return LinExpr.build(acc, const)


def _is_const(term: dict[str, Fraction | int]) -> bool:
    return not any(c for v, c in term.items() if v)


class _Parser:
    """Recursive descent over the token list.

    An expression is summed in one pass: every term adds its coefficients
    into one dict that maps each variable, and ``""`` for the constant, to
    its coefficient, and each atom argument and atomic constraint becomes
    one ``LinExpr``.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0

    def error(self, message: str, tok: Token, kind: type = ParseError) -> ParseError:
        return kind(message, *_position(self.text, tok[2]))

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok[1] != text:
            raise self.error(f"expected {text!r}, found {tok[1]!r}", tok)
        return tok

    # -- expressions --------------------------------------------------------

    def parse_expr(self, acc: dict[str, Fraction | int], k: int) -> None:
        """Add ``k`` times the expression at the cursor into ``acc``."""
        self.add_term(acc, k)
        tokens = self.tokens
        while True:
            text = tokens[self.pos][1]
            if text != "+" and text != "-":
                return
            self.pos += 1
            self.add_term(acc, k if text == "+" else -k)

    def add_term(self, acc: dict[str, Fraction | int], k: int) -> None:
        """Add ``k`` times the term at the cursor into ``acc``."""
        tokens = self.tokens
        kind, text, _ = tokens[self.pos]
        if (kind == "var" or kind == "int") and tokens[self.pos + 1][1] not in ("*", "/"):
            # A lone variable or literal, the common term, needs no term dict.
            key, c = (text, k) if kind == "var" else ("", k * self.literal())
            acc[key] = acc.get(key, 0) + c
            self.pos += 1
            return
        term = self.parse_factor()
        while True:
            tok = tokens[self.pos]
            if tok[1] != "*" and tok[1] != "/":
                break
            self.pos += 1
            rhs = self.parse_factor()
            if tok[1] == "*":
                if not _is_const(term) and not _is_const(rhs):
                    raise self.error(
                        "nonlinear term: product of two non-constant expressions",
                        tok,
                        NonlinearTermError,
                    )
                if _is_const(term):
                    term, rhs = rhs, term
                f = rhs.get("", 0)
            else:
                if not _is_const(rhs):
                    raise self.error(
                        "nonlinear term: division by a non-constant expression",
                        tok,
                        NonlinearTermError,
                    )
                f = rhs.get("", 0)
                if f == 0:
                    raise self.error("division by zero", tok)
                f = Fraction(1) / f
            term = {v: c * f for v, c in term.items()}
        for v, c in term.items():
            acc[v] = acc.get(v, 0) + k * c

    def parse_factor(self) -> dict[str, Fraction | int]:
        tok = self.tokens[self.pos]
        kind, text, _ = tok
        if text == "-" or text == "(":
            if self.depth == _MAX_NESTING:
                raise self.error(f"expression nested more than {_MAX_NESTING} levels deep", tok)
            self.pos += 1
            self.depth += 1
            if text == "-":
                term = {v: -c for v, c in self.parse_factor().items()}
            else:
                term = {}
                self.parse_expr(term, 1)
                self.expect(")")
            self.depth -= 1
            return term
        if kind == "int":
            value = self.literal()
            self.pos += 1
            return {"": value}
        if kind == "dec":
            try:
                value = Fraction(text)
            except ValueError:  # longer than the interpreter converts
                raise self.error(
                    f"decimal literal of {len(text)} characters is too long", tok
                ) from None
            raise self.error(f"decimal literal {text} is not supported; write {value}", tok)
        if kind == "var":
            self.pos += 1
            return {text: 1}
        if kind == "ident":
            raise self.error(
                f"unexpected {text!r} in expression (function symbols are not supported)", tok
            )
        raise self.error(f"expected an expression, found {text!r}", tok)

    def literal(self) -> int:
        """The integer literal at the cursor."""
        tok = self.tokens[self.pos]
        try:
            return int(tok[1])
        except ValueError:  # longer than the interpreter converts
            raise self.error(f"integer literal of {len(tok[1])} digits is too long", tok) from None

    # -- constraints and atoms ----------------------------------------------

    _RELS = {
        "=<": (Rel.GE, True),
        "<": (Rel.GT, True),
        ">=": (Rel.GE, False),
        ">": (Rel.GT, False),
        "=": (Rel.EQ, False),
        "is": (Rel.EQ, False),
    }

    def parse_atomic(self) -> AtomicConstraint:
        acc: dict[str, Fraction | int] = {}
        self.parse_expr(acc, 1)
        tok = self.next()
        entry = self._RELS.get(tok[1])
        if entry is None:
            raise self.error(
                f"expected a relation (=<, <, >=, >, =, is), found {tok[1]!r}", tok
            )
        rel, flip = entry
        self.parse_expr(acc, -1)
        # ``a =< b`` / ``a < b`` store ``b - a REL 0``; the rest ``a - b REL 0``.
        return AtomicConstraint(_linexpr(acc, -1 if flip else 1), rel)

    def parse_item(self) -> RawAtom | AtomicConstraint:
        if self.peek()[0] == "ident":
            return self.parse_atom()
        return self.parse_atomic()

    def parse_atom(self) -> RawAtom:
        tok = self.next()  # a predicate name: parse_item saw an identifier
        args: list[LinExpr] = []
        if self.peek()[1] == "(":
            self.next()
            tokens = self.tokens
            while True:
                kind, text, _ = tokens[self.pos]
                if kind == "var" and tokens[self.pos + 1][1] in (",", ")"):
                    args.append(LinExpr.var(text))  # a bare variable, the common argument
                    self.pos += 1
                else:
                    acc: dict[str, Fraction | int] = {}
                    self.parse_expr(acc, 1)
                    args.append(_linexpr(acc))
                if self.peek()[1] != ",":
                    break
                self.next()
            self.expect(")")
        return RawAtom(tok[1], tuple(args))

    def parse_clause(self) -> RawClause:
        head = self.parse_item()
        items: list[RawAtom | AtomicConstraint] = []
        tok = self.next()
        if tok[1] == ":-":
            items.append(self.parse_item())
            while self.peek()[1] == ",":
                self.next()
                items.append(self.parse_item())
            tok = self.next()
        if tok[1] != ".":
            raise self.error(f"expected '.', found {tok[1]!r}", tok)
        return RawClause(head, tuple(items))

    def parse_program(self) -> list[RawClause]:
        clauses = []
        while self.peek()[0] != "eof":
            clauses.append(self.parse_clause())
        return clauses


def parse_program(text: str) -> Program:
    """Parse and normalize a CHC program."""
    clauses: list[Clause] = []
    for raw in _Parser(text).parse_program():
        clauses.extend(normalize_clause(raw))
    return Program(tuple(clauses))


def parse_constraint(text: str) -> tuple[AtomicConstraint, ...]:
    """Parse a comma-separated conjunction of atomic constraints."""
    parser = _Parser(text)
    if parser.peek()[0] == "eof":
        return ()
    items = [parser.parse_atomic()]
    while parser.peek()[1] == ",":
        parser.next()
        items.append(parser.parse_atomic())
    tok = parser.peek()
    if tok[0] != "eof":
        raise parser.error(f"unexpected trailing input {tok[1]!r}", tok)
    return tuple(items)
