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

from dataclasses import dataclass
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


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


_PUNCT = (":-", "=<", ">=", ",", ".", "(", ")", "+", "-", "*", "/", "<", ">", "=")

# Parentheses and unary minus nested deeper than this are rejected.  Each
# level costs the recursive descent up to three Python frames, so the limit
# keeps a parse well inside the interpreter's default recursion limit.
_MAX_NESTING = 100


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
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
                tokens.append(Token("op", op, line, start_col))
                i += len(op)
                col += len(op)
                break
        else:
            if "0" <= ch <= "9":
                j = i
                while j < n and "0" <= text[j] <= "9":
                    j += 1
                tokens.append(Token("int", text[i:j], line, start_col))
                col += j - i
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                word = text[i:j]
                kind = "var" if ch.isupper() or ch == "_" else "ident"
                tokens.append(Token(kind, word, line, start_col))
                col += j - i
                i = j
            else:
                raise ParseError(f"unexpected character {ch!r}", line, start_col)
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text or tok.kind not in ("op", "ident"):
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    # -- expressions --------------------------------------------------------

    def parse_expr(self) -> LinExpr:
        expr = self.parse_term()
        while self.peek().text in ("+", "-") and self.peek().kind == "op":
            op = self.next().text
            rhs = self.parse_term()
            expr = expr + rhs if op == "+" else expr - rhs
        return expr

    def parse_term(self) -> LinExpr:
        expr = self.parse_factor()
        while self.peek().text in ("*", "/") and self.peek().kind == "op":
            tok = self.next()
            rhs = self.parse_factor()
            if tok.text == "*":
                if not expr.is_const and not rhs.is_const:
                    raise NonlinearTermError(
                        "nonlinear term: product of two non-constant expressions",
                        tok.line,
                        tok.col,
                    )
                expr = rhs.scale(expr.const) if expr.is_const else expr.scale(rhs.const)
            else:
                if not rhs.is_const:
                    raise NonlinearTermError(
                        "nonlinear term: division by a non-constant expression",
                        tok.line,
                        tok.col,
                    )
                if rhs.const == 0:
                    raise ParseError("division by zero", tok.line, tok.col)
                expr = expr.scale(Fraction(1) / rhs.const)
        return expr

    def parse_factor(self) -> LinExpr:
        tok = self.peek()
        if tok.kind == "op" and tok.text in ("-", "("):
            if self.depth == _MAX_NESTING:
                raise ParseError(
                    f"expression nested more than {_MAX_NESTING} levels deep",
                    tok.line,
                    tok.col,
                )
            self.next()
            self.depth += 1
            if tok.text == "-":
                expr = -self.parse_factor()
            else:
                expr = self.parse_expr()
                self.expect(")")
            self.depth -= 1
            return expr
        if tok.kind == "int":
            self.next()
            try:
                return LinExpr.constant(Fraction(int(tok.text)))
            except ValueError:  # longer than the interpreter converts
                raise ParseError(
                    f"integer literal of {len(tok.text)} digits is too long",
                    tok.line,
                    tok.col,
                ) from None
        if tok.kind == "var":
            self.next()
            return LinExpr.var(tok.text)
        if tok.kind == "ident":
            raise ParseError(
                f"unexpected {tok.text!r} in expression (function symbols are not supported)",
                tok.line,
                tok.col,
            )
        raise self.fail(f"expected an expression, found {tok.text!r}")

    # -- constraints and atoms ----------------------------------------------

    _RELS = {
        "=<": (Rel.GE, True),
        "<": (Rel.GT, True),
        ">=": (Rel.GE, False),
        ">": (Rel.GT, False),
        "=": (Rel.EQ, False),
        "is": (Rel.EQ, False),
    }

    def parse_atomic(self, lhs: LinExpr) -> AtomicConstraint:
        tok = self.next()
        entry = self._RELS.get(tok.text) if tok.kind in ("op", "ident") else None
        if entry is None:
            raise ParseError(
                f"expected a relation (=<, <, >=, >, =, is), found {tok.text!r}",
                tok.line,
                tok.col,
            )
        rel, flip = entry
        rhs = self.parse_expr()
        # ``a =< b`` / ``a < b`` store ``b - a REL 0``; the rest ``a - b REL 0``.
        expr = rhs - lhs if flip else lhs - rhs
        return AtomicConstraint(expr, rel)

    def parse_item(self) -> RawAtom | AtomicConstraint:
        tok = self.peek()
        if tok.kind == "ident":
            return self.parse_atom()
        return self.parse_atomic(self.parse_expr())

    def parse_atom(self) -> RawAtom:
        tok = self.next()
        if tok.kind != "ident":
            raise ParseError(f"expected a predicate name, found {tok.text!r}", tok.line, tok.col)
        args: list[LinExpr] = []
        if self.peek().text == "(" and self.peek().kind == "op":
            self.next()
            args.append(self.parse_expr())
            while self.peek().text == ",":
                self.next()
                args.append(self.parse_expr())
            self.expect(")")
        return RawAtom(tok.text, tuple(args))

    def parse_clause(self) -> RawClause:
        head = self.parse_item()
        items: list[RawAtom | AtomicConstraint] = []
        tok = self.next()
        if tok.text == ":-" and tok.kind == "op":
            items.append(self.parse_item())
            while self.peek().text == "," and self.peek().kind == "op":
                self.next()
                items.append(self.parse_item())
            tok = self.next()
        if not (tok.kind == "op" and tok.text == "."):
            raise ParseError(f"expected '.', found {tok.text!r}", tok.line, tok.col)
        return RawClause(head, tuple(items))

    def parse_program(self) -> list[RawClause]:
        clauses = []
        while self.peek().kind != "eof":
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
    if parser.peek().kind == "eof":
        return ()
    items = [parser.parse_atomic(parser.parse_expr())]
    while parser.peek().text == ",":
        parser.next()
        items.append(parser.parse_atomic(parser.parse_expr()))
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
    return tuple(items)
