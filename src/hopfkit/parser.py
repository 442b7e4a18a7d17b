"""Expression parser for algebra elements.

Precedence-climbing over the grammar

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor | factor)*     # juxtaposition = *
    factor := atom ('^' exponent)?
    atom   := NUMBER | NAME | '(' expr ')' | '-' factor

Names resolve to generators of the target algebra first, then to the
scalar symbols i, w, m, u.  A subexpression with no generator in it
evaluates as a Scalar in the field Q(i)(w, m, u); it becomes an
algebra element, by scaling, only where it meets one.  Division is only
by scalar-valued subexpressions.  parse always returns a normal-ordered
AlgebraElement, so print(parse(s)) round-trips on normal forms.
"""

from __future__ import annotations

from .errors import (DivisionByZero, ExprSyntaxError, HopfkitError,
                     ScalarDivisionOnly, UnknownGenerator)
from .hopf import algebra_presentation
from .ncalg import AlgebraElement, format_element
from .scalars import I, M, ONE, U, W, Scalar, scalar

SCALAR_SYMBOLS = {"i": I, "w": W, "m": M, "u": U}


def _tokenize(text):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdecimal():
            start = pos
            while pos < n and text[pos].isdecimal():
                pos += 1
            tokens.append(("num", int(text[start:pos]), start))
            continue
        if ch.isalpha():
            start = pos
            while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            tokens.append(("name", text[start:pos], start))
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", pos)
    return tokens


class _Parser:
    def __init__(self, tokens, pres):
        self.tokens = tokens
        self.pos = 0
        self.pres = pres

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, -1)

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise ExprSyntaxError(f"expected {kind!r}", tok[2])
        return tok

    def parse(self):
        out = self.expr()
        tok = self.peek()
        if tok[0] is not None:
            raise ExprSyntaxError(f"unexpected trailing {tok[1]!r}", tok[2])
        return out

    def expr(self):
        out = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self):
        out = self.factor()
        while True:
            kind = self.peek()[0]
            if kind == "*":
                self.next()
                out = out * self.factor()
            elif kind == "/":
                tok = self.next()
                rhs = self.factor()
                if not isinstance(rhs, Scalar):
                    out = out * _scalar_inverse(rhs, tok[2])
                elif isinstance(out, Scalar):
                    out = out / rhs
                else:
                    out = out.scale(ONE / rhs)
            elif kind in ("name", "num", "("):
                # juxtaposition multiplies in written order
                out = out * self.factor()
            else:
                return out

    def factor(self):
        base = self.atom()
        if self.peek()[0] == "^":
            tok = self.next()
            exp = self.exponent()
            try:
                base = base ** exp
            except HopfkitError as exc:
                raise ExprSyntaxError(str(exc), tok[2]) from exc
        return base

    def exponent(self):
        tok = self.next()
        if tok[0] == "num":
            return tok[1]
        if tok[0] == "-":
            inner = self.expect("num")
            return -inner[1]
        if tok[0] == "(":
            sign = 1
            nxt = self.next()
            if nxt[0] == "-":
                sign = -1
                nxt = self.next()
            if nxt[0] != "num":
                raise ExprSyntaxError("exponent must be an integer", nxt[2])
            self.expect(")")
            return sign * nxt[1]
        raise ExprSyntaxError("exponent must be an integer", tok[2])

    def atom(self):
        tok = self.next()
        kind, value, pos = tok
        if kind == "num":
            return scalar(value)
        if kind == "name":
            if value in self.pres.index:
                return self.pres.gen(value)
            if value in SCALAR_SYMBOLS:
                return SCALAR_SYMBOLS[value]
            raise UnknownGenerator(
                f"{value!r} is not a generator of {self.pres.name} "
                f"or a scalar symbol")
        if kind == "(":
            out = self.expr()
            self.expect(")")
            return out
        if kind == "-":
            return -self.factor()
        raise ExprSyntaxError(f"unexpected {value!r}", pos)


def _scalar_inverse(e: AlgebraElement, pos):
    """1/e as a Scalar, for an element e that is a scalar multiple of 1."""
    one_mon = e.pres.one_mon
    if any(mon != one_mon for mon in e.terms):
        raise ScalarDivisionOnly(
            f"division only by scalar-valued expressions (at position {pos})")
    c = e.terms.get(one_mon)
    if c is None:
        raise DivisionByZero("division by the zero expression")
    return ONE / c


def parse(text: str, algebra: str) -> AlgebraElement:
    """Parse an expression in the named built-in algebra."""
    pres = algebra_presentation(algebra)
    out = _Parser(_tokenize(text), pres).parse()
    return pres.one().scale(out) if isinstance(out, Scalar) else out


def print_element(e: AlgebraElement) -> str:
    return format_element(e)
