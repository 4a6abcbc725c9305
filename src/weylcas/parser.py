"""Expression front end shared by the CLI and the printers.

Grammar (an optional leading minus is accepted so that every printed
value re-parses):

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' nat)?
    atom   := rational | ident | '(' expr ')'

Rationals are integer literals or integer/integer; powers are
non-negative integers.  Identifiers must be declared by the ambient ring
context: base variables, d1..dn for the Weyl generators, X for the Ore
variable.  The parser evaluates while it parses, with no syntax tree:
numbers and variables are polynomials, operator symbols are operators,
and every product is normalized as it is formed, so "d1*x1" evaluates to
x1*d1 + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ore import DiffOp, OreRing
from .poly import GREVLEX, SparsePoly, TermOrder


class ParseError(ValueError):
    def __init__(self, message: str, span: tuple[int, int]):
        super().__init__(f"{message} at {span[0]}..{span[1]}")
        self.span = span


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    span: tuple[int, int]


def tokenize(text: str) -> list[Token]:
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "/" and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            out.append(Token("number", text[i:j], (i, j)))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(Token("ident", text[i:j], (i, j)))
            i = j
            continue
        if c in "+-*^()":
            out.append(Token(c, c, (i, i + 1)))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", (i, i + 1))
    out.append(Token("end", "", (n, n)))
    return out


class _Parser:
    """Recursive descent that evaluates as it goes: a number or a ring
    variable is a SparsePoly, an operator symbol a DiffOp, and each rule
    combines its operands with + - * and **, so polynomial subexpressions
    stay polynomials and a product turns into a Leibniz expansion only
    where an operator symbol meets a coefficient."""

    def __init__(self, text: str, variables: tuple[str, ...], ring: OreRing | None = None):
        if not text.strip():
            raise ParseError("empty expression", (0, max(len(text), 1)))
        self.tokens = tokenize(text)
        self.pos = 0
        self.vars = variables
        self.ring = ring

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def take(self, kind: str) -> Token:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(f"expected {kind}, found {t.text or 'end of input'}", t.span)
        self.pos += 1
        return t

    def parse(self):
        e = self.expr()
        t = self.peek()
        if t.kind != "end":
            raise ParseError(f"trailing input {t.text!r}", t.span)
        return e

    def expr(self):
        if self.peek().kind == "-":
            self.take("-")
            value = -self.term()
        else:
            value = self.term()
        while self.peek().kind in ("+", "-"):
            if self.take(self.peek().kind).kind == "+":
                value = value + self.term()
            else:
                value = value - self.term()
        return value

    def term(self):
        value = self.factor()
        while self.peek().kind == "*":
            self.take("*")
            value = value * self.factor()
        return value

    def factor(self):
        first = self.peek()
        base = self.atom()
        if self.peek().kind == "^":
            self.take("^")
            t = self.peek()
            if t.kind != "number" or "/" in t.text:
                raise ParseError("exponent must be a non-negative integer", t.span)
            self.take("number")
            if first.kind == "ident" and isinstance(base, DiffOp):
                # a bare operator symbol: its power is one term, no products
                return DiffOp.operator(self.ring, self.ring.op_names.index(first.text),
                                       int(t.text))
            return base ** int(t.text)
        return base

    def atom(self):
        t = self.peek()
        if t.kind == "number":
            self.take("number")
            if "/" in t.text:
                num, den = t.text.split("/")
                if int(den) == 0:
                    raise ParseError("division by zero", t.span)
                return SparsePoly.constant(self.vars, Fraction(int(num), int(den)))
            return SparsePoly.constant(self.vars, int(t.text))
        if t.kind == "ident":
            self.take("ident")
            if t.text in self.vars:
                return SparsePoly.variable(self.vars, self.vars.index(t.text))
            if self.ring is not None and t.text in self.ring.op_names:
                return DiffOp.operator(self.ring, self.ring.op_names.index(t.text))
            raise ParseError(f"undeclared identifier {t.text!r}", t.span)
        if t.kind == "(":
            self.take("(")
            e = self.expr()
            self.take(")")
            return e
        raise ParseError(f"expected a value, found {t.text or 'end of input'}", t.span)


def parse_operator(text: str, ring: OreRing) -> DiffOp:
    """Parse an operator over the ring, in left normal form."""
    value = _Parser(text, ring.vars, ring).parse()
    if isinstance(value, SparsePoly):
        return DiffOp.from_poly(ring, value)
    return value.to_left()


def parse_polynomial(text: str, variables) -> SparsePoly:
    """Parse a plain polynomial over the given variables."""
    return _Parser(text, tuple(variables)).parse()


# ---------- printing ----------

def _coeff_factor(p: SparsePoly, order: TermOrder) -> tuple[str, bool]:
    """Render a coefficient polynomial; the flag says it is a bare '1'."""
    if p == SparsePoly.one(p.vars):
        return "", True
    if len(p.terms) == 1:
        return p.to_str(order), False
    return f"({p.to_str(order)})", False


def diffop_to_str(op: DiffOp, order: TermOrder = GREVLEX) -> str:
    """Canonical text: left form lists coefficient * operators, right form
    lists operators * coefficient; terms sorted by operator exponent."""
    if op.is_zero():
        return "0"
    ring = op.ring
    parts = []
    for alpha in sorted(op.terms, key=order.key_for(ring.n_ops), reverse=True):
        coeff = op.terms[alpha]
        ops = []
        for k, e in enumerate(alpha):
            if e == 1:
                ops.append(ring.op_names[k])
            elif e > 1:
                ops.append(f"{ring.op_names[k]}^{e}")
        op_part = "*".join(ops)
        negate = False
        if len(coeff.terms) == 1:
            e, c = next(iter(coeff.terms.items()))
            if c < 0:
                negate = True
                coeff = -coeff
        cs, is_one = _coeff_factor(coeff, order)
        if not op_part:
            # constant operator part: sums flatten on re-parse, so the bare
            # polynomial rendering is safe here
            body = coeff.to_str(order)
            if body.startswith("-"):
                negate, body = True, body[1:]
        elif is_one:
            body = op_part
        elif op.form == "right":
            if len(coeff.terms) == 1:
                # scalars commute: numeric factor in front, monomial after
                e, c = next(iter(coeff.terms.items()))
                mono = SparsePoly.monomial(ring.vars, e)
                pieces = []
                if c != 1:
                    pieces.append(str(c))
                pieces.append(op_part)
                if not mono.is_constant():
                    pieces.append(mono.to_str(order))
                body = "*".join(pieces)
            else:
                body = f"{op_part}*{cs}"
        else:
            body = f"{cs}*{op_part}"
        if not parts:
            parts.append(f"-{body}" if negate else body)
        else:
            parts.append(f"- {body}" if negate else f"+ {body}")
    return " ".join(parts)
