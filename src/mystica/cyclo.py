"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored in the power basis {zeta_N^j : 0 <= j < phi(N)} with
arbitrary-precision rational coordinates, fully reduced modulo the N-th
cyclotomic polynomial.  Equality of elements at different orders is decided
after lifting both to the least common multiple order.  Everything is
immutable and pure, so values can be shared freely between workers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

_F0 = Fraction(0)
_F1 = Fraction(1)


def _poly_divexact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Exact division of integer polynomials (ascending coefficients, monic divisor)."""
    num = list(num)
    qlen = len(num) - len(den) + 1
    quot = [0] * qlen
    for i in reversed(range(qlen)):
        c = num[i + len(den) - 1]
        quot[i] = c
        if c:
            for j, d in enumerate(den):
                num[i + j] -= c * d
    if any(num[: len(den) - 1]):
        raise ArithmeticError("polynomial division was not exact")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Coefficients (ascending) of the order-th cyclotomic polynomial.

    Computed by dividing x^order - 1 by the cyclotomic polynomials of all
    proper divisors of the order.
    """
    if order < 1:
        raise ValueError("order must be a positive integer")
    if order == 1:
        return (-1, 1)
    num = [0] * (order + 1)
    num[0] = -1
    num[order] = 1
    for d in range(1, order):
        if order % d == 0:
            num = _poly_divexact(num, cyclotomic_polynomial(d))
    return tuple(num)


@lru_cache(maxsize=None)
def _ctx(order: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(degree, reduction rows) for the given order.

    rows[t] is x^t reduced modulo the cyclotomic polynomial, as an integer
    coefficient vector of length equal to the degree.  Rows are provided for
    every exponent that can occur while multiplying two reduced elements or
    while embedding zeta_order^k for 0 <= k < order.
    """
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    top = max(order - 1, 2 * deg - 2, deg)
    rows: list[tuple[int, ...]] = []
    for t in range(deg):
        row = [0] * deg
        row[t] = 1
        rows.append(tuple(row))
    for t in range(deg, top + 1):
        prev = rows[t - 1]
        lead = prev[deg - 1]
        row = [0] + list(prev[: deg - 1])
        if lead:
            for j in range(deg):
                row[j] -= lead * phi[j]
        rows.append(tuple(row))
    return deg, tuple(rows)


class Cyclotomic:
    """An exact element of Q(zeta_N), canonical in the power basis mod Phi_N."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[Fraction, ...]):
        # Trusted constructor: coeffs must already be reduced, length phi(order).
        self.order = order
        self.coeffs = coeffs

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(order: int = 1) -> "Cyclotomic":
        deg, _ = _ctx(order)
        return Cyclotomic(order, (_F0,) * deg)

    @staticmethod
    def one(order: int = 1) -> "Cyclotomic":
        return Cyclotomic.rational(1, order)

    @staticmethod
    def rational(value, order: int = 1) -> "Cyclotomic":
        deg, _ = _ctx(order)
        v = Fraction(value)
        return Cyclotomic(order, (v,) + (_F0,) * (deg - 1))

    @staticmethod
    def root(order: int, exponent: int) -> "Cyclotomic":
        """zeta_order^exponent in canonical form."""
        if order < 1:
            raise ValueError("order must be a positive integer")
        deg, rows = _ctx(order)
        row = rows[exponent % order]
        return Cyclotomic(order, tuple(Fraction(c) for c in row))

    # -- order handling -----------------------------------------------

    def lift(self, order: int) -> "Cyclotomic":
        """Rewrite in the field of the given order (a multiple of self.order)."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError(f"cannot lift order {self.order} into order {order}")
        step = order // self.order
        deg, rows = _ctx(order)
        out = [_F0] * deg
        for j, c in enumerate(self.coeffs):
            if c:
                row = rows[(j * step) % order]
                for t in range(deg):
                    if row[t]:
                        out[t] += c * row[t]
        return Cyclotomic(order, tuple(out))

    @staticmethod
    def _pair(a: "Cyclotomic", b) -> tuple["Cyclotomic", "Cyclotomic"]:
        if not isinstance(b, Cyclotomic):
            b = Cyclotomic.rational(b)
        if a.order == b.order:
            return a, b
        m = lcm(a.order, b.order)
        return a.lift(m), b.lift(m)

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "Cyclotomic":
        a, b = self._pair(self, other)
        return Cyclotomic(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.order, tuple(-x for x in self.coeffs))

    def __sub__(self, other) -> "Cyclotomic":
        a, b = self._pair(self, other)
        return Cyclotomic(a.order, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other) -> "Cyclotomic":
        return (-self) + other

    def __mul__(self, other) -> "Cyclotomic":
        a, b = self._pair(self, other)
        deg, rows = _ctx(a.order)
        conv = [_F0] * (2 * deg - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        conv[i + j] += x * y
        out = conv[:deg]
        for t in range(deg, 2 * deg - 1):
            c = conv[t]
            if c:
                row = rows[t]
                for j in range(deg):
                    if row[j]:
                        out[j] += c * row[j]
        return Cyclotomic(a.order, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Field inverse via the extended Euclidean algorithm modulo Phi_N."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta)")
        phi = [Fraction(c) for c in cyclotomic_polynomial(self.order)]
        r0, r1 = phi, list(self.coeffs)
        s0, s1 = [_F0], [_F1]
        while True:
            while r1 and r1[-1] == 0:
                r1.pop()
            if len(r1) == 1:
                inv_lead = 1 / r1[0]
                deg, _ = _ctx(self.order)
                out = [c * inv_lead for c in s1] + [_F0] * deg
                return Cyclotomic(self.order, tuple(out[:deg]))
            q, r = _poly_divmod(r0, r1)
            s = _poly_sub(s0, _poly_mul(q, s1))
            r0, r1 = r1, r
            s0, s1 = s1, s

    def __truediv__(self, other) -> "Cyclotomic":
        a, b = self._pair(self, other)
        return a * b.inverse()

    def __rtruediv__(self, other) -> "Cyclotomic":
        return Cyclotomic.rational(other) / self

    def __pow__(self, k: int) -> "Cyclotomic":
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        result = Cyclotomic.one(self.order)
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation, zeta -> zeta^(N-1)."""
        n = self.order
        out = Cyclotomic.zero(n)
        for j, c in enumerate(self.coeffs):
            if c:
                out = out + Cyclotomic.root(n, (-j) % n) * c
        return out

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.rational(other)
        elif not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b = self._pair(self, other)
        return a.coeffs == b.coeffs

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return f"Cyclotomic({self.order}, {scalar_to_text(self)!r})"


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    dn = len(den) - 1
    if len(num) < len(den):
        return [_F0], num
    q = [_F0] * (len(num) - dn)
    for i in reversed(range(len(q))):
        c = num[i + dn] / den[dn]
        q[i] = c
        if c:
            for j in range(len(den)):
                num[i + j] -= c * den[j]
    return q, num[:dn]


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [_F0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [_F0] * (n - len(a))
    b = b + [_F0] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def cyc_make(order: int, exponent: int) -> Cyclotomic:
    """The root of unity zeta_order^exponent as a canonical field element."""
    return Cyclotomic.root(order, exponent)


@dataclass(frozen=True)
class RootOfUnity:
    """A root of unity stored as (order, exponent), kept in primitive form."""

    order: int
    exponent: int

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be positive")
        e = self.exponent % self.order
        g = gcd(e, self.order)
        if g != 1 or e == 0:
            n = self.order // g if e else 1
            object.__setattr__(self, "order", n)
            object.__setattr__(self, "exponent", (e // g) % n if e else 0)
        else:
            object.__setattr__(self, "exponent", e)

    @staticmethod
    def one() -> "RootOfUnity":
        return RootOfUnity(1, 0)

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        m = lcm(self.order, other.order)
        return RootOfUnity(m, self.exponent * (m // self.order) + other.exponent * (m // other.order))

    def inverse(self) -> "RootOfUnity":
        return RootOfUnity(self.order, -self.exponent)

    def __pow__(self, k: int) -> "RootOfUnity":
        return RootOfUnity(self.order, self.exponent * k)

    def to_cyclotomic(self) -> Cyclotomic:
        return Cyclotomic.root(self.order, self.exponent)

    def is_one(self) -> bool:
        return self.order == 1


def in_gaussian_half_ring(a: Cyclotomic) -> bool:
    """Membership test for Z[i, 1/2]: an element of Q(i) = u + v*i whose
    denominators in lowest terms are powers of two."""
    m = lcm(a.order, 4)
    b = a.lift(m)
    ivec = Cyclotomic.root(m, m // 4).coeffs
    # Solve b = u*1 + v*i by coordinates; basis vector of 1 is e_0.
    pos = next(j for j in range(1, len(ivec)) if ivec[j] != 0)
    v = b.coeffs[pos] / ivec[pos]
    u = b.coeffs[0] - v * ivec[0]
    for j, c in enumerate(b.coeffs):
        expect = v * ivec[j] + (u if j == 0 else 0)
        if c != expect:
            return False
    return all(q.denominator & (q.denominator - 1) == 0 for q in (u, v))


# -- text literals ----------------------------------------------------
#
# Grammar used by the CLI and JSON reports:
#   expr   := term (('+'|'-') term)*
#   term   := factor ('*' factor)*
#   factor := rational | zeta | '(' expr ')' | '-' factor
#   zeta   := 'zeta' INT ('^' ('-')? INT)?
# Rationals are INT or INT/INT, optionally signed.

_TOKEN = re.compile(
    r"\s*(?:(?P<zeta>zeta(?P<zn>\d+)(?:\^(?P<zk>-?\d+))?)"
    r"|(?P<rat>-?\d+(?:/\d+)?)"
    r"|(?P<op>[+*()-]))"
)


def _tokenize(text: str) -> list:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad scalar literal near {text[pos:]!r}")
            break
        if m.group("zeta"):
            out.append(("zeta", int(m.group("zn")), int(m.group("zk") or 1)))
        elif m.group("rat"):
            try:
                out.append(("rat", Fraction(m.group("rat"))))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in scalar literal {m.group('rat')!r}") from None
        else:
            out.append((m.group("op"),))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of scalar literal")
        self.i += 1
        return tok

    def expr(self) -> Cyclotomic:
        value = self.term()
        while self.peek() and self.peek()[0] in ("+", "-"):
            op = self.next()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> Cyclotomic:
        value = self.factor()
        while self.peek() and self.peek()[0] == "*":
            self.next()
            value = value * self.factor()
        return value

    def factor(self) -> Cyclotomic:
        tok = self.next()
        if tok[0] == "rat":
            return Cyclotomic.rational(tok[1])
        if tok[0] == "zeta":
            return Cyclotomic.root(tok[1], tok[2])
        if tok[0] == "-":
            return -self.factor()
        if tok[0] == "(":
            value = self.expr()
            closing = self.next()
            if closing[0] != ")":
                raise ValueError("unbalanced parentheses in scalar literal")
            return value
        raise ValueError(f"unexpected token {tok!r} in scalar literal")


def parse_scalar(text: str) -> Cyclotomic:
    """Parse a scalar literal such as '1/2 + 1/2*zeta4^1'."""
    parser = _Parser(_tokenize(text))
    value = parser.expr()
    if parser.peek() is not None:
        raise ValueError(f"trailing input in scalar literal {text!r}")
    return value


def scalar_to_text(a: Cyclotomic) -> str:
    """Canonical text form, parseable by parse_scalar."""
    parts = []
    for j, c in enumerate(a.coeffs):
        if c == 0:
            continue
        if j == 0:
            parts.append(str(c))
        elif c == 1:
            parts.append(f"zeta{a.order}^{j}")
        else:
            parts.append(f"{c}*zeta{a.order}^{j}")
    return " + ".join(parts) if parts else "0"
