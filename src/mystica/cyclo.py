"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Elements are stored in the power basis {zeta_N^j : 0 <= j < phi(N)}, fully
reduced modulo the N-th cyclotomic polynomial, as integer numerators over one
positive common denominator: the element sum_j nums[j] zeta_N^j / den, with
gcd(den, *nums) = 1 and zero stored as (0, ..., 0)/1 (the nf_elem layout of
ANTIC; Hart, "ANTIC: Algebraic Number Theory in C", 2015).  The form is
canonical, so equality at one order is a tuple comparison; elements at
different orders are compared after lifting both to the least common multiple
order.  Everything is immutable and pure.

This is the only form in which the package holds a rational number.  A
rational operand, an int or any number with integer numerator and denominator
attributes, is read through those two attributes and never stored as given.
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import gcd, lcm


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


@lru_cache(maxsize=None)
def _folds(order: int) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """For each product position t >= degree: (t, the nonzero (j, rows[t][j]))."""
    deg, rows = _ctx(order)
    return tuple(
        (t, tuple((j, r) for j, r in enumerate(rows[t]) if r)) for t in range(deg, 2 * deg - 1)
    )


@lru_cache(maxsize=None)
def _roots(order: int) -> tuple[tuple["Cyclotomic", ...], dict]:
    """(zeta_order^e for 0 <= e < order, e keyed by the numerators of its root)."""
    _, rows = _ctx(order)
    roots = tuple(_make(order, rows[e]) for e in range(order))
    return roots, {root.nums: e for e, root in enumerate(roots)}


_new = object.__new__


def _make(order: int, nums, den: int = 1) -> "Cyclotomic":
    """The element sum_j nums[j] zeta^j / den from reduced integer
    coordinates and den >= 1, with gcd(den, *nums) divided out."""
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            nums = [x // g for x in nums]
            den //= g
    out = _new(Cyclotomic)
    out.order = order
    out.nums = tuple(nums)
    out.den = den
    return out


def _reduce(order: int, conv: list[int], den: int) -> "Cyclotomic":
    """The element sum_t conv[t] zeta^t / den of an unreduced product row,
    0 <= t <= 2 * (degree - 1), folded modulo the cyclotomic polynomial."""
    deg = len(conv) // 2 + 1
    out = conv[:deg]
    for t, row in _folds(order):
        c = conv[t]
        if c:
            for j, r in row:
                out[j] += c * r
    return _make(order, out, den)


def _constant(order: int, num: int, den: int = 1) -> "Cyclotomic":
    """The rational num/den written at the given order: (num, 0, ..., 0)/den."""
    deg, _ = _ctx(order)
    return _make(order, (num,) + (0,) * (deg - 1), den)


def _rational_parts(value) -> tuple[int, int]:
    """(numerator, denominator > 0) of a rational number in lowest terms."""
    try:
        return value.numerator, value.denominator
    except AttributeError:
        raise TypeError(f"not a rational value: {value!r}") from None


class Cyclotomic:
    """An exact element of Q(zeta_N), canonical in the power basis mod Phi_N."""

    __slots__ = ("order", "nums", "den")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(order: int = 1) -> "Cyclotomic":
        deg, _ = _ctx(order)
        return _make(order, (0,) * deg)

    @staticmethod
    def one(order: int = 1) -> "Cyclotomic":
        return Cyclotomic.root(order, 0)

    @staticmethod
    def rational(value, order: int = 1) -> "Cyclotomic":
        return _constant(order, *_rational_parts(value))

    @staticmethod
    def root(order: int, exponent: int) -> "Cyclotomic":
        """zeta_order^exponent in canonical form, memoised per order."""
        if order < 1:
            raise ValueError("order must be a positive integer")
        return _roots(order)[0][exponent % order]

    # -- order handling -----------------------------------------------

    def lift(self, order: int) -> "Cyclotomic":
        """Rewrite in the field of the given order (a multiple of self.order)."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError(f"cannot lift order {self.order} into order {order}")
        step = order // self.order
        deg, rows = _ctx(order)
        out = [0] * deg
        for j, x in enumerate(self.nums):
            if x:
                for t, r in enumerate(rows[(j * step) % order]):
                    if r:
                        out[t] += x * r
        return _make(order, out, self.den)

    @staticmethod
    def _pair(a: "Cyclotomic", b) -> tuple["Cyclotomic", "Cyclotomic"]:
        """a and b written at one order; a rational operand (an int, a
        Fraction or an order-1 element) is written at the other's order
        directly, without lift."""
        if not isinstance(b, Cyclotomic):
            b = Cyclotomic.rational(b, a.order)
        if a.order == b.order:
            return a, b
        if b.order == 1:
            return a, _constant(a.order, b.nums[0], b.den)
        if a.order == 1:
            return _constant(b.order, a.nums[0], a.den), b
        m = lcm(a.order, b.order)
        return a.lift(m), b.lift(m)

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "Cyclotomic":
        a, b = self._pair(self, other)
        da, db = a.den, b.den
        if da == db:
            return _make(a.order, [x + y for x, y in zip(a.nums, b.nums)], da)
        g = gcd(da, db)
        fa, fb = db // g, da // g
        return _make(a.order, [x * fa + y * fb for x, y in zip(a.nums, b.nums)], da * fa)

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return _make(self.order, [-x for x in self.nums], self.den)

    def __sub__(self, other) -> "Cyclotomic":
        a, b = self._pair(self, other)
        da, db = a.den, b.den
        if da == db:
            return _make(a.order, [x - y for x, y in zip(a.nums, b.nums)], da)
        g = gcd(da, db)
        fa, fb = db // g, da // g
        return _make(a.order, [x * fa - y * fb for x, y in zip(a.nums, b.nums)], da * fa)

    def __rsub__(self, other) -> "Cyclotomic":
        return (-self) + other

    def _scaled(self, num: int, den: int) -> "Cyclotomic":
        """self * num/den, by scaling the numerators; self itself for 1."""
        if num == den == 1:
            return self
        return _make(self.order, [x * num for x in self.nums], self.den * den)

    def __mul__(self, other) -> "Cyclotomic":
        if not isinstance(other, Cyclotomic):
            return self._scaled(*_rational_parts(other))
        if other.order == 1:
            return self._scaled(other.nums[0], other.den)
        if self.order == 1:
            return other._scaled(self.nums[0], self.den)
        a, b = (self, other) if self.order == other.order else self._pair(self, other)
        an, bn = a.nums, b.nums
        deg = len(an)
        conv = [0] * (2 * deg - 1)
        for i, x in enumerate(an):
            if x:
                for t, y in enumerate(bn, i):
                    if y:
                        conv[t] += x * y
        return _reduce(a.order, conv, a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """Field inverse: a root of unity by negating its exponent, anything
        else by the extended Euclidean algorithm modulo Phi_N."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta)")
        if self.den == 1:
            roots, exponents = _roots(self.order)
            e = exponents.get(self.nums)
            if e is not None:
                return roots[-e % self.order]
        return _euclid_inverse(self)

    def __truediv__(self, other) -> "Cyclotomic":
        a, b = self._pair(self, other)
        return a * b.inverse()

    def __rtruediv__(self, other) -> "Cyclotomic":
        return self.inverse() * other

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

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    def _equals_rational(self, num: int, den: int) -> bool:
        return self.den == den and self.nums[0] == num and self.is_rational()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cyclotomic):
            try:
                num, den = _rational_parts(other)
            except TypeError:
                return NotImplemented
            return self._equals_rational(num, den)
        if self.order == other.order:
            return self.nums == other.nums and self.den == other.den
        if other.order == 1:
            return self._equals_rational(other.nums[0], other.den)
        if self.order == 1:
            return other._equals_rational(self.nums[0], self.den)
        a, b = self._pair(self, other)
        return a.nums == b.nums and a.den == b.den

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return f"Cyclotomic({self.order}, {scalar_to_text(self)!r})"


def _euclid_inverse(a: Cyclotomic) -> Cyclotomic:
    """a^-1 by the extended Euclidean algorithm on integer polynomials.

    With A the numerator polynomial of a, each pair (r, s) keeps s*A = r mod
    Phi_N, from (Phi_N, 0) and (A, 1).  Pseudo-division scales r and s by the
    divisor's leading coefficient so that both stay integral, and each new
    pair is divided by the gcd of all its coefficients.  The last remainder
    is a nonzero constant r, and a^-1 = den * s / r.
    """
    r0, s0 = list(cyclotomic_polynomial(a.order)), []
    r1, s1 = list(a.nums), [1]
    while not r1[-1]:
        r1.pop()
    while len(r1) > 1:
        lead = r1[-1]
        while len(r0) >= len(r1):
            c, shift = r0[-1], len(r0) - len(r1)
            r0 = [lead * x for x in r0]
            s0 = [lead * x for x in s0] + [0] * (len(s1) + shift - len(s0))
            for k, x in enumerate(r1, shift):
                r0[k] -= c * x
            for k, x in enumerate(s1, shift):
                s0[k] -= c * x
            while r0 and not r0[-1]:
                r0.pop()
        g = gcd(*r0, *s0)
        if g > 1:
            r0 = [x // g for x in r0]
            s0 = [x // g for x in s0]
        r0, s0, r1, s1 = r1, s1, r0, s0
    const = r1[0]
    scale = a.den if const > 0 else -a.den
    deg = len(a.nums)
    while len(s1) > deg and not s1[-1]:
        s1.pop()
    nums = [scale * x for x in s1] + [0] * (deg - len(s1))
    return _make(a.order, nums, abs(const))


def cyc_make(order: int, exponent: int) -> Cyclotomic:
    """The root of unity zeta_order^exponent as a canonical field element."""
    return Cyclotomic.root(order, exponent)


def in_gaussian_half_ring(a: Cyclotomic) -> bool:
    """Membership test for Z[i, 1/2]: an element of Q(i) = u + v*i whose
    denominators in lowest terms are powers of two."""
    m = lcm(a.order, 4)
    lifted = a.lift(m)
    nums = lifted.nums
    ivec = Cyclotomic.root(m, m // 4).nums
    # Solve a = u*1 + v*i by coordinates (the basis vector of 1 is e_0), with
    # u and v scaled by s = den * ivec[pos] to the integers su and sv.
    pos = next(j for j in range(1, len(ivec)) if ivec[j] != 0)
    p, sv = ivec[pos], nums[pos]
    if any(x * p != sv * y for x, y in zip(nums[1:], ivec[1:])):
        return False
    su = nums[0] * p - sv * ivec[0]
    s = abs(lifted.den * p)
    return all((s // gcd(x, s)).bit_count() == 1 for x in (su, sv))


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
            num, _, den = m.group("rat").partition("/")
            den = int(den or 1)
            if not den:
                raise ValueError(f"zero denominator in scalar literal {m.group('rat')!r}")
            out.append(("rat", int(num), den))
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
            return _make(1, (tok[1],), tok[2])
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
    for j, x in enumerate(a.nums):
        if x == 0:
            continue
        g = gcd(x, a.den)
        c = f"{x // g}/{a.den // g}" if a.den != g else str(x // g)
        if j == 0:
            parts.append(c)
        elif c == "1":
            parts.append(f"zeta{a.order}^{j}")
        else:
            parts.append(f"{c}*zeta{a.order}^{j}")
    return " + ".join(parts) if parts else "0"
