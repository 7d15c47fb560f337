"""Exact arithmetic in Z[q] and its fraction field.

A polynomial is stored as a tuple of arbitrary-precision integer coefficients
in ascending degree order: (c0, c1, c2) represents c0 + c1*q + c2*q^2.  The
empty tuple is the zero polynomial; otherwise the last coefficient is nonzero.
Values are immutable and hashable, so equality of canonical forms is plain
``==`` and polynomials can key dicts and sets.

Rational constants (evaluation points, specialized matrix entries) are
exact: an evaluation point is an ``int`` or a ``fractions.Fraction``
(``exact_point`` rejects anything else), a Poly's value at an int is an int
and at a Fraction a Fraction, and a RatFun's value is always a Fraction.  No
floating point is used anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction


class NotDivisible(ArithmeticError):
    """Exact polynomial division left a remainder or a fractional quotient."""


class PoleAtPoint(ArithmeticError):
    """A rational function was evaluated at a zero of its denominator."""


class Poly:
    """Univariate polynomial with integer coefficients, ascending order."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = tuple(coeffs)
        if type(sum(coeffs)) is not int:  # one C-level pass; a Fraction or float spreads
            raise TypeError(f"Poly needs integer coefficients, got {coeffs!r}")
        while coeffs and coeffs[-1] == 0:
            coeffs = coeffs[:-1]
        self.coeffs = coeffs

    # -- structure ---------------------------------------------------------

    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __getitem__(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    def content(self) -> int:
        """Nonnegative gcd of the coefficients (0 for the zero polynomial)."""
        return math.gcd(*self.coeffs)

    def primitive_part(self) -> "Poly":
        """self divided by its content, normalized to positive leading coefficient.

        self itself when it is zero or already primitive (content 1, positive
        leading coefficient): a Poly is never changed after ``__init__``.
        """
        return self.split()[1] if self.coeffs else self

    def split(self) -> tuple:
        """(c, self / c) for a nonzero self, c its content signed as its leading coefficient."""
        c = self.content() if self.coeffs[-1] > 0 else -self.content()
        return c, self if c == 1 else Poly(x // c for x in self.coeffs)

    def scale(self, c: int) -> "Poly":
        """c * self for an integer c, coefficient by coefficient."""
        return self if c == 1 else Poly(c * x for x in self.coeffs)

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def derivative(self) -> "Poly":
        return Poly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def eval_at(self, x) -> int | Fraction:
        """Exact value at a point x: an int at an int x, a Fraction at a Fraction.

        At an int, ``_horner`` gives the value itself.  At x = a/b it gives
        sum c_i a^i b^(d-i) over the integers, d the degree, and one
        Fraction divides it by b^d.
        """
        if isinstance(exact_point(x), int):
            return self._horner(x)[0]
        b = x.denominator
        num, scale = self._horner(x.numerator, b)
        return Fraction(num * b, scale)

    def _horner(self, a: int, b: int = 1) -> tuple:
        """(sum c_i a^i b^(d-i), b^(d+1)); with b = 1, the value at a."""
        num, scale = 0, 1
        for c in reversed(self.coeffs):
            num = num * a + c * scale
            scale *= b
        return num, scale

    # -- presentation --------------------------------------------------------

    def format(self, var: str = "q") -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                body = str(abs(c))
            else:
                head = "" if abs(c) == 1 else str(abs(c))
                body = head + (var if i == 1 else f"{var}^{i}")
            terms.append((c < 0, body))
        first_neg, first = terms[0]
        out = ("-" if first_neg else "") + first
        for neg, body in terms[1:]:
            out += (" - " if neg else " + ") + body
        return out

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"Poly({self.coeffs!r})"

    # -- JSON wire format: ascending list of decimal strings ------------------

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data) -> "Poly":
        return cls(int(c) for c in data)


def exact_point(x):
    """x itself if it is an int or a Fraction; TypeError otherwise.

    bool is refused, as are a float (its binary value is no exact point the
    caller meant) and a string (``Fraction`` would parse it).
    """
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise TypeError(f"an evaluation point is an int or a Fraction, got {x!r}")
    return x


def _as_poly(x):
    if isinstance(x, Poly):
        return x
    if isinstance(x, int):
        return Poly((x,))
    return NotImplemented


ZERO = Poly()
ONE = Poly((1,))
Q = Poly((0, 1))
ONE_PLUS_Q = Poly((1, 1))
Q_MINUS_ONE = Poly((-1, 1))
ONE_MINUS_Q2 = Poly((1, 0, -1))
Q_ONE_PLUS_Q = Poly((0, 1, 1))


def qint(k: int) -> Poly:
    """q-integer [k] = 1 + q + ... + q^(k-1), with [0] = 0."""
    if k < 0:
        raise ValueError("q-integer needs k >= 0")
    return Poly((1,) * k)


def qpow(k: int) -> Poly:
    """The monomial q^k, k >= 0."""
    if k < 0:
        raise ValueError("q-power needs k >= 0")
    return Poly((0,) * k + (1,))


def qdeg(k: int) -> Poly:
    """Degree scalar k_q = 1 + (k-1)q^2 for k >= 1."""
    if k < 1:
        raise ValueError("degree scalar needs k >= 1")
    return Poly((1, 0, k - 1))


def divexact(a: Poly, b: Poly) -> Poly:
    """Quotient of an exact division in Z[q].

    Raises NotDivisible unless b*result == a with integer coefficients.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return ZERO
    if a.degree() < b.degree():
        raise NotDivisible(f"({a}) is not divisible by ({b})")
    rem = list(a.coeffs)
    lead = b.leading()
    qlen = len(a.coeffs) - len(b.coeffs) + 1
    quo = [0] * qlen
    for i in range(qlen - 1, -1, -1):
        c = rem[i + b.degree()]
        if c % lead:
            raise NotDivisible(f"({a}) is not divisible by ({b})")
        f = c // lead
        quo[i] = f
        if f:
            for j, bc in enumerate(b.coeffs):
                rem[i + j] -= f * bc
    if any(rem):
        raise NotDivisible(f"({a}) is not divisible by ({b})")
    return Poly(quo)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Primitive gcd with positive leading coefficient.

    Two nonzero operands are first tested for coprimality at one integer
    point, as the heuristic gcd does (Char, Geddes & Gonnet, GCDHEU, 1989):
    with M the smaller of their largest absolute coefficients and
    x = 2M + 4, gcd(a(x), b(x)) <= x/2 means gcd(a, b) = 1.  For let g of
    degree >= 1 divide both, and so the operand c of norm M.  By Cauchy's
    bound each root of c, so of g, has modulus at most M + 1 = x/2 - 1, and
    |g(x)| >= (x/2 + 1)^deg g > x/2.  By Gauss's lemma g(x) divides a(x) and
    b(x), hence their gcd, which is nonzero since c(x) is.  Otherwise a
    primitive-part Euclidean remainder sequence runs; integer content is
    stripped at every step, so intermediate coefficients stay small at
    these degrees.
    """
    if not a and not b:
        raise ValueError("gcd(0, 0) is undefined")
    a, b = a.primitive_part(), b.primitive_part()
    if a and b:
        x = 2 * min(max(map(abs, a.coeffs)), max(map(abs, b.coeffs))) + 4
        if 2 * math.gcd(a._horner(x)[0], b._horner(x)[0]) <= x:
            return ONE
    if a.degree() < b.degree():
        a, b = b, a
    while b:
        a, b = b, prem(a, b).primitive_part()
    return a


def prem(a: Poly, b: Poly) -> Poly:
    """Pseudo-remainder rem(lead(b)^(deg a - deg b + 1) a, b), exact in Z[q]."""
    rem = list(a.coeffs)
    lead = b.leading()
    db = b.degree()
    for i in range(len(a.coeffs) - len(b.coeffs), -1, -1):
        c = rem[i + db]
        for j in range(len(rem)):
            rem[j] *= lead
        for j, bc in enumerate(b.coeffs):
            rem[i + j] -= c * bc
    return Poly(rem[:db] if db > 0 else [])


class RatFun:
    """Reduced fraction num/den over Z[q].

    Canonical form: primitive parts of num and den are coprime, the integer
    contents are coprime, den has positive leading coefficient, and zero is
    0/1.  Canonical forms are unique, so equality is structural, and a
    RatFun is never changed after ``__init__``: equal values may share one
    object.  ``__init__`` takes each operand's signed content once
    (``Poly.split``), ``poly_gcd`` gets the same primitive parts back from
    ``primitive_part``, and ``Poly.scale`` puts the reduced contents back.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = ONE):
        num = _as_poly(num)
        den = _as_poly(den)
        if num is NotImplemented or den is NotImplemented:
            raise TypeError("RatFun needs Poly or int arguments")
        if not den:
            raise ZeroDivisionError("rational function with zero denominator")
        if not num:
            self.num, self.den = ZERO, ONE
            return
        (cn, pn), (cd, pd) = num.split(), den.split()
        g = poly_gcd(pn, pd)
        if g != ONE:
            pn, pd = divexact(pn, g), divexact(pd, g)
        c = math.gcd(cn, cd) if cd > 0 else -math.gcd(cn, cd)
        self.num, self.den = pn.scale(cn // c), pd.scale(cd // c)

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFun(self.num * other.den + other.num * self.den,
                      self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFun(-self.num, self.den)

    def __sub__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "RatFun":
        if not self.num:
            raise ZeroDivisionError("inverse of the zero rational function")
        return RatFun(self.den, self.num)

    def __truediv__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = _as_ratfun(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def eval_at(self, x) -> Fraction:
        """Exact value at an int or Fraction point, always a Fraction."""
        d = self.den.eval_at(x)
        if d == 0:
            raise PoleAtPoint(f"denominator ({self.den}) vanishes at q = {x}")
        return Fraction(self.num.eval_at(x), d)

    def format(self, var: str = "q") -> str:
        if self.den == ONE:
            return self.num.format(var)
        return f"({self.num.format(var)})/({self.den.format(var)})"

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"RatFun({self.num!r}, {self.den!r})"

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @classmethod
    def from_json(cls, data) -> "RatFun":
        return cls(Poly.from_json(data["num"]), Poly.from_json(data["den"]))


def _as_ratfun(x):
    if isinstance(x, RatFun):
        return x
    if isinstance(x, (Poly, int)):
        return RatFun(_as_poly(x))
    return NotImplemented
