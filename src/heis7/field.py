"""Exact arithmetic in Q, Q(zeta7), Q(zeta7)(sqrt2), prime fields and dual numbers.

Conventions
-----------
* ``z`` denotes the primitive 7th root of unity zeta7.  Elements of Q(zeta7)
  are stored on the power basis 1, z, ..., z^5 modulo the 7th cyclotomic
  polynomial 1 + z + ... + z^6, so every element has a unique canonical form.
* ``r2`` denotes sqrt(2), adjoined as a formal quadratic generator:
  a FieldElem is a pair (a, b) of Cyc7 values meaning a + b*r2 with r2^2 = 2.
* i*sqrt(7) is never a separate generator; it is the quadratic Gauss sum
  1 + 2(z + z^2 + z^4) inside Q(zeta7).
* Fp is the prime field Z/p for p not in {2, 7}; elements are plain ints in
  [0, p), wrapped by the FpDomain adapter below.
* DualNum is a + b*eps with eps^2 = 0 over an arbitrary coefficient domain.

Coefficient domains for the polynomial and linear-algebra layers: QQ
(RatDomain, Fraction), CYC (CycDomain, Q(zeta7) as Cyc7), FF (FieldDomain,
Q(zeta7)(sqrt2) as FieldElem), fp(p) (FpDomain) and DualDomain over any of
them.  G7 class functions and polynomial-span traces live in Q(zeta7); only
the SL2(F7) character table needs sqrt2.  Cyc7 and FieldElem mix freely: an
operation with a FieldElem operand returns a FieldElem, and a FieldElem with
zero sqrt2 part equals (and hashes like) its Cyc7.

Internally Cyc7 keeps an integer 6-vector plus a positive common denominator,
reduced by gcd, which keeps the hot paths (character table work) in pure
integer arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Rat = Fraction

_ZERO6 = (0, 0, 0, 0, 0, 0)
_ZERO5 = (0, 0, 0, 0, 0)


def _vec_gcd(nums, den):
    g = den
    for n in nums:
        g = gcd(g, abs(n))
        if g == 1:
            return 1
    return g


class Cyc7:
    """Element of Q(zeta7) on the power basis 1..z^5 mod Phi_7."""

    __slots__ = ("num", "den")

    def __init__(self, num=_ZERO6, den=1, _normalized=False):
        if den < 0:
            num = tuple(-n for n in num)
            den = -den
        if den == 0:
            raise ZeroDivisionError("Cyc7 denominator is zero")
        if not _normalized:
            g = _vec_gcd(num, den)
            if g > 1:
                num = tuple(n // g for n in num)
                den //= g
        self.num = tuple(num)
        self.den = den

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_int(n: int) -> "Cyc7":
        return Cyc7((n, 0, 0, 0, 0, 0), 1, _normalized=(n != 0))

    @staticmethod
    def from_rat(q) -> "Cyc7":
        q = Fraction(q)
        return Cyc7((q.numerator, 0, 0, 0, 0, 0), q.denominator)

    @staticmethod
    def zeta(k: int = 1) -> "Cyc7":
        """z^k in canonical form."""
        k %= 7
        if k < 6:
            v = [0] * 6
            v[k] = 1
            return Cyc7(tuple(v), 1, _normalized=True)
        return Cyc7((-1, -1, -1, -1, -1, -1), 1, _normalized=True)

    # -- ring structure ------------------------------------------------

    def __add__(self, other):
        other = _as_cyc(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self, other
        if a.den == b.den:
            return Cyc7(tuple(x + y for x, y in zip(a.num, b.num)), a.den)
        return Cyc7(
            tuple(x * b.den + y * a.den for x, y in zip(a.num, b.num)),
            a.den * b.den,
        )

    __radd__ = __add__

    def __neg__(self):
        return Cyc7(tuple(-n for n in self.num), self.den, _normalized=True)

    def __sub__(self, other):
        other = _as_cyc(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_cyc(other) - self

    def __mul__(self, other):
        if isinstance(other, Cyc7):
            a, b = self.num, other.num
            if a[1:] == _ZERO5:
                return Cyc7(tuple(a[0] * n for n in b), self.den * other.den)
            if b[1:] == _ZERO5:
                return Cyc7(tuple(b[0] * n for n in a), self.den * other.den)
        elif isinstance(other, int):
            return Cyc7(tuple(other * n for n in self.num), self.den)
        elif isinstance(other, Fraction):
            return Cyc7(tuple(other.numerator * n for n in self.num), self.den * other.denominator)
        else:
            return NotImplemented
        # convolution up to degree 10, then z^7 = 1 and z^6 = -(1+...+z^5)
        conv = [0] * 11
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        # fold z^7..z^10 back to z^0..z^3
        for k in range(7, 11):
            conv[k - 7] += conv[k]
        # fold z^6
        c6 = conv[6]
        out = [conv[i] - c6 for i in range(6)]
        return Cyc7(tuple(out), self.den * other.den)

    __rmul__ = __mul__

    @staticmethod
    def dot(xs, ys) -> "Cyc7":
        """sum x*y over paired Cyc7/int/Fraction entries, normalised once.

        The products accumulate as integer numerators on 1..z^10 over one
        common denominator; the fold mod Phi_7 and the gcd come at the end.
        """
        acc = [0] * 11
        den = 1
        for x, y in zip(xs, ys):
            if type(x) is not Cyc7 or type(y) is not Cyc7:
                x, y = _as_cyc(x), _as_cyc(y)
                if x is NotImplemented or y is NotImplemented:
                    raise TypeError("Cyc7.dot takes Cyc7, int or Fraction entries")
            a, b = x.num, y.num
            if a == _ZERO6 or b == _ZERO6:
                continue
            d = x.den * y.den
            s = 1
            if d != den:
                up = d // gcd(den, d)
                if up != 1:
                    acc = [v * up for v in acc]
                    den *= up
                s = den // d
            if a[1:] == _ZERO5:
                f = a[0] * s
                for j, bj in enumerate(b):
                    acc[j] += f * bj
            elif b[1:] == _ZERO5:
                f = b[0] * s
                for i, ai in enumerate(a):
                    acc[i] += f * ai
            else:
                for i, ai in enumerate(a):
                    if ai:
                        ai *= s
                        for j, bj in enumerate(b):
                            if bj:
                                acc[i + j] += ai * bj
        for k in range(7, 11):
            acc[k - 7] += acc[k]
        c6 = acc[6]
        return Cyc7(tuple(acc[i] - c6 for i in range(6)), den)

    def __pow__(self, n: int):
        if n < 0:
            return (self ** (-n)).inv()
        r = Cyc7.from_int(1)
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    def inv(self) -> "Cyc7":
        """Multiplicative inverse: the product of the five nontrivial Galois
        conjugates, divided by the (rational) norm."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta7)")
        conj = self.galois(1)
        for p in range(2, 6):
            conj = conj * self.galois(p)
        norm = self * conj
        return conj * Fraction(norm.den, norm.num[0])

    def __truediv__(self, other):
        other = _as_cyc(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return _as_cyc(other) / self

    # -- predicates and maps --------------------------------------------

    def is_zero(self) -> bool:
        return self.num == _ZERO6

    def is_rational(self) -> bool:
        return self.num[1:] == _ZERO5

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def galois(self, power: int = 1) -> "Cyc7":
        """Apply theta^power, theta(z) = z^3 (a generator of Gal(Q(z)/Q))."""
        mats = _galois_tables()
        mat = mats[power % 6]
        num = self.num
        out = [0, 0, 0, 0, 0, 0]
        for k in range(6):
            n = num[k]
            if n:
                row = mat[k]
                for i in range(6):
                    if row[i]:
                        out[i] += n * row[i]
        return Cyc7(tuple(out), self.den)

    def conj(self) -> "Cyc7":
        """Complex conjugation, = theta^3."""
        return self.galois(3)

    def __eq__(self, other):
        other = _as_cyc(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"Cyc7({render_cyc(self)!r})"

    def __str__(self):
        return render_cyc(self)


def _as_cyc(x):
    if isinstance(x, Cyc7):
        return x
    if isinstance(x, int):
        return Cyc7.from_int(x)
    if isinstance(x, Fraction):
        return Cyc7.from_rat(x)
    return NotImplemented


_GALOIS_TABLES = None


def _galois_tables():
    """mats[p][k] = integer coefficient vector of z^(k * 3^p) on the basis."""
    global _GALOIS_TABLES
    if _GALOIS_TABLES is None:
        mats = []
        for p in range(6):
            e = pow(3, p, 7)
            mats.append([Cyc7.zeta(k * e).num for k in range(6)])
        _GALOIS_TABLES = mats
    return _GALOIS_TABLES


# ---------------------------------------------------------------------------
# named constants of the character tables


def zeta(k: int = 1) -> Cyc7:
    return Cyc7.zeta(k)


def gauss_sum() -> Cyc7:
    """sum_{k=0}^{6} z^(k^2) = 1 + 2(z + z^2 + z^4); its square is -7."""
    out = Cyc7.from_int(0)
    for k in range(7):
        out = out + Cyc7.zeta(k * k)
    return out


def lam(i: int) -> Cyc7:
    """lambda_i: z - z^6, z^4 - z^3, z^2 - z^5 for i = 1, 2, 3."""
    e = [None, 1, 4, 2][i]
    return Cyc7.zeta(e) - Cyc7.zeta(-e)


def eta(i: int) -> Cyc7:
    """eta_i: z + z^6, z^4 + z^3, z^2 + z^5 for i = 1, 2, 3."""
    e = [None, 1, 4, 2][i]
    return Cyc7.zeta(e) + Cyc7.zeta(-e)


def alpha_plus() -> Cyc7:
    return (Cyc7.from_int(1) + gauss_sum()) * Cyc7.from_rat(Fraction(1, 2))


def alpha_minus() -> Cyc7:
    return (Cyc7.from_int(1) - gauss_sum()) * Cyc7.from_rat(Fraction(1, 2))


def galois_theta(x: Cyc7, power: int = 1) -> Cyc7:
    return _as_cyc(x).galois(power)


# ---------------------------------------------------------------------------


class FieldElem:
    """Element a + b*sqrt(2) of Q(zeta7)(sqrt2)."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        a2 = _as_cyc(a)
        b2 = _as_cyc(b)
        if a2 is NotImplemented or b2 is NotImplemented:
            raise TypeError("FieldElem parts must be Cyc7/int/Fraction")
        self.a = a2
        self.b = b2

    @staticmethod
    def sqrt2() -> "FieldElem":
        return FieldElem(0, 1)

    def __add__(self, other):
        other = _as_fe(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElem(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __neg__(self):
        return FieldElem(-self.a, -self.b)

    def __sub__(self, other):
        other = _as_fe(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _as_fe(other) - self

    def __mul__(self, other):
        other = _as_fe(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElem(
            self.a * other.a + 2 * (self.b * other.b),
            self.a * other.b + self.b * other.a,
        )

    __rmul__ = __mul__

    def inv(self) -> "FieldElem":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero in Q(zeta7)(sqrt2)")
        nrm = self.a * self.a - 2 * (self.b * self.b)
        ni = nrm.inv()
        return FieldElem(self.a * ni, -(self.b * ni))

    def __truediv__(self, other):
        other = _as_fe(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return _as_fe(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return (self ** (-n)).inv()
        r = FieldElem(1, 0)
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b
            n >>= 1
        return r

    def is_zero(self) -> bool:
        return self.a.is_zero() and self.b.is_zero()

    def is_rational(self) -> bool:
        return self.b.is_zero() and self.a.is_rational()

    def rational_value(self) -> Fraction:
        if not self.b.is_zero():
            raise ValueError(f"{self} is not rational")
        return self.a.rational_value()

    def conj(self) -> "FieldElem":
        """Complex conjugation (sqrt2 is real)."""
        return FieldElem(self.a.conj(), self.b.conj())

    def galois(self, power: int = 1) -> "FieldElem":
        return FieldElem(self.a.galois(power), self.b.galois(power))

    def __eq__(self, other):
        other = _as_fe(other)
        if other is NotImplemented:
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        # equal to the hash of the Cyc7 it equals when the sqrt2 part is zero
        return hash(self.a) if self.b.is_zero() else hash((self.a, self.b))

    def __repr__(self):
        return f"FieldElem({render_field(self)!r})"

    def __str__(self):
        return render_field(self)


def _as_fe(x):
    if isinstance(x, FieldElem):
        return x
    c = _as_cyc(x)
    if c is NotImplemented:
        return NotImplemented
    return FieldElem(c, 0)


class DualNum:
    """a + b*eps with eps^2 = 0; parts live in a coefficient domain."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __eq__(self, other):
        return isinstance(other, DualNum) and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return f"DualNum({self.a!r}, {self.b!r})"


# ---------------------------------------------------------------------------
# rendering and parsing: `a0 + a1*z + ... (+ (b0 + ...)*r2)`


def _render_rat(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def render_cyc(x: Cyc7) -> str:
    parts = []
    for k, n in enumerate(x.num):
        if n == 0:
            continue
        q = Fraction(n, x.den)
        if k == 0:
            parts.append(_render_rat(q))
        elif q == 1:
            parts.append("z" if k == 1 else f"z^{k}")
        elif q == -1:
            parts.append("-z" if k == 1 else f"-z^{k}")
        else:
            parts.append(f"{_render_rat(q)}*z" + ("" if k == 1 else f"^{k}"))
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def render_field(x: FieldElem) -> str:
    if x.b.is_zero():
        return render_cyc(x.a)
    bs = render_cyc(x.b)
    rb = "r2" if bs == "1" else ("-r2" if bs == "-1" else f"({bs})*r2")
    if x.a.is_zero():
        return rb
    return f"{render_cyc(x.a)} + {rb}" if not rb.startswith("-") else f"{render_cyc(x.a)} - {rb[1:]}"


class _Scanner:
    def __init__(self, s: str):
        self.s = s
        self.i = 0

    def peek(self):
        while self.i < len(self.s) and self.s[self.i].isspace():
            self.i += 1
        return self.s[self.i] if self.i < len(self.s) else ""

    def take(self, ch=None):
        c = self.peek()
        if ch is not None and c != ch:
            raise ValueError(f"expected {ch!r} at position {self.i} in {self.s!r}")
        self.i += 1
        return c

    def number(self) -> int:
        c = self.peek()
        j = self.i
        while j < len(self.s) and self.s[j].isdigit():
            j += 1
        if j == self.i:
            raise ValueError(f"expected number at position {self.i} in {self.s!r}")
        n = int(self.s[self.i : j])
        self.i = j
        return n


def _parse_atom(sc: _Scanner) -> FieldElem:
    c = sc.peek()
    if c == "(":
        sc.take("(")
        v = _parse_sum(sc)
        sc.take(")")
        return v
    if c.isdigit():
        n = sc.number()
        if sc.peek() == "/":
            sc.take("/")
            d = sc.number()
            return _as_fe(Fraction(n, d))
        return _as_fe(n)
    if c == "z":
        sc.take()
        if sc.peek() == "^":
            sc.take("^")
            return _as_fe(Cyc7.zeta(sc.number()))
        return _as_fe(Cyc7.zeta(1))
    if c == "r":
        sc.take()
        sc.take("2")
        return FieldElem.sqrt2()
    raise ValueError(f"unexpected character {c!r} at position {sc.i} in {sc.s!r}")


def _parse_term(sc: _Scanner) -> FieldElem:
    neg = False
    while sc.peek() in ("+", "-"):
        if sc.take() == "-":
            neg = not neg
    v = _parse_atom(sc)
    while sc.peek() == "*":
        sc.take("*")
        v = v * _parse_atom(sc)
    return -v if neg else v


def _parse_sum(sc: _Scanner) -> FieldElem:
    v = _parse_term(sc)
    while sc.peek() in ("+", "-"):
        sign = 1 if sc.peek() == "+" else -1
        sc.take()
        t = _parse_term(sc)
        v = v + t if sign == 1 else v - t
    return v


def parse_field(s: str) -> FieldElem:
    """Parse the grammar produced by render_field (z = zeta7, r2 = sqrt2)."""
    sc = _Scanner(s)
    v = _parse_sum(sc)
    if sc.peek() != "":
        raise ValueError(f"trailing input at position {sc.i} in {s!r}")
    return v


def parse_cyc(s: str) -> Cyc7:
    v = parse_field(s)
    if not v.b.is_zero():
        raise ValueError(f"{s!r} is not in Q(zeta7)")
    return v.a


# ---------------------------------------------------------------------------
# Coefficient-domain adapters used by the polynomial layer.


class RatDomain:
    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def inv(a):
        return 1 / a

    @staticmethod
    def is_zero(a):
        return a == 0

    @staticmethod
    def coerce(x):
        return Fraction(x)

    @staticmethod
    def fmt(a):
        return _render_rat(a)

    @staticmethod
    def is_unit_coeff(a):
        return a == 1

    @staticmethod
    def needs_parens(a):
        return False


class FpDomain:
    def __init__(self, p: int):
        if p in (2, 7):
            raise ValueError("prime modulus must avoid 2 and 7")
        for d in range(2, int(p**0.5) + 1):
            if p % d == 0:
                raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in F{self.p}")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def coerce(self, x):
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator vanishes in F{self.p}")
            return x.numerator * pow(x.denominator, self.p - 2, self.p) % self.p
        return int(x) % self.p

    def fmt(self, a):
        return str(a % self.p)

    def is_unit_coeff(self, a):
        return a % self.p == 1

    @staticmethod
    def needs_parens(a):
        return False

    def __eq__(self, other):
        return isinstance(other, FpDomain) and other.p == self.p

    def __hash__(self):
        return hash(("FpDomain", self.p))


class _ExactFieldOps:
    """Domain operations shared by the Cyc7 and FieldElem domains."""

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def inv(a):
        return a.inv()

    @staticmethod
    def is_zero(a):
        return a.is_zero()


class CycDomain(_ExactFieldOps):
    """Q(zeta7) as a coefficient domain."""

    name = "Q(z7)"
    zero = Cyc7.from_int(0)
    one = Cyc7.from_int(1)

    @staticmethod
    def coerce(x):
        if isinstance(x, FieldElem):
            if not x.b.is_zero():
                raise ValueError(f"{x} is not in Q(zeta7)")
            return x.a
        v = _as_cyc(x)
        if v is NotImplemented:
            raise TypeError(f"cannot coerce {x!r} into Q(zeta7)")
        return v

    @staticmethod
    def fmt(a):
        return render_cyc(a)

    @staticmethod
    def is_unit_coeff(a):
        return a == CycDomain.one

    @staticmethod
    def needs_parens(a):
        return not a.is_rational()


class FieldDomain(_ExactFieldOps):
    """Q(zeta7)(sqrt2) as a coefficient domain."""

    name = "Q(z7,r2)"
    zero = FieldElem(0, 0)
    one = FieldElem(1, 0)

    @staticmethod
    def coerce(x):
        v = _as_fe(x)
        if v is NotImplemented:
            raise TypeError(f"cannot coerce {x!r} into Q(zeta7)(sqrt2)")
        return v

    @staticmethod
    def fmt(a):
        return render_field(a)

    @staticmethod
    def is_unit_coeff(a):
        return a == FieldElem(1, 0)

    @staticmethod
    def needs_parens(a):
        return not (a.b.is_zero() and a.a.is_rational())


class DualDomain:
    """Dual numbers base[eps]/(eps^2) over a coefficient domain."""

    def __init__(self, base):
        self.base = base
        self.name = f"{base.name}[eps]"
        self.zero = DualNum(base.zero, base.zero)
        self.one = DualNum(base.one, base.zero)

    def add(self, x, y):
        return DualNum(self.base.add(x.a, y.a), self.base.add(x.b, y.b))

    def sub(self, x, y):
        return DualNum(self.base.sub(x.a, y.a), self.base.sub(x.b, y.b))

    def mul(self, x, y):
        b = self.base
        return DualNum(b.mul(x.a, y.a), b.add(b.mul(x.a, y.b), b.mul(x.b, y.a)))

    def neg(self, x):
        return DualNum(self.base.neg(x.a), self.base.neg(x.b))

    def inv(self, x):
        # (a + b eps)^-1 = a^-1 - a^-2 b eps, needs a invertible
        ai = self.base.inv(x.a)
        return DualNum(ai, self.base.neg(self.base.mul(self.base.mul(ai, ai), x.b)))

    def is_zero(self, x):
        return self.base.is_zero(x.a) and self.base.is_zero(x.b)

    def coerce(self, x):
        if isinstance(x, DualNum):
            return x
        return DualNum(self.base.coerce(x), self.base.zero)

    def eps(self):
        return DualNum(self.base.zero, self.base.one)

    def fmt(self, x):
        if self.base.is_zero(x.b):
            return self.base.fmt(x.a)
        return f"{self.base.fmt(x.a)} + ({self.base.fmt(x.b)})*eps"

    def is_unit_coeff(self, x):
        return self.base.is_unit_coeff(x.a) and self.base.is_zero(x.b)

    @staticmethod
    def needs_parens(a):
        return True


QQ = RatDomain()
CYC = CycDomain()
FF = FieldDomain()


def fp(p: int = 31) -> FpDomain:
    return FpDomain(p)
