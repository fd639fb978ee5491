"""Exact arithmetic in Q, Q(zeta7), Q(zeta7)(sqrt2) and prime fields.

Conventions
-----------
* ``z`` denotes the primitive 7th root of unity zeta7.  Elements of Q(zeta7)
  are stored on the power basis 1, z, ..., z^5 modulo the 7th cyclotomic
  polynomial 1 + z + ... + z^6, so every element has a unique canonical form.
* ``r2`` denotes sqrt(2), adjoined as a formal quadratic generator:
  a FieldElem is a pair (a, b) of Cyc7 values meaning a + b*r2 with r2^2 = 2.
* i*sqrt(7) is never a separate generator; it is the quadratic Gauss sum
  1 + 2(z + z^2 + z^4) inside Q(zeta7).
* Fp is the prime field Z/p for a prime p not in {2, 7} and below PRIME_LIMIT
  (deterministic Miller-Rabin); elements are plain ints in
  [0, p), wrapped by the FpDomain adapter below.

The polynomial layer, linear algebra (linalg) and the Groebner engine take
two coefficient domains: QQ (RatDomain, Fraction) and fp(p) (FpDomain).  G7
class functions, polynomial-span traces and the 7x7 matrices live in
Q(zeta7) as Cyc7 and CycArray values; only the SL2(F7) character table needs
sqrt2, and a FieldElem is built only for a value with a nonzero sqrt2 part:
that table's rows are ints and Cyc7 values besides FieldElem.sqrt2() at two
classes, CycArray.tolist reads a tower value without a sqrt2 part as a
Cyc7, and the text grammar's atoms are Cyc7 unless r2 enters (parse_field
still returns a FieldElem).  Cyc7 and FieldElem mix freely: an operation
with a FieldElem operand returns a FieldElem, and a FieldElem with zero
sqrt2 part equals (and hashes like) its Cyc7.

Field elements and polynomials share one text grammar: render_cyc,
render_field and poly.render_poly write it, parse_cyc, parse_field and
poly.parse_poly read it with one scanner.

    sum  := term (("+" | "-") term)*
    term := ("+" | "-")* atom ("*" atom)*

Whitespace between tokens is ignored, and each reader supplies its atoms.  A
field element's atoms are "(" sum ")", a rational n or n/d (decimal digits,
d != 0), z or z^k, and r2.  A rendered coefficient is put in parentheses
exactly when it is not a plain signed rational.

Internally Cyc7 keeps an integer 6-vector plus a positive common denominator,
reduced by gcd.

Batches of values (class functions, 7x7 matrices, traces of many matrices)
are CycArray: one integer array whose last axis holds the 6 power-basis
coordinates, over one Python-int common denominator; the sqrt2 tower adds a
second-to-last axis of length 2 for the a and b of a + b*r2.  A product is
a matmul against the fixed structure tensor of the basis, a Galois twist
one matmul against a 6x6 integer matrix, and each result is normalised by
one gcd over the whole array.  Every integer matrix product goes through
one helper, _imatmul, which each operation hands a bound on the sum of the
absolute values of the terms of any output entry, computed from the
operands' largest numerators.  The bound picks the route: below 2^53 the
product runs in float64 (BLAS), where every such integer and partial sum
is exact; below 2^62 in int64; otherwise on Python-int (dtype=object)
arrays.  The numerators are int64 while every one is below 2^62 and Python
ints otherwise, so no value is ever rounded or reduced modulo 2^64.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm, prod

import numpy as np

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


# ---------------------------------------------------------------------------
# batches of Q(zeta7) values as integer arrays

_WIDE = 1 << 62  # numerators at or above this bound live in Python ints
_EXACT_FLOAT = 1 << 53  # integer products below this bound run in float64


def _product_table(width: int):
    """(T, norm): row width*i + j of T holds the coordinates of e_i * e_j.

    Width 6 is the basis 1, z, ..., z^5 mod Phi_7; width 12 is the tower
    basis r2^s z^k at 6s + k, with r2^2 = 2.  `norm` bounds the absolute
    sum over any output coordinate's column, for the overflow rule.
    """
    t6 = [Cyc7.zeta(i + j).num for i in range(6) for j in range(6)]
    rows = t6
    if width == 12:
        rows = []
        for s in range(2):
            for i in range(6):
                for u in range(2):
                    c, part = (2, 0) if s + u == 2 else (1, s + u)
                    for j in range(6):
                        row = [0] * 12
                        row[6 * part : 6 * part + 6] = [c * v for v in t6[6 * i + j]]
                        rows.append(row)
    norm = max(sum(abs(row[k]) for row in rows) for k in range(width))
    return np.array(rows, dtype=np.int64), norm


_PRODUCT = {6: _product_table(6), 12: _product_table(12)}
_GALOIS = np.array(_galois_tables(), dtype=np.int64)  # [p][k]: z^k -> z^(k 3^p)


def _top(a) -> int:
    """Largest absolute numerator of an integer array (0 when empty)."""
    return int(np.abs(a).max()) if a.size else 0


def _wide(bound: int, *arrays):
    """The arrays unchanged while `bound` < 2^62, else as Python-int arrays."""
    if bound < _WIDE:
        return arrays
    return tuple(a.astype(object) for a in arrays)


def _imatmul(x, y, bound: int):
    """x @ y for integer-valued arrays, exactly, where `bound` bounds the sum
    of the absolute values of the terms of every entry, so every partial
    sum in any order.  Below 2^53 it runs in float64 (BLAS) and returns
    float64, for the caller to accumulate in and _ints to turn back to
    int64; below 2^62 in int64; otherwise on Python ints.  A zero bound
    means a zero operand, whose partner need not fit a float."""
    if y.ndim == 2 and x.ndim > 2:  # one product over all of x's rows
        rows = x.reshape(prod(x.shape[:-1]), x.shape[-1])
        return _imatmul(rows, y, bound).reshape(*x.shape[:-1], y.shape[-1])
    if 0 < bound < _EXACT_FLOAT:
        return x.astype(np.float64, copy=False) @ y.astype(np.float64, copy=False)
    x, y = _wide(bound, x, y)
    return x @ y


def _float_route(a, bound: int):
    """a in float64 where `bound` selects _imatmul's float route, else
    unchanged: an operand handed to _imatmul once per basis coordinate is
    converted once."""
    return a.astype(np.float64) if 0 < bound < _EXACT_FLOAT else a


def _ints(a):
    """An _imatmul result as an integer array: float64 becomes int64."""
    return a.astype(np.int64) if a.dtype == np.float64 else a


class CycArray:
    """A batch of Q(zeta7) values, or of Q(zeta7)(sqrt2) values when `r2`.

    `num` has the batch shape followed by the coordinate axes: (6,) for the
    power basis 1..z^5, or (2, 6) in the tower, num[..., s, k] being the
    coordinate of r2^s z^k.  Every value is num / den for one positive
    Python-int `den`, and the constructor divides num and den by their gcd,
    so equal batches have equal (num, den).  num is int64 when every
    numerator is below 2^62 in absolute value and a dtype=object array of
    Python ints otherwise (see the module docstring for the overflow rule).
    Indexing acts on the batch axes only.
    """

    __slots__ = ("num", "den", "r2")

    def __init__(self, num, den: int = 1, r2: bool = False):
        num = np.asarray(num)
        if den <= 0:
            raise ValueError("CycArray denominator must be positive")
        if num.dtype != object:
            if num.dtype.kind not in "iu" and num.size:
                raise TypeError(f"CycArray numerators must be integers, not {num.dtype}")
            num = num.astype(np.int64, copy=False)
        if den > 1:  # over den 1 the gcd cannot reduce anything
            h = int(np.gcd.reduce(num.ravel())) if num.size else 0
            if h == 0:
                den = 1
            else:
                g = gcd(den, h)
                if g > 1:
                    num = num // g
                    den //= g
        if num.dtype == object and _top(num) < _WIDE:
            num = num.astype(np.int64)
        self.num = num
        self.den = den
        self.r2 = r2

    # -- conversions ---------------------------------------------------

    @staticmethod
    def from_values(values) -> "CycArray":
        """A 1-d batch of Cyc7/int/Fraction values; any FieldElem among
        them puts the whole batch in the sqrt2 tower."""
        vals = list(values)
        r2 = any(isinstance(v, FieldElem) for v in vals)
        conv = _as_fe if r2 else _as_cyc
        parts = []
        for v in vals:
            c = conv(v)
            if c is NotImplemented:
                raise TypeError(f"cannot put {v!r} in a CycArray")
            parts.append((c.a, c.b) if r2 else (c,))
        den = lcm(1, *(c.den for p in parts for c in p))
        flat = [n * (den // c.den) for p in parts for c in p for n in c.num]
        num = np.array(flat, dtype=np.int64 if max(map(abs, flat), default=0) < _WIDE else object)
        return CycArray(num.reshape(len(vals), *((2, 6) if r2 else (6,))), den, r2)

    @staticmethod
    def from_ints(ints) -> "CycArray":
        """The rational integers of an int64-sized integer array, as a batch
        of its shape."""
        ints = np.asarray(ints, dtype=np.int64)
        num = np.zeros(ints.shape + (6,), dtype=np.int64)
        num[..., 0] = ints
        return CycArray(num)

    def tolist(self):
        """The values as nested lists of Cyc7, or FieldElem for a tower
        value with a nonzero sqrt2 part; a batch of shape () gives one
        value."""
        den = self.den

        def build(x, depth):
            if depth:
                return [build(y, depth - 1) for y in x]
            if self.r2:
                a = Cyc7(x[0], den)
                return FieldElem(a, Cyc7(x[1], den)) if any(x[1]) else a
            return Cyc7(x, den)

        return build(self.num.tolist(), len(self.shape))

    def nonzero(self):
        """Boolean array of the batch shape: where the value is not 0."""
        return (self._flat() != 0).any(axis=-1)

    # -- shape ---------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.num.shape[: -2 if self.r2 else -1]

    def _flat(self):
        """num with the coordinates on one last axis (width 6 or 12)."""
        return self.num.reshape(*self.shape, 12) if self.r2 else self.num

    @staticmethod
    def _from_flat(flat, den, r2) -> "CycArray":
        flat = _ints(flat)
        return CycArray(flat.reshape(*flat.shape[:-1], 2, 6) if r2 else flat, den, r2)

    def __getitem__(self, index) -> "CycArray":
        return CycArray(self.num[index], self.den, self.r2)

    def reshape(self, *shape) -> "CycArray":
        tail = self.num.shape[len(self.shape) :]
        return CycArray(self.num.reshape(*shape, *tail), self.den, self.r2)

    def swapaxes(self, i: int, j: int) -> "CycArray":
        """Swap two batch axes (given as non-negative indices)."""
        return CycArray(np.swapaxes(self.num, i, j), self.den, self.r2)

    def _lift(self) -> "CycArray":
        """The same values in the sqrt2 tower."""
        if self.r2:
            return self
        return CycArray(np.stack([self.num, np.zeros_like(self.num)], axis=-2), self.den, True)

    def lower(self) -> "CycArray":
        """The same values in Q(zeta7) when every sqrt2 part is zero, else
        self, still in the tower (where a nonzero part compares exactly)."""
        if self.r2 and not self.num[..., 1, :].any():
            return CycArray(self.num[..., 0, :], self.den)
        return self

    @staticmethod
    def stack(arrays) -> "CycArray":
        """Equal-shape batches stacked along a new first batch axis."""
        r2 = any(a.r2 for a in arrays)
        arrays = [a._lift() if r2 else a for a in arrays]
        den = lcm(*(a.den for a in arrays))
        ups = [den // a.den for a in arrays]
        nums = _wide(max(_top(a.num) * u for a, u in zip(arrays, ups)), *(a.num for a in arrays))
        return CycArray(np.stack([x * u for x, u in zip(nums, ups)]), den, r2)

    def _meet(self, other):
        """(self, other) in one field; a scalar becomes a batch of shape ()."""
        if not isinstance(other, CycArray):
            other = CycArray.from_values([other]).reshape()
        if self.r2 == other.r2:
            return self, other
        return self._lift(), other._lift()

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "CycArray":
        a, b = self._meet(other)
        den = lcm(a.den, b.den)
        ua, ub = den // a.den, den // b.den
        x, y = _wide(_top(a.num) * ua + _top(b.num) * ub, a.num, b.num)
        return CycArray(x * ua + y * ub, den, a.r2)

    def __neg__(self) -> "CycArray":
        return CycArray(-self.num, self.den, self.r2)

    def __sub__(self, other) -> "CycArray":
        return self + (-other)

    def __mul__(self, other) -> "CycArray":
        """Elementwise product, broadcasting the batch shapes."""
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            (x,) = _wide(_top(self.num) * abs(q.numerator), self.num)
            return CycArray(x * q.numerator, self.den * q.denominator, self.r2)
        a, b = self._meet(other)
        x, y = a._flat(), b._flat()
        w = x.shape[-1]
        table, norm = _PRODUCT[w]
        bound = _top(x) * _top(y) * norm
        y = _float_route(y, bound)
        # the sum over basis elements e_i of x's e_i coordinate times y
        # multiplied by e_i: temporaries stay the size of the result
        out = 0
        for i in range(w):
            out = out + x[..., i, None] * _imatmul(y, table[w * i : w * i + w], bound)
        return CycArray._from_flat(out, a.den * b.den, a.r2)

    __rmul__ = __mul__

    def __matmul__(self, other) -> "CycArray":
        """Matrix product over the last two batch axes, broadcasting the
        rest: the sum over basis elements e_i of the matrix of self's e_i
        coordinates times other multiplied by e_i.  Temporaries stay the
        size of the result."""
        a, b = self._meet(other)
        x, y = a._flat(), b._flat()
        w = x.shape[-1]
        table, norm = _PRODUCT[w]
        bound = _top(x) * _top(y) * norm * x.shape[-2]
        y = _float_route(y, bound)
        cols = y.shape[-2] * w
        out = 0
        for i in range(w):
            by_e = _imatmul(y, table[w * i : w * i + w], bound).reshape(*y.shape[:-2], cols)
            out = out + _imatmul(x[..., i], by_e, bound)
        return CycArray._from_flat(out.reshape(*out.shape[:-1], -1, w), a.den * b.den, a.r2)

    def sum(self, axis: int = 0) -> "CycArray":
        """Sum over one batch axis (a non-negative index)."""
        (x,) = _wide(_top(self.num) * self.num.shape[axis], self.num)
        return CycArray(x.sum(axis=axis), self.den, self.r2)

    def trace(self) -> "CycArray":
        """Trace over the last two batch axes."""
        x = self._flat()
        (x,) = _wide(_top(x) * x.shape[-2], x)
        return CycArray._from_flat(np.trace(x, axis1=-3, axis2=-2), self.den, self.r2)

    def trace_dot(self, other) -> "CycArray":
        """tr(self @ other) over the last two batch axes, broadcasting the
        rest, without forming the product: the integer coordinates are
        contracted over both matrix axes first, and the product table is
        applied once to the (coordinate, coordinate) sums."""
        a, b = self._meet(other)
        x, y = a._flat(), b._flat()
        if x.shape[-3:-1] != y.shape[-3:-1][::-1]:
            raise ValueError(f"trace_dot of {a.shape[-2:]} and {b.shape[-2:]} matrices")
        w = x.shape[-1]
        table, norm = _PRODUCT[w]
        cells = x.shape[-3] * x.shape[-2]
        bound = _top(x) * _top(y) * norm * cells
        # x[..., i, j, c] against y[..., j, i, d]: (i, j) flattened on both sides
        x = np.swapaxes(x.reshape(*x.shape[:-3], cells, w), -2, -1)
        y = np.swapaxes(y, -3, -2).reshape(*y.shape[:-3], cells, w)
        pairs = _imatmul(x, y, bound)  # [..., c, d]
        flat = _imatmul(pairs.reshape(*pairs.shape[:-2], w * w), table, bound)
        return CycArray._from_flat(flat, a.den * b.den, a.r2)

    def lincomb(self, coeffs) -> "CycArray":
        """coeffs @ self over the first batch axis, for an integer array
        coeffs whose last axis runs over it: one integer matmul."""
        c = np.asarray(coeffs)
        x = self.num.reshape(self.num.shape[0], -1)
        out = _ints(_imatmul(c, x, _top(c) * c.shape[-1] * _top(x)))
        return CycArray(out.reshape(*c.shape[:-1], *self.num.shape[1:]), self.den, self.r2)

    def galois(self, power: int = 1) -> "CycArray":
        """theta^power on every value, theta(z) = z^3 (sqrt2 is fixed)."""
        out = _ints(_imatmul(self.num, _GALOIS[power % 6], _top(self.num) * 6))
        return CycArray(out, self.den, self.r2)

    def conj(self) -> "CycArray":
        """Complex conjugation, = theta^3."""
        return self.galois(3)

    def __eq__(self, other):
        if not isinstance(other, CycArray):
            return NotImplemented
        a, b = self._meet(other)
        return a.den == b.den and a.num.shape == b.num.shape and bool((a.num == b.num).all())

    __hash__ = None

    def __repr__(self):
        return f"CycArray(shape={self.shape}, den={self.den}, r2={self.r2})"


# ---------------------------------------------------------------------------
# rendering and parsing: the text grammar of the module docstring

_PLAIN_RATIONAL = re.compile(r"-?\d+(/\d+)?")


def _render_rat(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _render_term(c: str, mono: str) -> str:
    """The term with rendered coefficient c on the monomial text mono ("" for
    a constant); c is put in parentheses unless it is a plain signed rational."""
    if not _PLAIN_RATIONAL.fullmatch(c):
        c = f"({c})"
    if not mono:
        return c
    if c == "1":
        return mono
    if c == "-1":
        return f"-{mono}"
    return f"{c}*{mono}"


def _join_terms(terms) -> str:
    """Signed terms as one sum, `a + b - c`; "0" for none."""
    if not terms:
        return "0"
    out = terms[0]
    for t in terms[1:]:
        out += " - " + t[1:] if t.startswith("-") else " + " + t
    return out


def render_cyc(x: Cyc7) -> str:
    terms = []
    for k, n in enumerate(x.num):
        if n:
            mono = "" if k == 0 else "z" if k == 1 else f"z^{k}"
            terms.append(_render_term(_render_rat(Fraction(n, x.den)), mono))
    return _join_terms(terms)


def render_field(x: FieldElem) -> str:
    if x.b.is_zero():
        return render_cyc(x.a)
    bs = render_cyc(x.b)
    rb = "r2" if bs == "1" else ("-r2" if bs == "-1" else f"({bs})*r2")
    return _join_terms([rb] if x.a.is_zero() else [render_cyc(x.a), rb])


class _Scanner:
    """Reader of the text grammar; an atom reader atom(scanner) supplies the
    values that sum, term and parse combine."""

    def __init__(self, s: str):
        self.s = s
        self.i = 0

    def error(self, what: str):
        return ValueError(f"{what} at position {self.i} in {self.s!r}")

    def peek(self):
        while self.i < len(self.s) and self.s[self.i].isspace():
            self.i += 1
        return self.s[self.i] if self.i < len(self.s) else ""

    def take(self, ch=None):
        c = self.peek()
        if ch is not None and c != ch:
            raise self.error(f"expected {ch!r}")
        self.i += 1
        return c

    def _span(self, ok, what: str) -> str:
        self.peek()
        j = self.i
        while j < len(self.s) and ok(self.s[j]):
            j += 1
        if j == self.i:
            raise self.error(f"expected {what}")
        w, self.i = self.s[self.i : j], j
        return w

    def number(self) -> int:
        return int(self._span(str.isdigit, "number"))

    def name(self) -> str:
        return self._span(lambda c: c.isalnum() or c == "_", "name")

    def rational(self) -> Fraction:
        n = self.number()
        if self.peek() != "/":
            return Fraction(n)
        self.take("/")
        d = self.number()
        if d == 0:
            raise self.error("zero denominator")
        return Fraction(n, d)

    def power(self) -> int:
        """The exponent of an optional `^k`; 1 without one."""
        if self.peek() != "^":
            return 1
        self.take("^")
        return self.number()

    def term(self, atom):
        neg = False
        while self.peek() in ("+", "-"):
            neg ^= self.take() == "-"
        v = atom(self)
        while self.peek() == "*":
            self.take("*")
            v = v * atom(self)
        return -v if neg else v

    def sum(self, atom):
        v = self.term(atom)
        while self.peek() in ("+", "-"):
            if self.take() == "+":
                v = v + self.term(atom)
            else:
                v = v - self.term(atom)
        return v

    def parse(self, atom):
        v = self.sum(atom)
        if self.peek() != "":
            raise self.error("trailing input")
        return v


def _field_atom(sc: _Scanner):
    """`( sum )`, a rational, `z` or `z^k`, or `r2`: a Cyc7, or a FieldElem
    where r2 enters."""
    if sc.peek() == "(":
        sc.take("(")
        v = sc.sum(_field_atom)
        sc.take(")")
        return v
    if sc.peek().isdigit():
        return Cyc7.from_rat(sc.rational())
    w = sc.name()
    if w == "z":
        return Cyc7.zeta(sc.power())
    if w == "r2":
        return FieldElem.sqrt2()
    raise sc.error(f"unexpected {w!r}")


def parse_field(s: str) -> FieldElem:
    return _as_fe(_Scanner(s).parse(_field_atom))


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
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def inv(a):
        return 1 / Fraction(a)

    @staticmethod
    def is_zero(a):
        return a == 0

    @staticmethod
    def coerce(x):
        return Fraction(x)

    @staticmethod
    def fmt(a):
        return _render_rat(a)


# Miller-Rabin with the first 13 prime bases decides every n below
# PRIME_LIMIT, the least strong pseudoprime to all of them (Sorenson and
# Webster, Strong pseudoprimes to twelve prime bases, Math. Comp. 86 (2017)).
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality for n < PRIME_LIMIT; ValueError above it."""
    if n >= PRIME_LIMIT:
        raise ValueError(f"{n} is beyond the deterministic primality bound {PRIME_LIMIT}")
    if n < 2:
        return False
    for q in MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FpDomain:
    def __init__(self, p: int):
        if p in (2, 7):
            raise ValueError("prime modulus must avoid 2 and 7")
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1

    def add(self, a, b):
        return (a + b) % self.p

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

    def __eq__(self, other):
        return isinstance(other, FpDomain) and other.p == self.p

    def __hash__(self):
        return hash(("FpDomain", self.p))


QQ = RatDomain()


def fp(p: int) -> FpDomain:
    return FpDomain(p)
