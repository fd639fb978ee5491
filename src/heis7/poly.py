"""Sparse multivariate polynomials over an exact coefficient domain.

A VarRegistry fixes an ordered tuple of variable names.  Monomials are
dense exponent tuples over the registry; polynomials map exponent tuples to
nonzero coefficients of the attached domain.

Monomials are ordered graded reverse lexicographically over all of a
registry's variables.

A product over Q runs on integers: each factor's coefficients are brought
over one common denominator, the numerators are multiplied and summed as
ints, and each output term becomes one Fraction over the product of the two
denominators.  Over F_p and the other domains the product runs on the
domain's own mul and add.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add

from .field import QQ, _field_atom, _join_terms, _render_term, _Scanner


class VarRegistry:
    """Named, ordered variable set."""

    __slots__ = ("names", "_index")

    def __init__(self, names):
        self.names = tuple(names)
        self._index = {n: i for i, n in enumerate(self.names)}

    @property
    def n(self):
        return len(self.names)

    def index(self, name: str) -> int:
        return self._index[name]

    def __eq__(self, other):
        return isinstance(other, VarRegistry) and self.names == other.names

    def __hash__(self):
        return hash(self.names)

    def __repr__(self):
        return f"VarRegistry({self.names!r})"


REG_X = VarRegistry([f"x{i}" for i in range(7)])
REG_U = VarRegistry([f"u{i}" for i in range(4)])
REG_Y = VarRegistry(["y1", "y2", "y3"])
REG_V = VarRegistry(["v1", "v2", "v3"])
REG_T = VarRegistry([f"t{i}" for i in range(4)])
REG_TU = VarRegistry(REG_T.names + REG_U.names)


def grevlex_key(exp):
    """Sort key: max() of keys picks the grevlex-leading monomial."""
    return (sum(exp), tuple(-e for e in reversed(exp)))


class Poly:
    """Sparse polynomial: dict from exponent tuples to nonzero coefficients."""

    __slots__ = ("reg", "dom", "terms")

    def __init__(self, reg: VarRegistry, dom, terms=None, _clean=False):
        self.reg = reg
        self.dom = dom
        if terms is None:
            self.terms = {}
        elif _clean:
            self.terms = terms
        else:
            self.terms = {e: c for e, c in terms.items() if not dom.is_zero(c)}

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(reg, dom=QQ):
        return Poly(reg, dom, {}, _clean=True)

    @staticmethod
    def const(reg, c, dom=QQ):
        c = dom.coerce(c)
        if dom.is_zero(c):
            return Poly.zero(reg, dom)
        return Poly(reg, dom, {(0,) * reg.n: c}, _clean=True)

    @staticmethod
    def var(reg, name, dom=QQ):
        e = [0] * reg.n
        e[reg.index(name)] = 1
        return Poly(reg, dom, {tuple(e): dom.one}, _clean=True)

    @staticmethod
    def monomial(reg, exp, c, dom=QQ):
        c = dom.coerce(c)
        if dom.is_zero(c):
            return Poly.zero(reg, dom)
        return Poly(reg, dom, {tuple(exp): c}, _clean=True)

    # -- ring operations --------------------------------------------------

    def _coerce_other(self, other):
        if isinstance(other, Poly):
            if other.reg != self.reg:
                raise ValueError(f"registry mismatch: {self.reg} vs {other.reg}")
            return other
        try:
            return Poly.const(self.reg, other, self.dom)
        except (TypeError, ValueError):
            return None

    def __add__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        dom = self.dom
        out = dict(self.terms)
        for e, c in o.terms.items():
            s = dom.add(out.get(e, dom.zero), c)
            if dom.is_zero(s):
                out.pop(e, None)
            else:
                out[e] = s
        return Poly(self.reg, dom, out, _clean=True)

    __radd__ = __add__

    def __neg__(self):
        dom = self.dom
        return Poly(self.reg, dom, {e: dom.neg(c) for e, c in self.terms.items()}, _clean=True)

    def __sub__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            try:
                c = self.dom.coerce(other)
            except (TypeError, ValueError):
                return NotImplemented
            return self.scale(c)
        o = self._coerce_other(other)
        dom = self.dom
        if dom is QQ:
            # integer numerators over one denominator per factor, one
            # Fraction per output term; a term leaves the sum when its
            # partial sum vanishes, as in the loop below, so the terms come
            # out in the same order
            d1 = lcm(*(c.denominator for c in self.terms.values()))
            d2 = lcm(*(c.denominator for c in o.terms.values()))
            right = [(e, c.numerator * (d2 // c.denominator)) for e, c in o.terms.items()]
            out = {}
            for e1, c1 in self.terms.items():
                a = c1.numerator * (d1 // c1.denominator)
                for e2, b in right:
                    e = tuple(map(add, e1, e2))
                    s = out.get(e, 0) + a * b
                    if s:
                        out[e] = s
                    else:
                        out.pop(e, None)
            d = d1 * d2
            for e, n in out.items():
                out[e] = Fraction(n, d)
            return Poly(self.reg, dom, out, _clean=True)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                p = dom.mul(c1, c2)
                s = dom.add(out.get(e, dom.zero), p)
                if dom.is_zero(s):
                    out.pop(e, None)
                else:
                    out[e] = s
        return Poly(self.reg, dom, out, _clean=True)

    __rmul__ = __mul__

    def scale(self, c):
        dom = self.dom
        c = dom.coerce(c)
        if dom.is_zero(c):
            return Poly.zero(self.reg, dom)
        return Poly(self.reg, dom, {e: dom.mul(v, c) for e, v in self.terms.items()}, _clean=True)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        r = Poly.const(self.reg, 1, self.dom)
        b = self
        while n:
            if n & 1:
                r = r * b
            b = b * b if n > 1 else b
            n >>= 1
        return r

    # -- structure -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def coeff(self, exp):
        return self.terms.get(tuple(exp), self.dom.zero)

    def map_coeffs(self, f, dom=None):
        dom = dom or self.dom
        return Poly(self.reg, dom, {e: f(c) for e, c in self.terms.items()})

    def transport(self, reg: VarRegistry):
        """Reinterpret over a same-arity registry (e.g. v-variables as y)."""
        if reg.n != self.reg.n:
            raise ValueError("registry arity mismatch")
        return Poly(reg, self.dom, dict(self.terms), _clean=True)

    # -- calculus and substitution ----------------------------------------

    def diff(self, var_index: int, times: int = 1):
        dom = self.dom
        out = {}
        for e, c in self.terms.items():
            a = e[var_index]
            if a < times:
                continue
            f = 1
            for k in range(times):
                f *= a - k
            e2 = list(e)
            e2[var_index] = a - times
            v = dom.mul(c, dom.coerce(f))
            if not dom.is_zero(v):
                out[tuple(e2)] = v
        return Poly(self.reg, dom, out, _clean=True)

    def substitute(self, images):
        """Replace variable i by images[i] (a Poly over the target registry).

        One route for any images, constants and single variables included:
        each term is the product of the cached powers of its variables'
        images.  Composition law: substituting by g then by h equals
        substituting by the map sending each variable first through g, then
        through h.
        """
        if len(images) != self.reg.n:
            raise ValueError("need one image per variable")
        tgt = images[0].reg
        dom = images[0].dom
        out = Poly.zero(tgt, dom)
        pow_cache = [{0: Poly.const(tgt, 1, dom)} for _ in range(self.reg.n)]
        for e, c in self.terms.items():
            term = Poly.const(tgt, c if dom is self.dom else dom.coerce(c), dom)
            for i, a in enumerate(e):
                if a == 0:
                    continue
                cache = pow_cache[i]
                if a not in cache:
                    m = max(cache)
                    cur = cache[m]
                    while m < a:
                        cur = cur * images[i]
                        m += 1
                        cache[m] = cur
                term = term * cache[a]
            out = out + term
        return out

    def evaluate(self, point):
        """Evaluate at a point (list of domain elements)."""
        dom = self.dom
        total = dom.zero
        for e, c in self.terms.items():
            v = c
            for i, a in enumerate(e):
                for _ in range(a):
                    v = dom.mul(v, point[i])
            total = dom.add(total, v)
        return total

    # -- comparison and display --------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.reg == other.reg and self.terms == other.terms
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash((self.reg, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Poly({render_poly(self)!r})"

    def __str__(self):
        return render_poly(self)


def linear_form(reg, coeffs, dom=QQ):
    """sum coeffs[i] * reg.names[i]."""
    terms = {}
    for i, c in enumerate(coeffs):
        cc = dom.coerce(c)
        if not dom.is_zero(cc):
            e = [0] * reg.n
            e[i] = 1
            terms[tuple(e)] = cc
    return Poly(reg, dom, terms, _clean=True)


# ---------------------------------------------------------------------------
# text form: `3*x0^2*x1 - x2*x3 + (z^2)*x4`, in the field module's grammar


def render_poly(p: Poly) -> str:
    terms = []
    for e in sorted(p.terms, key=grevlex_key, reverse=True):
        mono = "*".join(
            n if a == 1 else f"{n}^{a}" for n, a in zip(p.reg.names, e) if a
        )
        terms.append(_render_term(p.dom.fmt(p.terms[e]), mono))
    return _join_terms(terms)


def parse_poly(s: str, reg: VarRegistry, dom=QQ) -> Poly:
    """Parse the text grammar of the field module.  The atoms are a
    parenthesized field element, a rational and a variable of reg with an
    optional `^k`; a coefficient outside dom is a ValueError."""

    def atom(sc):
        if sc.peek() == "(" or sc.peek().isdigit():
            c = _field_atom(sc)
            try:
                return Poly.const(reg, c.rational_value() if c.is_rational() else c, dom)
            except (TypeError, ZeroDivisionError):
                raise ValueError(f"coefficient {c} of {s!r} is not in {dom.name}") from None
        w = sc.name()
        if w not in reg.names:
            raise ValueError(f"unknown variable {w!r} for registry {reg.names}")
        e = [0] * reg.n
        e[reg.index(w)] = sc.power()
        return Poly.monomial(reg, e, 1, dom)

    return _Scanner(s).parse(atom)


# ---------------------------------------------------------------------------
# differential operators with rational coefficients


class DiffOp:
    """Constant-coefficient operator: polynomial in the partials of a registry.

    Exponent tuples give the order of each partial; application is plain
    repeated partial differentiation (no factorial normalization).
    """

    __slots__ = ("reg", "terms")

    def __init__(self, reg: VarRegistry, terms):
        self.reg = reg
        self.terms = {tuple(e): Fraction(c) for e, c in terms.items() if c != 0}

    def order(self) -> int:
        return max((sum(e) for e in self.terms), default=-1)

    def apply(self, f: Poly) -> Poly:
        if f.reg != self.reg:
            raise ValueError("operator/polynomial registry mismatch")
        dom = f.dom
        out = Poly.zero(f.reg, dom)
        for e, c in self.terms.items():
            g = f
            for i, k in enumerate(e):
                if k:
                    g = g.diff(i, k)
                if g.is_zero():
                    break
            if not g.is_zero():
                out = out + g.scale(dom.coerce(c))
        return out

    def __repr__(self):
        names = [f"d{n}" for n in self.reg.names]
        parts = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(f"{names[i]}^{a}" if a > 1 else names[i] for i, a in enumerate(e) if a)
            parts.append(f"{c}*{mono}" if mono else str(c))
        return "DiffOp(" + " + ".join(parts) + ")"


def monomial_basis(reg: VarRegistry, d: int):
    """All exponent tuples of total degree d, in descending grevlex order."""
    if d < 0:
        return []
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for a in range(remaining, -1, -1):
            rec(prefix + (a,), remaining - a, slots - 1)

    rec((), d, reg.n)
    out.sort(key=grevlex_key, reverse=True)
    return out


def coefficient_rows(polys, monos) -> list:
    """One row per polynomial: its coefficients at `monos`, which must hold
    every monomial of every polynomial."""
    ix = {e: i for i, e in enumerate(monos)}
    rows = []
    for p in polys:
        row = [p.dom.zero] * len(monos)
        for e, c in p.terms.items():
            row[ix[e]] = c
        rows.append(row)
    return rows


def kernel_of_operators(ops, d: int, reg: VarRegistry = None):
    """Echelonized basis over Q of {f homogeneous of degree d : D f = 0 for
    all D}; DiffOp coefficients are Fractions."""
    from .linalg import nullspace

    if reg is None:
        if not ops:
            raise ValueError("need a registry when the operator list is empty")
        reg = ops[0].reg
    basis = monomial_basis(reg, d)
    if not ops:
        return [Poly.monomial(reg, e, 1) for e in basis]
    rows = []
    for op in ops:
        if op.order() > d:
            continue
        targets = monomial_basis(reg, d - op.order())
        tix = {e: i for i, e in enumerate(targets)}
        block = [[QQ.zero] * len(basis) for _ in range(len(targets))]
        for j, e in enumerate(basis):
            img = op.apply(Poly.monomial(reg, e, 1))
            for te, c in img.terms.items():
                block[tix[te]][j] = c
        rows.extend(block)
    if not rows:
        return [Poly.monomial(reg, e, 1) for e in basis]
    ker = nullspace(rows, QQ, len(basis))
    return [
        Poly(reg, QQ, {basis[i]: c for i, c in enumerate(v) if not QQ.is_zero(c)})
        for v in ker
    ]
