"""The Groebner engine over Q and F_p: ModuleGB, reduced bases, Hilbert data.

One engine.  ModuleGB computes every Groebner basis in heis7: each level
of a free resolution (_level, driven by resolution.py), the reduced bases
of ideals and the module eliminations of resolution.intersect.  An ideal's
generators enter a tracked rank-1 run in one place only: _level, called
by GradedIdeal.level_one, which keeps a complete run.  That run is level 1
of the ideal's resolution, and buchberger only auto-reduces it into the
reduced basis.  There is one pair update and one reduction loop (_reduce),
which normal_form shares.

Packed terms.  A monomial is one Python int.  With field width W = 2^B and
M = W - 1, the exponent tuple e of n variables packs to

    P(e) = deg(e) W^n + sum_k (M - e_k) W^k,

so comparing packed monomials as integers is the grevlex order of
poly.grevlex_key, and multiplying by x^m adds the one integer P(m) - P(0).
While deg(e) <= DEGREE_LIMIT every field keeps its top (guard) bit set, so
e | e' is one subtraction: P(e) - P(e') sets no guard bit (Monagan &
Pearce, Sparse polynomial division using a heap, JSC 46 (2011)).  Packing a
term of higher degree, or reaching one through an S-pair, raises
ValueError, so a packed value never wraps into a wrong order.

Module orders.  A ModuleOrder packs the term (c, e) of a free module as

    K(c, e) = ((P(e) - P(0)) << tb) + base[c],

so a vector is a dict {K: coefficient} whose leading term is max(v), x^m
adds (P(m) - P(0)) << tb to every key, and a leading term divides a term of
its component when their difference sets no guard bit.  The induced order
of a resolution level compares module terms through their images under the
previous level's leading terms, position breaking ties.  Unrolled down to
the ring, (c, e) compares by grevlex(e + shift[c]) and then by tail[c],
where shift[c] sums the leading exponents along component c's chain of
leading terms and tail[c] lists the negated components along that chain, c
last; base[c] is P(shift[c]) << tb plus the rank of tail[c] among the
level's tails, so the integer order is that tuple order (tests/oracles.py
keeps the recursive form).  induced_key_from([ring.one], ring) is the ring
as a rank-1 module, whose keys are the P(e) themselves.  pot_key puts the
component's code above P(e) instead.  Cofactor rows over the inputs are
never ordered, only shifted and added, and use the plain packing
i << nB | sum_k e_k W^k.

Integer coefficients.  The engine runs over Q (QQ) and the prime fields
F_p (FpDomain) only; Coeffs refuses any other domain with ValueError.
Inside it every coefficient is a Python int.  Over F_p it is a value in
[0, p), reduced by an inline % p.  Over Q a vector in flight, with its
cofactor row, is a dict of integer numerators F over one positive
denominator D, and a basis element is a triple (G, RG, L): the monic vector
G/L and its row RG/L, with G[lt] = L > 0 and gcd 1 over G, RG and L.
Reducing the term with numerator a by x^m g is fraction-free: with
h = gcd(a, L),

    F <- (L/h) F - (a/h) x^m G,    D <- D L/h,

and the same on the row and on the terms already set aside.  An S-vector
of two elements is built the same way over lcm(L_i, L_j).  Once D passes
2^CONTENT_BITS the common gcd of D and every numerator is divided out.
Over F_p, L = D = 1 and the step is F <- F - a x^m G.  A value is the same
either way, so zero tests, and with them the dicts' insertion orders, are
those of plain Fraction arithmetic.  Coeffs.step is the one reduction
step, with its F_p and Z loops inline; _reduce and linalg.echelon both
call it.  Inputs enter ModuleGB.add_input in this integer form, and kept
forms and syzygies stay in it, so a resolution hands its syzygies from one
level to the next without conversion and reads only the keys (leading
terms, degrees) of the kept forms.  Values leave through Coeffs.export as
Fractions or ints only where they are read: the kept and elems views of
ModuleGB (hilbert_burch, intersect and minimal_ideal_gens read them), the
reduced basis of GradedIdeal.gb() and GradedIdeal.normal_form.

Forms cross into and out of the engine in one place: ModuleOrder.vector
packs a form per component into a vector of domain values, and
ModuleOrder.forms unpacks such a vector into one form per component.
Outside this module no term is packed or unpacked; resolution.py reads
keys only through ModuleOrder (component, degree, leading term by max).

Pairs (Gebauer & Moeller, On an installation of Buchberger's algorithm,
JSC 6 (1988)).  When an element enters, its pairs with the earlier elements
of its component are pruned by the chain criterion and one pair is kept per
lcm; the queued pairs of that component whose lcm it divides strictly are
dropped.  At rank 1 the product criterion drops pairs with coprime leading
terms.  Pairs are processed by ascending degree and lcm with a fixed
tie-break, and reducers are scanned in insertion order, so runs are
reproducible for a fixed input sequence.  An S-vector is top-reduced: its
reduction stops at the first leading term that no element's leading term
divides, and the element enters with the tail it has then.  Only three
things about a pair's result are used: whether it is zero, its leading
term, and its use as a reducer, where any representative will do; a
reduction to zero takes the same steps either way.  Inputs (add_input),
normal_form and buchberger's auto-reduce reduce fully, so kept forms,
normal forms and reduced bases are the unique ones.

Syzygies.  A tracked ModuleGB gives every element its cofactor row over the
kept inputs.  An S-pair that reduces to zero leaves its row; a pair
dropped by the product criterion leaves its full Koszul relation
g_i * row_t - g_t * row_i, which is what its S-vector's standard
representation would have given; pairs dropped by the chain criterion
leave nothing, as their syzygies are generated by the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
import heapq
from math import comb, gcd, inf, lcm
from operator import add, le

from .field import FpDomain, RatDomain
from .poly import Poly, VarRegistry, monomial_basis, ring_of

B = 8  # bits per exponent field
M = (1 << B) - 1
DEGREE_LIMIT = (1 << (B - 1)) - 1  # the largest degree whose fields keep their guard bit
CONTENT_BITS = 512  # a reduction over Q removes content once its denominator passes 2^512


def check_degree(d, what="degree"):
    """Refuse a term of degree d that would not fit the packed fields."""
    if d > DEGREE_LIMIT:
        raise ValueError(f"{what} {d} exceeds the packed-term limit {DEGREE_LIMIT}")


class Monomials:
    """Packed grevlex monomials in n variables (module docstring)."""

    __slots__ = ("bits", "ones", "one", "low", "guard")

    def __init__(self, n):
        self.bits = n * B
        self.ones = sum(1 << (B * k) for k in range(n))
        self.one = M * self.ones  # P(0)
        self.low = (1 << self.bits) - 1
        self.guard = self.ones << (B - 1)

    def pack(self, e, extra=0):
        """P(e), refused when deg(e) + extra passes DEGREE_LIMIT (a module
        term adds the degree of its component's shift)."""
        p = sum(e)
        check_degree(p + extra)
        for x in reversed(e):
            p = (p << B) | (M - x)
        return p

    def unpack(self, p):
        return tuple(M - (p >> s & M) for s in range(0, self.bits, B))

    def lcm(self, a, b):
        """P(lcm) of two packed monomials: the smaller field of each pair."""
        low, guard = self.low, self.guard
        x, y = a & low, b & low
        ge = (x - (y ^ guard)) & guard  # the guard bit of each field where x >= y
        m = x ^ ((x ^ y) & ((ge << 1) - (ge >> (B - 1))))
        return (self.field_sum(self.one - m) << self.bits) | m

    def field_sum(self, x):
        """Sum of the n fields of x; exact while every partial sum is below W."""
        return (x * self.ones) >> (self.bits - B) & M

    def plain(self, d):
        """sum_k m_k W^k, the row shift of x^m, from d = P(m) - P(0)."""
        return -d & self.low


def _axpy(vec, other, shift, c, p):
    """vec += c * x^m * other in place, over F_p if p else over Z, where x^m
    adds `shift` to each term."""
    get = vec.get
    if p:
        for t, v in other.items():
            t += shift
            x = (get(t, 0) + c * v) % p
            if x:
                vec[t] = x
            else:
                del vec[t]
    else:
        for t, v in other.items():
            t += shift
            x = get(t, 0) + c * v
            if x:
                vec[t] = x
            else:
                del vec[t]
    return vec


class Coeffs:
    """The integer coefficient kernel of the engine and of linalg.echelon
    (module docstring).

    An element is a triple (G, RG, L): integer numerators of a monic vector
    G/L and of its cofactor row RG/L (None untracked), with G[lt] = L > 0.
    Over F_p, L = 1 and every value is an int in [0, p).
    """

    __slots__ = ("p",)

    def __init__(self, dom):
        if isinstance(dom, RatDomain):
            self.p = 0
        elif isinstance(dom, FpDomain):
            self.p = dom.p
        else:
            raise ValueError(f"exact elimination runs over Q or F_p, not {dom.name}")

    def lift(self, v):
        """(F, D) with F/D = v, for a dict of domain values."""
        if self.p:
            return {t: c % self.p for t, c in v.items()}, 1
        D = lcm(*(c.denominator for c in v.values()))
        return {t: c.numerator * (D // c.denominator) for t, c in v.items()}, D

    def export(self, F, D):
        """The dict of domain values F/D, in F's order."""
        if self.p:
            return dict(F)
        return {t: Fraction(n, D) for t, n in F.items()}

    def element(self, F, R):
        """The element (G, RG, L) of the nonzero vector F and its row R
        (None untracked), divided by F's leading coefficient."""
        a = F[max(F)]
        if self.p:
            p = self.p
            inv = pow(a, p - 2, p)
            G = {t: v * inv % p for t, v in F.items()}
            RG = None if R is None else {t: v * inv % p for t, v in R.items()}
            return G, RG, 1
        g = gcd(*F.values(), *R.values()) if R is not None else gcd(*F.values())
        if a < 0:
            g = -g
        if g != 1:
            F = {t: v // g for t, v in F.items()}
            if R is not None:
                R = {t: v // g for t, v in R.items()}
        return F, R, a // g

    def pair(self, ei, ej, si, sj, rsi, rsj):
        """(F, R, D): the S-vector x^si g_i - x^sj g_j of two elements over
        D = lcm(L_i, L_j), and the same combination R of their rows."""
        (Gi, Ri, Li), (Gj, Rj, Lj) = ei, ej
        h = gcd(Li, Lj)
        ci, cj = Lj // h, -(Li // h)  # over F_p, ci = 1 keeps every value in [0, p)
        p = self.p
        F = _axpy({t + si: ci * v for t, v in Gi.items()}, Gj, sj, cj, p)
        R = None if Ri is None else _axpy({t + rsi: ci * v for t, v in Ri.items()}, Rj, rsj, cj, p)
        return F, R, Li * ci

    def step(self, D, a, elem, shift, rshift, F, R=None, out=None):
        """One fraction-free reduction of F/D by elem at the term with
        numerator a; R (row) and out (terms already set aside) share D.

        With h = gcd(a, L): F <- (L/h) F - (a/h) x^m G and D <- D L/h, the
        same on R and out.  Returns the new D.
        """
        G, RG, L = elem
        if L != 1:
            h = gcd(a, L)
            s = L // h
            a //= h
            if s != 1:
                D *= s
                for vec in (F, R, out):
                    if vec:
                        for t, v in vec.items():
                            vec[t] = v * s
        # the engine's innermost loops, spelled out per field: no _axpy call
        a = -a
        p = self.p
        get = F.get
        if p:
            for t, v in G.items():
                t += shift
                x = (get(t, 0) + a * v) % p
                if x:
                    F[t] = x
                else:
                    del F[t]
            if R is not None:
                get = R.get
                for t, v in RG.items():
                    t += rshift
                    x = (get(t, 0) + a * v) % p
                    if x:
                        R[t] = x
                    else:
                        del R[t]
            return D
        for t, v in G.items():
            t += shift
            x = get(t, 0) + a * v
            if x:
                F[t] = x
            else:
                del F[t]
        if R is not None:
            get = R.get
            for t, v in RG.items():
                t += rshift
                x = get(t, 0) + a * v
                if x:
                    R[t] = x
                else:
                    del R[t]
        if D >> CONTENT_BITS:
            D = _remove_content(D, F, R, out)
        return D


def _remove_content(D, F, R, out):
    """Divide D and every numerator of F, R and out by their common gcd."""
    vecs = [vec for vec in (F, R, out) if vec]
    g = D
    for vec in vecs:
        g = gcd(g, *vec.values())
        if g == 1:
            return D
    for vec in vecs:
        for t, v in vec.items():
            vec[t] = v // g
    return D // g


# ---------------------------------------------------------------------------
# module orders


class ModuleOrder:
    """Packed terms of a free module over a Monomials ring (module docstring).

    base[c] holds component c's code bits, P(shift[c]) << tb and a tail code
    below 2^tb that names c; gdeg[c] is the degree of component c's
    generator, so that deg(e) + gdeg[c] is the degree of the term (c, e).
    """

    def __init__(self, ring, base, tb, gdeg=None):
        self.ring, self.base, self.tb = ring, base, tb
        self.mask = (1 << tb) - 1
        self.pmask = (1 << (ring.bits + B)) - 1
        self.guard = ring.guard << tb
        self.comp = [0] * len(base)  # tail code -> component
        for c, b in enumerate(base):
            self.comp[b & self.mask] = c
        self.sdeg = [(b >> tb & self.pmask) >> ring.bits for b in base]
        self.gdeg = self.sdeg if gdeg is None else gdeg

    def component(self, k):
        return self.comp[k & self.mask]

    def pack(self, c, e):
        return ((self.ring.pack(e, self.sdeg[c]) - self.ring.one) << self.tb) + self.base[c]

    def unpack(self, k):
        c = self.component(k)
        return c, self.ring.unpack(((k - self.base[c]) >> self.tb) + self.ring.one)

    def vector(self, forms):
        """The vector of domain values holding forms[c] (a Poly) in component
        c, for a dict forms {c: Poly}; the one way in from Poly."""
        pack = self.pack
        return {pack(c, e): x for c, p in forms.items() for e, x in p.terms.items()}

    def forms(self, v, reg, dom, rank):
        """The rank forms of reg over dom that the vector v of domain values
        holds, form c from component c; the one way out to Poly."""
        terms = [{} for _ in range(rank)]
        for k, x in v.items():
            c, e = self.unpack(k)
            terms[c][e] = x
        return [Poly(reg, dom, t, _clean=True) for t in terms]

    def degree(self, k):
        c = self.component(k)
        return ((((k - self.base[c]) >> self.tb) + self.ring.one) >> self.ring.bits) + self.gdeg[c]

    def vec_degree(self, v):
        """The degree of a nonzero homogeneous vector."""
        return self.degree(next(iter(v)))

    def lcm(self, a, b):
        """The lcm of two terms of one component."""
        tb, pmask = self.tb, self.pmask
        pa = a >> tb & pmask
        return a + ((self.ring.lcm(pa, b >> tb & pmask) - pa) << tb)

    def plain(self, shift):
        """The row shift of x^m from its term shift (P(m) - P(0)) << tb."""
        return self.ring.plain(shift >> self.tb)

    def from_row(self, row):
        """The vector of a nonzero homogeneous plain-packed row over this
        module's components; the coefficients are moved, not converted."""
        tb, base = self.tb, self.base
        bits, low, ones = self.ring.bits, self.ring.low, self.ring.ones
        out = {}
        for t, coeff in row.items():
            c, x = t >> bits, t & low
            d = (x * ones) >> (bits - B) & M  # Monomials.field_sum(x)
            out[(((d << bits) - x) << tb) + base[c]] = coeff
        check_degree(d + self.sdeg[c])  # every term of the row has this degree
        return out

    def lowest_component(self, v):
        mask = self.mask
        return min(map(self.comp.__getitem__, {k & mask for k in v}))


def induced_key_from(lts, prev):
    """Module order induced by assigned leading terms, position tie-break.

    lts[c] is the packed leading term of the generator presented by
    component c.  prev is where those terms live: a Monomials ring, or the
    previous level's order.  The key of (c, e) compares grevlex(e + shift[c])
    and then tail[c], the same order as recursing through every earlier
    level.  induced_key_from([ring.one], ring) is the ring itself as a
    rank-1 module: its keys are the packed monomials P(e).
    """
    if isinstance(prev, ModuleOrder):
        ring = prev.ring
        shifts = [k >> prev.tb for k in lts]
        tails = [k & prev.mask for k in lts]
    else:
        ring, shifts, tails = prev, list(lts), [0] * len(lts)
    tb = (len(lts) - 1).bit_length()
    base = [0] * len(lts)
    for code, c in enumerate(sorted(range(len(lts)), key=lambda c: (tails[c], -c))):
        base[c] = (shifts[c] << tb) | code
    return ModuleOrder(ring, base, tb)


def pot_key(ring, gdeg):
    """Position-over-term: lower components dominate (component 0 is
    eliminated first), grevlex within a component."""
    n = len(gdeg)
    tb = (n - 1).bit_length()
    top = ring.bits + B + tb
    base = [((n - 1 - c) << top) | (ring.one << tb) | c for c in range(n)]
    return ModuleOrder(ring, base, tb, list(gdeg))


# ---------------------------------------------------------------------------
# the engine


def _reduce(F, D, basis, reducers, order, kern, R=None, top=False):
    """Full normal form (out, D) of the packed vector F/D; F is reduced in place.

    Each leading term is cancelled by the first reducer of its component
    (reducers[c] lists (lt, index into basis) in insertion order) whose
    leading term divides it, and set aside otherwise.  A given row R over D
    takes the reducers' cofactors.  With top=True the reduction stops at
    the first leading term that nothing divides and returns (F, D), F
    top-reduced.
    """
    guard, comp, mask, tb, low = order.guard, order.comp, order.mask, order.tb, order.ring.low
    step = kern.step
    out = {}
    while F:
        le = max(F)
        for lt, i in reducers.get(comp[le & mask], ()):
            if not (lt - le) & guard:
                break
        else:
            if top:
                return F, D
            out[le] = F.pop(le)
            continue
        # the row shift of x^m is ModuleOrder.plain(le - lt)
        rshift = 0 if R is None else -((le - lt) >> tb) & low
        D = step(D, F[le], basis[i], le - lt, rshift, F, R, out)
    return out, D


def normal_form(F, D, basis, reducers, order, kern):
    """Full normal form (out, D) of the vector F/D of a rank-1 order modulo
    the basis elements that reducers[0] lists as (lt, index) (_reduce); F is
    reduced in place."""
    return _reduce(F, D, basis, reducers, order, kern)


class ModuleGB:
    """Incremental module Groebner basis, complete through a moving degree.

    Inputs arrive by ascending degree through add_input.  Pairs are updated
    by Gebauer-Moeller when an element enters, within its component, and at
    rank 1 the product criterion drops pairs with coprime leading terms.
    With track=True every basis element carries its cofactor row over the
    kept inputs, and syzygies collects, as integer numerators over one
    denominator (R, D), the row of each S-pair that reduces to zero and the
    full Koszul row g_i row_t - g_t row_i of each pair the product criterion
    drops (what its standard representation would have given).  Pairs
    dropped by the chain criterion leave nothing: their syzygies are
    generated by the others.  forms lists the nonzero normal forms of the
    inputs as integer numerators over one denominator (F, D), input number i
    at index i; the engine reads only their keys, and kept exports their
    values.  top is the highest degree of an input or S-pair handled so far
    (-1 before any).
    """

    def __init__(self, dom, order, track=False):
        self.kern = Coeffs(dom)
        self.order = order
        self.track = track
        self.lts = []
        self.basis = []  # kernel elements (G, RG, L); RG over the kept inputs, None untracked
        self.reducers = {}  # component -> [(lt, index)] in insertion order
        self.pairs = []  # heap (degree, lcm, i, j)
        self.syzygies = []  # (R, D) over the kept inputs
        self.forms = []  # normal forms (F, D) of the kept inputs
        self.top = -1
        self.pairs_processed = 0

    @property
    def n_inputs(self):
        return len(self.forms)

    @property
    def kept(self):
        """The normal forms of the kept inputs, as dicts of domain values."""
        return [self.kern.export(F, D) for F, D in self.forms]

    @property
    def elems(self):
        """The monic basis vectors, as dicts of domain values."""
        return [self.kern.export(G, L) for G, _, L in self.basis]

    @property
    def leading_exponents(self):
        """The sorted exponent tuples of the leading terms of a rank-1 run."""
        return tuple(sorted(self.order.unpack(lt)[1] for lt in self.lts))

    # -- internals ------------------------------------------------------

    def _add(self, F, R):
        """Insert the element of F (row R) and update the pairs."""
        order, lts, pairs = self.order, self.lts, self.pairs
        guard = order.guard
        lt = max(F)
        t = len(self.basis)
        lts.append(lt)
        self.basis.append(self.kern.element(F, R))
        same = self.reducers.setdefault(order.component(lt), [])
        lcms = {i: order.lcm(li, lt) for li, i in same}
        # drop (i, t) when lcm(i, t) is strictly divisible by some lcm(j, t)
        # (chain among the new pairs), keeping one representative per lcm;
        # a strict divisor of l is a smaller term, so only those are tried
        values = sorted(set(lcms.values()))
        chained = set()
        for k, l in enumerate(values):
            for m in values[:k]:
                if not (m - l) & guard:
                    chained.add(l)
                    break
        best = {}
        for i, l in lcms.items():
            if l not in chained:
                best.setdefault(l, i)
        # old pairs of this component made redundant by t (chain criterion)
        left = [
            p
            for p in pairs
            if p[2] not in lcms or (lt - p[1]) & guard or lcms[p[2]] == p[1] or lcms[p[3]] == p[1]
        ]
        if len(left) < len(pairs):
            heapq.heapify(left)
            pairs[:] = left
        one = order.base[0]
        for i in sorted(best.values()):
            l = lcms[i]
            if len(order.base) == 1 and l == lts[i] + lt - one:
                # product criterion: coprime leading terms reduce to zero
                if self.track:
                    self._koszul(i, t)
                continue
            heapq.heappush(pairs, (order.degree(l), l, i, t))
        same.append((lt, t))

    def _koszul(self, i, t):
        """Record g_i row_t - g_t row_i for a pair of a rank-1 module."""
        kern, plain, one = self.kern, self.order.plain, self.order.base[0]
        (Gi, Ri, Li), (Gt, Rt, Lt) = self.basis[i], self.basis[t]
        row = {}
        for e, c in Gi.items():
            _axpy(row, Rt, plain(e - one), c, kern.p)
        for e, c in Gt.items():
            _axpy(row, Ri, plain(e - one), -c, kern.p)
        self._record(row, Li * Lt)

    def _record(self, R, D):
        if R:  # an empty row is no relation
            self.syzygies.append((R, D))

    def process_pairs_through(self, degree):
        """Process the queued pairs up to the given degree.

        An S-vector is top-reduced (module docstring, Pairs): a new element
        keeps the tail it has when its leading term stops reducing.
        """
        kern, order = self.kern, self.order
        lts, basis = self.lts, self.basis
        while self.pairs and self.pairs[0][0] <= degree:
            self.pairs_processed += 1
            d, l, i, j = heapq.heappop(self.pairs)
            check_degree(d, "S-pair degree")
            self.top = max(self.top, d)
            li, lj = lts[i], lts[j]
            F, R, D = kern.pair(basis[i], basis[j], l - li, l - lj, order.plain(l - li), order.plain(l - lj))
            F, D = _reduce(F, D, basis, self.reducers, order, kern, R, top=True)
            if F:
                self._add(F, R)
            else:
                self._record(R, D)

    def add_input(self, F, D, d):
        """Feed the integer vector F/D of degree d (ascending degree); F is
        reduced in place to its normal form.

        The basis is first completed through degree d.  An empty normal form
        means F is redundant: it takes no input index and records no
        syzygy.  A nonzero one becomes kept input number n_inputs, appended
        to forms as it is, and enters the basis with a unit cofactor row.
        """
        self.process_pairs_through(d)
        self.top = max(self.top, d)
        F, D = _reduce(F, D, self.basis, self.reducers, self.order, self.kern)
        if not F:
            return
        R = None
        if self.track:
            R = {self.n_inputs << self.order.ring.bits: D}
        self.forms.append((F, D))
        self._add(F, R)


def _feed(gb, vectors, tie, degree_cap=None):
    """Feed integer vectors (F, D) to gb by ascending degree, equal degrees
    ordered by tie(F), and return whether degree_cap dropped any vector.

    gb.forms then holds the nonzero normal forms in feeding order, which
    minimally generate what the vectors generate; a tracked gb collects
    their syzygies.
    """
    capped = False
    degree = gb.order.vec_degree
    # each vector's degree, computed once, leads its sort key and is handed on
    for d, F, D in sorted([(degree(F), F, D) for F, D in vectors], key=lambda v: (v[0], tie(v[1]))):
        if degree_cap is not None and d > degree_cap:
            capped = True
            continue
        gb.add_input(F, D, d)
    return capped


def _ring_vectors(reg, polys, dom):
    """The ring of reg as a rank-1 module, induced_key_from([ring.one],
    ring), and the nonzero polynomials polys as its integer vectors (F, D)."""
    ring = Monomials(reg.n)
    order = induced_key_from([ring.one], ring)
    kern = Coeffs(dom)
    return order, [kern.lift(order.vector({0: p})) for p in polys]


def _level(order, candidates, dom, degree_cap, through):
    """One level: (gb, capped) of a tracked ModuleGB under order fed the
    candidates through degree_cap (_feed, equal degrees by lowest component,
    then leading term), its pairs processed through `through`."""
    gb = ModuleGB(dom, order, track=True)
    capped = _feed(gb, candidates, lambda F: (order.lowest_component(F), max(F)), degree_cap)
    gb.process_pairs_through(through)
    return gb, capped


def buchberger(run):
    """The reduced Groebner basis of a rank-1 run, complete through the
    degrees it stands for: each element fully reduced against the others,
    a reduced element serving the later ones in its monic form.  Returns
    the monic packed polynomials in ascending leading terms.

    One reducer table serves every element: an element's own entry leaves
    it while the element is reduced, and comes back in its place with the
    reduced element's leading term unless that element vanished."""
    kern, order = run.kern, run.order
    basis = list(run.basis)
    table = [(max(G), k) for k, (G, _, _) in enumerate(basis)]
    reducers = {0: table}
    pos = 0  # idx's entry in table, behind the entries of nonzero earlier elements
    for idx, (G, _, L) in enumerate(basis):
        del table[pos]
        nf, _ = normal_form(dict(G), L, basis, reducers, order, kern)
        if nf:
            basis[idx] = kern.element(nf, None)
            table.insert(pos, (max(nf), idx))
            pos += 1
        else:
            basis[idx] = ({}, None, 1)
    reduced = sorted((g for g in basis if g[0]), key=lambda g: max(g[0]))
    return [kern.export(G, L) for G, _, L in reduced]


# ---------------------------------------------------------------------------
# Hilbert series of monomial ideals by pivot recursion


def _minimalize_monomials(gens):
    gens = sorted(set(gens), key=lambda e: (sum(e), e))
    out = []
    for g in gens:
        if not any(all(map(le, h, g)) for h in out):
            out.append(g)
    return out


def _hs_poly_mul(a, b):
    out = {}
    for da, ca in a.items():
        for db, cb in b.items():
            out[da + db] = out.get(da + db, 0) + ca * cb
    return {d: c for d, c in out.items() if c}


def _hs_num(gens, memo):
    """Numerator of the Hilbert series of S/(gens) over (1-t)^n."""
    gens = _minimalize_monomials(gens)
    key = frozenset(gens)
    if key in memo:
        return memo[key]
    if not gens:
        return {0: 1}
    n = len(gens[0])
    counts = [0] * n
    for g in gens:
        for i, a in enumerate(g):
            if a:
                counts[i] += 1
    # pairwise coprime generators: complete intersection, product formula
    if all(c <= 1 for c in counts):
        out = {0: 1}
        for g in gens:
            out = _hs_poly_mul(out, {0: 1, sum(g): -1})
        memo[key] = out
        return out
    # pivot on a variable shared by at least two generators
    piv = max(range(n), key=lambda i: counts[i])
    pe = tuple(1 if i == piv else 0 for i in range(n))
    # S/(I) : N(I) = N(I + (x)) + t * N(I : x)
    plus = [g for g in gens if g[piv] == 0] + [pe]
    colon = [tuple(a - 1 if i == piv and a > 0 else a for i, a in enumerate(g)) for g in gens]
    np_ = _hs_num(plus, memo)
    nc = _hs_num(colon, memo)
    out = dict(np_)
    for d, c in nc.items():
        out[d + 1] = out.get(d + 1, 0) + c
    out = {d: c for d, c in out.items() if c}
    memo[key] = out
    return out


def _binom(n, k):
    if k < 0 or n < 0:
        return 0
    return comb(n, k)


def _divide_one_minus_t(num):
    """Quotient num/(1-t) for a dict polynomial with num(1) = 0."""
    top = max(num)
    out = {}
    run = 0
    for d in range(top):
        run += num.get(d, 0)
        if run:
            out[d] = run
    return out


@dataclass
class HilbertData:
    """Hilbert series numerator and derived numerical data for S/I.

    numerator is over (1-t)^nvars; reduced is the numerator divided by the
    maximal power of (1-t), so dim = nvars - (number of divisions) and
    degree = reduced(1).
    """

    nvars: int
    numerator: dict
    reduced: dict
    dim: int
    degree: int

    def hf(self, d: int) -> int:
        """Hilbert function of S/I at degree d."""
        n = self.nvars
        return sum(c * _binom(d - j + n - 1, n - 1) for j, c in self.numerator.items())

    def hf_range(self, lo: int, hi: int):
        return [self.hf(d) for d in range(lo, hi + 1)]


def hilbert_data(lt_gens, nvars: int) -> HilbertData:
    """Hilbert data of S/I from the leading-term monomial ideal.

    Almost every point of the surface family has the same leading terms, so
    the series is kept per process by _hilbert_series, the 64 latest, keyed
    by (sorted distinct leading exponents, nvars); each call gets its own
    dicts."""
    num, q, k = _hilbert_series(tuple(sorted(set(map(tuple, lt_gens)))), nvars)
    return HilbertData(
        nvars=nvars,
        numerator=dict(num),
        reduced=dict(q),
        dim=nvars - k,
        degree=sum(c for _, c in q),
    )


@lru_cache(maxsize=64)
def _hilbert_series(lts, nvars):
    """(numerator, reduced numerator, k) of S/(lts) as item tuples, where
    reduced is the numerator over (1-t)^nvars divided by (1-t)^k, k maximal
    (hilbert_data)."""
    num = _hs_num(list(lts), {})
    q = dict(num)
    k = 0
    while q and sum(q.values()) == 0:
        q = _divide_one_minus_t(q)
        k += 1
    if not q:
        q = {0: 0}
    return tuple(num.items()), tuple(q.items()), k


# ---------------------------------------------------------------------------
# public wrappers


@dataclass
class GradedIdeal:
    """A homogeneous ideal of reg over dom, by its nonzero generators without repeats.

    level_one owns the ideal's level-1 run, the tracked rank-1 ModuleGB of
    its generators (module docstring), and keeps it as run once a run came
    out complete (None before).  gb() auto-reduces the complete run once.
    Neither cache takes part in comparisons.  normal_form and contains
    reduce against the complete run itself: it is a Groebner basis, and a
    full normal form is the same against any Groebner basis.
    """

    reg: VarRegistry
    dom: object
    gens: list  # list of Poly
    _gb: list = field(default=None, init=False, repr=False, compare=False)
    run: ModuleGB = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        ring_of(self.gens, (self.reg, self.dom), "generator", "an ideal")
        seen = []
        for g in self.gens:
            if g.is_zero():
                continue
            if not g.is_homogeneous():
                raise ValueError("graded ideal needs homogeneous generators")
            if all(g != h for h in seen):
                seen.append(g)
        self.gens = seen

    def level_one(self, cap=inf):
        """(run, capped): the run of the generators completed through degree
        cap, and whether the cap dropped a generator.

        The kept run serves whenever it handled no input or S-pair above cap
        (run.top <= cap), as it is then exactly the run the cap gives.
        Otherwise _level builds a fresh run, kept when it came out complete:
        no generator dropped and no pair left.  A capped run is never grown
        in place, so what it reports stays that of its cap.
        """
        run = self.run
        if run is not None and run.top <= cap:
            return run, False
        order, vectors = _ring_vectors(self.reg, self.gens, self.dom)
        run, capped = _level(order, vectors, self.dom, cap, cap)
        if not capped and not run.pairs:
            self.run = run
        return run, capped

    def gb(self) -> list:
        """The reduced Groebner basis, buchberger of the complete run: monic
        packed polynomials in ascending leading terms."""
        if self._gb is None:
            self._gb = buchberger(self.level_one()[0])
        return self._gb

    def hilbert(self) -> HilbertData:
        unpack = Monomials(self.reg.n).unpack
        return hilbert_data([unpack(max(g)) for g in self.gb()], self.reg.n)

    def normal_form(self, p: Poly) -> Poly:
        """The full normal form of p modulo the ideal; a form of another ring
        is a ValueError naming both rings (poly.ring_of)."""
        ring_of((p,), (self.reg, self.dom), "form", "an ideal")
        run, _ = self.level_one()
        kern, order = run.kern, run.order
        F, D = kern.lift(order.vector({0: p}))
        nf = kern.export(*normal_form(F, D, run.basis, run.reducers, order, kern))
        return order.forms(nf, self.reg, self.dom, 1)[0]

    def contains(self, p: Poly) -> bool:
        return self.normal_form(p).is_zero()


def ideal_hf_oracle(gens, d: int) -> int:
    """dim of (S/I)_d by straight linear algebra on generator multiples.

    Independent of the Buchberger path; exact over the generators' domain,
    with a vectorized fast path for prime fields.  The dense reference the
    tests compare GradedIdeal.hilbert() against; no check calls it, and it
    stays here because the benchmark tracer wraps it by name.  Zero
    generators span the zero ideal, whose quotient has dim S_d; an empty
    list is refused, as it carries no registry to count the monomials of
    degree d in.
    """
    from .linalg import np_rank, rank as _rank

    if not gens:
        raise ValueError("need generators")
    reg, dom = ring_of(gens, None, "generator", "generators")
    monos = monomial_basis(reg, d)
    ix = {e: i for i, e in enumerate(monos)}
    rows = []
    for g in gens:
        dg = g.degree()
        if not 0 <= dg <= d:  # a zero generator (degree -1) adds no rows
            continue
        for m in monomial_basis(reg, d - dg):
            row = [dom.zero] * len(monos)
            for e, c in g.terms.items():
                row[ix[tuple(map(add, e, m))]] = c
            rows.append(row)
    if not rows:
        return len(monos)
    if isinstance(dom, FpDomain):
        return len(monos) - np_rank(rows, dom.p)
    return len(monos) - _rank(rows, dom)
