"""The Groebner engine over Q and F_p: ModuleGB, reduced bases, Hilbert data.

One engine.  ModuleGB computes every Groebner basis in heis7: the reduced
bases of ideals (buchberger, a rank-1 run plus an auto-reduce), each level
of a free resolution (resolution.py) and the module eliminations of
resolution.intersect.  There is one pair update and one reduction loop
(_reduce), which normal_form shares.

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
those of plain Fraction arithmetic.  Inputs enter ModuleGB.add_input and
syzygies leave it in this integer form, so a resolution hands its
syzygies from one level to the next without conversion.  Results leave
through Coeffs.export as Fractions or ints: the normal forms add_input
returns, the elems and rows views, and the reduced bases and normal forms
of GroebnerBasis.

Pairs (Gebauer & Moeller, On an installation of Buchberger's algorithm,
JSC 6 (1988)).  When an element enters, its pairs with the earlier elements
of its component are pruned by the chain criterion and one pair is kept per
lcm; the queued pairs of that component whose lcm it divides strictly are
dropped.  At rank 1 the product criterion drops pairs with coprime leading
terms.  Pairs are processed by ascending degree and lcm with a fixed
tie-break, and reducers are scanned in insertion order, so runs are
reproducible for a fixed input sequence.

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
from functools import cached_property
import heapq
from math import gcd, inf, lcm
from operator import add, le

from .field import QQ, FpDomain, RatDomain
from .poly import Poly, VarRegistry, monomial_basis

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

    def pack(self, e):
        p = sum(e)
        check_degree(p)
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

    def pack_poly(self, terms):
        return {self.pack(e): c for e, c in terms.items()}

    def unpack_poly(self, f):
        return {self.unpack(p): c for p, c in f.items()}


def _axpy(vec, other, shift, c):
    """vec += c * x^m * other in place over Z, where x^m adds `shift` to each term."""
    get = vec.get
    for t, v in other.items():
        t += shift
        x = get(t, 0) + c * v
        if x:
            vec[t] = x
        else:
            del vec[t]
    return vec


def _axpy_mod(vec, other, shift, c, p):
    """vec += c * x^m * other in place over F_p."""
    get = vec.get
    for t, v in other.items():
        t += shift
        x = (get(t, 0) + c * v) % p
        if x:
            vec[t] = x
        else:
            del vec[t]
    return vec


class Coeffs:
    """The integer coefficient kernel of the engine and of linalg.rref
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

    def axpy(self, vec, other, shift, c):
        if self.p:
            return _axpy_mod(vec, other, shift, c, self.p)
        return _axpy(vec, other, shift, c)

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
        ci, cj = Lj // h, -(Li // h)
        F = self.axpy(self.axpy({}, Gi, si, ci), Gj, sj, cj)
        R = None if Ri is None else self.axpy(self.axpy({}, Ri, rsi, ci), Rj, rsj, cj)
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
        self.axpy(F, G, shift, -a)
        if R is not None:
            self.axpy(R, RG, rshift, -a)
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
        check_degree(sum(e) + self.sdeg[c])
        return ((self.ring.pack(e) - self.ring.one) << self.tb) + self.base[c]

    def unpack(self, k):
        c = self.component(k)
        return c, self.ring.unpack(((k - self.base[c]) >> self.tb) + self.ring.one)

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
        """The vector of a plain-packed row over this module's components;
        the coefficients are moved, not converted."""
        ring, tb, base, sdeg = self.ring, self.tb, self.base, self.sdeg
        out = {}
        for t, coeff in row.items():
            c, x = t >> ring.bits, t & ring.low
            d = ring.field_sum(x)
            check_degree(d + sdeg[c])
            out[(((d << ring.bits) - x) << tb) + base[c]] = coeff
        return out

    def lowest_component(self, v):
        return min(map(self.component, v))


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


def _reduce(F, D, basis, reducers, order, kern, R=None):
    """Full normal form (out, D) of the packed vector F/D; F is reduced in place.

    Each leading term is cancelled by the first reducer of its component
    (reducers[c] lists (lt, index into basis) in insertion order) whose
    leading term divides it, and set aside otherwise.  A given row R over D
    takes the reducers' cofactors.
    """
    guard, component = order.guard, order.component
    out = {}
    while F:
        le = max(F)
        for lt, i in reducers.get(component(le), ()):
            if not (lt - le) & guard:
                break
        else:
            out[le] = F.pop(le)
            continue
        rshift = 0 if R is None else order.plain(le - lt)
        D = kern.step(D, F[le], basis[i], le - lt, rshift, F, R, out)
    return out, D


def normal_form(F, D, basis, ring, kern):
    """Full normal form (out, D) of the packed ring vector F/D modulo the
    basis elements; F is reduced in place."""
    reducers = {0: [(max(g[0]), i) for i, g in enumerate(basis) if g[0]]}
    return _reduce(F, D, basis, reducers, induced_key_from([ring.one], ring), kern)


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
    generated by the others.
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
        self.n_inputs = 0
        self.pairs_processed = 0

    @property
    def elems(self):
        """The monic basis vectors, as dicts of domain values."""
        return [self.kern.export(G, L) for G, _, L in self.basis]

    @property
    def rows(self):
        """The basis vectors' cofactor rows (None untracked)."""
        return [None if RG is None else self.kern.export(RG, L) for _, RG, L in self.basis]

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
        # (chain among the new pairs), keeping one representative per lcm
        best = {}
        for i, l in lcms.items():
            if not any(m != l and not (m - l) & guard for m in lcms.values()):
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
            kern.axpy(row, Rt, plain(e - one), c)
        for e, c in Gt.items():
            kern.axpy(row, Ri, plain(e - one), -c)
        self._record(row, Li * Lt)

    def _record(self, R, D):
        if R:  # an empty row is no relation
            self.syzygies.append((R, D))

    def process_pairs_through(self, degree):
        """Process the queued pairs up to the given degree."""
        kern, order = self.kern, self.order
        lts, basis = self.lts, self.basis
        while self.pairs and self.pairs[0][0] <= degree:
            self.pairs_processed += 1
            d, l, i, j = heapq.heappop(self.pairs)
            check_degree(d, "S-pair degree")
            li, lj = lts[i], lts[j]
            F, R, D = kern.pair(basis[i], basis[j], l - li, l - lj, order.plain(l - li), order.plain(l - lj))
            F, D = _reduce(F, D, basis, self.reducers, order, kern, R)
            if F:
                self._add(F, R)
            else:
                self._record(R, D)

    def add_input(self, F, D, through=None):
        """Feed the integer vector F/D (ascending degree) and return its
        normal form as a dict of domain values; F is reduced in place.

        The basis is first completed through degree `through`, by default
        F's degree.  An empty normal form means F is redundant: it takes no
        input index and records no syzygy.  A nonzero one becomes kept input
        number n_inputs and enters the basis with a unit cofactor row.
        """
        self.process_pairs_through(self.order.vec_degree(F) if through is None else through)
        F, D = _reduce(F, D, self.basis, self.reducers, self.order, self.kern)
        if not F:
            return {}
        R = None
        if self.track:
            R = {self.n_inputs << self.order.ring.bits: D}
        self.n_inputs += 1
        nf = self.kern.export(F, D)
        self._add(F, R)
        return nf


def _feed(gb, vectors, tie, degree_cap=None):
    """Feed integer vectors (F, D) to gb by ascending degree, equal degrees
    ordered by tie(F).

    Returns (kept, capped): the nonzero normal forms in feeding order, which
    minimally generate what the vectors generate, and whether degree_cap
    dropped any vector.  A tracked gb collects the kept forms' syzygies.
    """
    kept = []
    capped = False
    degree = gb.order.vec_degree
    for F, D in sorted(vectors, key=lambda v: (degree(v[0]), tie(v[0]))):
        if degree_cap is not None and degree(F) > degree_cap:
            capped = True
            continue
        nf = gb.add_input(F, D)
        if nf:
            kept.append(nf)
    return kept, capped


def buchberger(gens, ring, dom=QQ, degree_cap=None):
    """Reduced Groebner basis of homogeneous packed polynomials.

    A rank-1 ModuleGB takes every nonzero input in turn, each after the
    S-pairs up to its degree, and is completed through degree_cap (without a
    cap, completely); then each element is fully reduced against the
    others.  Returns (basis, info): the monic reduced basis in ascending
    leading terms, and info['truncated'], True if the cap left S-pairs
    unprocessed.
    """
    gb = ModuleGB(dom, induced_key_from([ring.one], ring))
    kern = gb.kern
    cap = inf if degree_cap is None else degree_cap
    for F, D in map(kern.lift, filter(None, gens)):
        gb.add_input(F, D, min(cap, max(F) >> ring.bits))
    gb.process_pairs_through(cap)
    # auto-reduce: full normal form of each element against the others; a
    # reduced element serves the later ones in its monic form
    basis = list(gb.basis)
    for idx, (G, _, L) in enumerate(basis):
        others = [g for k, g in enumerate(basis) if k != idx and g[0]]
        nf, _ = normal_form(dict(G), L, others, ring, kern)
        basis[idx] = kern.element(nf, None) if nf else ({}, None, 1)
    reduced = sorted((g for g in basis if g[0]), key=lambda g: max(g[0]))
    return [kern.export(G, L) for G, _, L in reduced], {"truncated": bool(gb.pairs)}


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
    from math import comb

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
    """Hilbert data of S/I from the leading-term monomial ideal."""
    memo = {}
    num = _hs_num([tuple(g) for g in lt_gens], memo)
    q = dict(num)
    k = 0
    while q and sum(q.values()) == 0:
        q = _divide_one_minus_t(q)
        k += 1
    if not q:
        q = {0: 0}
    return HilbertData(
        nvars=nvars,
        numerator=num,
        reduced=q,
        dim=nvars - k,
        degree=sum(q.values()),
    )


# ---------------------------------------------------------------------------
# public wrappers


@dataclass
class GroebnerBasis:
    reg: VarRegistry
    dom: object
    ring: Monomials
    polys: list  # reduced, monic packed polynomials, ascending leading terms
    truncated: bool = False

    def as_polys(self):
        return [Poly(self.reg, self.dom, self.ring.unpack_poly(g), _clean=True) for g in self.polys]

    def leading_terms(self):
        return [self.ring.unpack(max(g)) for g in self.polys]

    @cached_property
    def _kernel(self):
        kern = Coeffs(self.dom)
        return kern, [(G, None, L) for G, L in map(kern.lift, self.polys)]

    def normal_form(self, p: Poly) -> Poly:
        kern, basis = self._kernel
        F, D = kern.lift(self.ring.pack_poly(p.terms))
        nf = kern.export(*normal_form(F, D, basis, self.ring, kern))
        return Poly(self.reg, self.dom, self.ring.unpack_poly(nf), _clean=True)

    def contains(self, p: Poly) -> bool:
        return self.normal_form(p).is_zero()


@dataclass
class GradedIdeal:
    reg: VarRegistry
    dom: object
    gens: list  # list of Poly
    _gb: GroebnerBasis = field(default=None, repr=False)

    def __post_init__(self):
        seen = []
        for g in self.gens:
            if g.is_zero():
                continue
            if not g.is_homogeneous():
                raise ValueError("graded ideal needs homogeneous generators")
            if all(g != h for h in seen):
                seen.append(g)
        self.gens = seen

    def gb(self) -> GroebnerBasis:
        if self._gb is None:
            ring = Monomials(self.reg.n)
            polys, info = buchberger([ring.pack_poly(g.terms) for g in self.gens], ring, self.dom)
            self._gb = GroebnerBasis(self.reg, self.dom, ring, polys, info["truncated"])
        return self._gb

    def hilbert(self) -> HilbertData:
        gb = self.gb()
        return hilbert_data(gb.leading_terms(), self.reg.n)

    def contains(self, p: Poly) -> bool:
        return self.gb().contains(p)


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
    reg, dom = gens[0].reg, gens[0].dom
    monos = monomial_basis(reg, d)
    ix = {e: i for i, e in enumerate(monos)}
    rows = []
    for g in gens:
        dg = g.degree()
        if dg > d:
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
