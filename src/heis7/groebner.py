"""Deterministic Buchberger engine over Q and F_p, with Hilbert data.

Packed terms.  Inside the engines (buchberger and normal_form here,
ModuleGB in resolution.py) a monomial is one Python int.  With field width
W = 2^B and M = W - 1, the exponent tuple e of n variables packs to

    P(e) = deg(e) W^n + sum_k (M - e_k) W^k,

so comparing packed monomials as integers is the grevlex order of
poly.grevlex_key, a polynomial is a dict {P(e): coeff} whose leading term
is max(f), and multiplying by x^m adds the one integer P(m) - P(0).  While
deg(e) <= DEGREE_LIMIT every field keeps its top (guard) bit set, so e | e'
is one subtraction: P(e) - P(e') sets no guard bit (Monagan & Pearce,
Sparse polynomial division using a heap, JSC 46 (2011)).  Packing a term of
higher degree, or reaching one through an S-pair, raises ValueError, so a
packed value never wraps into a wrong order.  resolution.py builds its
module orders on the same fields.  Cofactor rows over the input generators
are never ordered, only shifted and added, and use the plain packing
i << nB | sum_k e_k W^k.

Integer coefficients.  The engines run over Q (QQ) and the prime fields
F_p (FpDomain) only; Coeffs refuses any other domain with ValueError.
Inside them every coefficient is a Python int.  Over F_p it is a value in
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
those of plain Fraction arithmetic.

Conversion happens only at the boundary: Poly terms enter through
Monomials.pack_poly and Coeffs.lift; results leave through Coeffs.export
as Fractions or ints, through GroebnerBasis (Polys, normal forms and the
leading exponent tuples that hilbert_data reads) and through the callers
in resolution.py.

Pairs are processed by ascending lcm with a fixed tie-break, the chain and
product criteria of the Gebauer-Moeller update prune the queue, and
reducers are scanned in insertion order, so runs are reproducible for a
fixed input sequence.

When syzygy tracking is enabled each basis element g_k carries its cofactor
row over the input generators.  A pair (i, t) dropped by the product
criterion contributes its full Koszul relation g_i * row_t - g_t * row_i,
which is what its S-polynomial's standard representation would have given;
pairs dropped by the chain criterion contribute nothing (their syzygies are
generated by the surviving ones).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
import heapq
from math import gcd, lcm
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
    """The integer coefficient kernel of both engines (module docstring).

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
            raise ValueError(f"the Groebner engines run over Q or F_p, not {dom.name}")

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


def normal_form(F, D, basis, ring, kern):
    """Full normal form (out, D) of the packed vector F/D modulo the basis
    elements; F is reduced in place."""
    out = {}
    guard = ring.guard
    lts = [(max(g[0]), g) for g in basis if g[0]]
    while F:
        lead = max(F)
        for lt, g in lts:
            if not (lt - lead) & guard:
                D = kern.step(D, F[lead], g, lead - lt, 0, F, None, out)
                break
        else:
            out[lead] = F.pop(lead)
    return out, D


def buchberger(gens, ring, dom=QQ, track=False, degree_cap=None):
    """Reduced Groebner basis of homogeneous packed polynomials.

    Returns (basis, info) where basis is the auto-reduced monic basis in
    ascending leading terms and info carries: 'syzygies' (generating set of
    the syzygy module over the *input* generators, as plain-packed rows, if
    track) and 'truncated' (True if a degree cap dropped pairs).
    """
    kern = Coeffs(dom)
    work = []  # list of (lt, element)
    syzygies = []
    truncated = False
    guard, p0 = ring.guard, ring.one

    def add_poly(F, R):
        work.append((max(F), kern.element(F, R)))
        return len(work) - 1

    def reduce_top(F, R, D):
        while F:
            lead = max(F)
            for lt, g in work:
                if not (lt - lead) & guard:
                    break
            else:
                break
            rshift = ring.plain(lead - lt) if track else 0
            D = kern.step(D, F[lead], g, lead - lt, rshift, F, R)
        return F, R, D

    pairs = []  # heap of (degree, lcm, i, j)

    def update_pairs(t):
        """Gebauer-Moeller update after appending element t."""
        lt_t = work[t][0]
        lcms = [ring.lcm(work[i][0], lt_t) for i in range(t)]
        # drop (i,t) when lcm(i,t) is strictly divisible by lcm(j,t) (chain
        # among the new pairs), keeping one representative per lcm
        best = {}
        for i, li in enumerate(lcms):
            if not any(lj != li and not (lj - li) & guard for lj in lcms):
                best.setdefault(li, i)
        # old pairs made redundant by t (classic chain criterion)
        pairs[:] = [
            p
            for p in pairs
            if (lt_t - p[1]) & guard or lcms[p[2]] == p[1] or lcms[p[3]] == p[1]
        ]
        heapq.heapify(pairs)
        for i in sorted(best.values()):
            li = lcms[i]
            # product criterion: coprime leading terms reduce to zero; their
            # Koszul relation g_i * row_t - g_t * row_i still enters the
            # syzygy generating set
            if li == work[i][0] + lt_t - p0:
                if track:
                    G_i, R_i, L_i = work[i][1]
                    G_t, R_t, L_t = work[t][1]
                    row = {}
                    for e, c in G_i.items():
                        kern.axpy(row, R_t, ring.plain(e - p0), c)
                    for e, c in G_t.items():
                        kern.axpy(row, R_i, ring.plain(e - p0), -c)
                    record_syzygy(row, L_i * L_t)
                continue
            heapq.heappush(pairs, (li >> ring.bits, li, i, t))

    def record_syzygy(R, D):
        if R:  # an empty row is no relation
            syzygies.append(kern.export(R, D))

    # seed with the inputs
    for i, f in enumerate(gens):
        if not f:
            continue
        F, D = kern.lift(f)
        R = {i << ring.bits: D} if track else None
        # reduce new generator against current basis to keep things small
        F, R, D = reduce_top(F, R, D)
        if not F:
            if track:
                record_syzygy(R, D)
            continue
        update_pairs(add_poly(F, R))

    while pairs:
        d, l, i, j = heapq.heappop(pairs)
        if degree_cap is not None and d > degree_cap:
            truncated = True
            break
        check_degree(d, "S-pair degree")
        lt_i, lt_j = work[i][0], work[j][0]
        F, R, D = kern.pair(
            work[i][1], work[j][1], l - lt_i, l - lt_j, ring.plain(l - lt_i), ring.plain(l - lt_j)
        )
        F, R, D = reduce_top(F, R, D)
        if F:
            update_pairs(add_poly(F, R))
        elif track:
            record_syzygy(R, D)

    # auto-reduce: full normal form of each element against the others; a
    # reduced element serves the later ones in its monic form
    basis = [g for _, g in work]
    for idx, (G, _, L) in enumerate(basis):
        others = [g for k, g in enumerate(basis) if k != idx and g[0]]
        nf, _ = normal_form(dict(G), L, others, ring, kern)
        basis[idx] = kern.element(nf, None) if nf else ({}, None, 1)
    reduced = sorted((g for g in basis if g[0]), key=lambda g: max(g[0]))
    info = {"truncated": truncated, "syzygies": syzygies if track else None}
    return [kern.export(G, L) for G, _, L in reduced], info


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
    with a vectorized fast path for prime fields.
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
