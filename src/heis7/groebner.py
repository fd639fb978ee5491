"""Deterministic Buchberger engine over exact fields, with Hilbert data.

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

Conversion happens only at the boundary: Poly terms enter through
Monomials.pack_poly; results leave through GroebnerBasis (Polys, normal
forms and the leading exponent tuples that hilbert_data reads) and through
the callers in resolution.py.

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
import heapq
from operator import add, le

from .field import QQ, FpDomain
from .poly import Poly, VarRegistry, monomial_basis

B = 8  # bits per exponent field
M = (1 << B) - 1
DEGREE_LIMIT = (1 << (B - 1)) - 1  # the largest degree whose fields keep their guard bit


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


def _add_scaled(vec, other, shift, c, dom):
    """vec += c * x^m * other in place, where x^m adds `shift` to each term.

    Packed polynomials, module vectors and cofactor rows share this form.
    """
    get, zero, dmul, dadd, is_zero = vec.get, dom.zero, dom.mul, dom.add, dom.is_zero
    for t, v in other.items():
        t += shift
        s = dadd(get(t, zero), dmul(v, c))
        if is_zero(s):
            vec.pop(t, None)
        else:
            vec[t] = s
    return vec


def normal_form(f, basis, ring, dom):
    """Full normal form of the packed polynomial f modulo the monic basis."""
    f = dict(f)
    out = {}
    guard = ring.guard
    lts = [(max(g), g) for g in basis if g]
    while f:
        lead = max(f)
        lc = f[lead]
        for lt, g in lts:
            if not (lt - lead) & guard:
                _add_scaled(f, g, lead - lt, dom.neg(lc), dom)
                break
        else:
            out[lead] = lc
            del f[lead]
    return out


def buchberger(gens, ring, dom=QQ, track=False, degree_cap=None):
    """Reduced Groebner basis of homogeneous packed polynomials.

    Returns (basis, info) where basis is the auto-reduced monic basis in
    ascending leading terms and info carries: 'syzygies' (generating set of
    the syzygy module over the *input* generators, as plain-packed rows, if
    track) and 'truncated' (True if a degree cap dropped pairs).
    """
    work = []  # list of (lt, poly, cofactor_row)
    syzygies = []
    truncated = False
    guard, p0 = ring.guard, ring.one

    def add_poly(f, row):
        lt = max(f)
        lc = f[lt]
        if not dom.is_zero(dom.sub(lc, dom.one)):
            inv = dom.inv(lc)
            f = {e: dom.mul(v, inv) for e, v in f.items()}
            if track:
                row = {t: dom.mul(v, inv) for t, v in row.items()}
        work.append((lt, f, row))
        return len(work) - 1

    def reduce_tracked(f, row):
        f = dict(f)
        while f:
            lead = max(f)
            for lt, g, grow in work:
                if not (lt - lead) & guard:
                    break
            else:
                break
            c = dom.neg(f[lead])
            _add_scaled(f, g, lead - lt, c, dom)
            if track:
                _add_scaled(row, grow, ring.plain(lead - lt), c, dom)
        return f, row

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
                    _, g_i, row_i = work[i]
                    _, g_t, row_t = work[t]
                    row = {}
                    for e, c in g_i.items():
                        _add_scaled(row, row_t, ring.plain(e - p0), c, dom)
                    for e, c in g_t.items():
                        _add_scaled(row, row_i, ring.plain(e - p0), dom.neg(c), dom)
                    _record_syzygy(row)
                continue
            heapq.heappush(pairs, (li >> ring.bits, li, i, t))

    def _record_syzygy(row):
        if row:  # an empty row is no relation
            syzygies.append(row)

    # seed with the inputs
    for i, f in enumerate(gens):
        if not f:
            continue
        row = {i << ring.bits: dom.one} if track else {}
        # reduce new generator against current basis to keep things small
        f2, row = reduce_tracked(f, row)
        if not f2:
            if track:
                _record_syzygy(row)
            continue
        t = add_poly(f2, row)
        update_pairs(t)

    minus_one = dom.neg(dom.one)
    while pairs:
        d, l, i, j = heapq.heappop(pairs)
        if degree_cap is not None and d > degree_cap:
            truncated = True
            break
        check_degree(d, "S-pair degree")
        lt_i, gi, row_i = work[i]
        lt_j, gj, row_j = work[j]
        s = _add_scaled({}, gi, l - lt_i, dom.one, dom)
        _add_scaled(s, gj, l - lt_j, minus_one, dom)
        row = {}
        if track:
            _add_scaled(row, row_i, ring.plain(l - lt_i), dom.one, dom)
            _add_scaled(row, row_j, ring.plain(l - lt_j), minus_one, dom)
        s, row = reduce_tracked(s, row)
        if s:
            t = add_poly(s, row)
            update_pairs(t)
        elif track:
            _record_syzygy(row)

    # auto-reduce: full normal form of each element against the others
    basis = [f for _, f, _ in work]
    reduced = []
    for idx, f in enumerate(basis):
        others = [g for k, g in enumerate(basis) if k != idx and g]
        nf = normal_form(f, others, ring, dom)
        if nf:
            inv = dom.inv(nf[max(nf)])
            reduced.append({e: dom.mul(v, inv) for e, v in nf.items()})
        basis[idx] = nf
    reduced.sort(key=max)
    info = {"truncated": truncated, "syzygies": syzygies if track else None}
    return reduced, info


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

    def normal_form(self, p: Poly) -> Poly:
        nf = normal_form(self.ring.pack_poly(p.terms), self.polys, self.ring, self.dom)
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
