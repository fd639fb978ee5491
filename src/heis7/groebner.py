"""Deterministic Buchberger engine over exact fields, with Hilbert data.

Polynomials inside the engine are plain dicts from exponent tuples to
coefficients; the Poly wrapper enters and leaves at the API boundary.  The
default term order is graded reverse lexicographic; pairs are processed by
ascending lcm degree with a fixed tie-break, the chain and product criteria
of the Gebauer-Moeller update prune the queue, and reducers are scanned in
insertion order, so runs are reproducible for a fixed input sequence.

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
from operator import add, sub

from .field import QQ, FpDomain
from .poly import Poly, VarRegistry, grevlex_key, monomial_basis


def _lcm(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


def _divides(a, b):
    """a | b as monomials."""
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _sub_exp(a, b):
    return tuple(map(sub, a, b))


def _add_exp(a, b):
    return tuple(map(add, a, b))


class _KeyMemo(dict):
    """term -> key(term), each computed once in one reduction's lifetime."""

    def __init__(self, key):
        self.key = key

    def __missing__(self, term):
        k = self[term] = self.key(term)
        return k


def normal_form(f, basis, dom, key=grevlex_key):
    """Full normal form of the dict-polynomial f modulo the (monic) basis."""
    f = dict(f)
    out = {}
    lts = [(max(g, key=key), g) for g in basis if g]
    lead = _KeyMemo(key).__getitem__
    while f:
        le = max(f, key=lead)
        lc = f[le]
        hit = None
        for lt, g in lts:
            if _divides(lt, le):
                hit = (lt, g)
                break
        if hit is None:
            out[le] = lc
            del f[le]
            continue
        lt, g = hit
        m = _sub_exp(le, lt)
        for e, v in g.items():
            t = _add_exp(e, m)
            s = dom.sub(f.get(t, dom.zero), dom.mul(v, lc))
            if dom.is_zero(s):
                f.pop(t, None)
            else:
                f[t] = s
    return out


def _add_scaled(vec, other, exp, c, dom):
    """vec += c * x^exp * other in place, for dicts {(slot, exp): coeff}.

    Cofactor rows (slot = input generator) and module vectors (slot =
    component) share this form.
    """
    for (g, e), v in other.items():
        t = (g, _add_exp(e, exp))
        s = dom.add(vec.get(t, dom.zero), dom.mul(v, c))
        if dom.is_zero(s):
            vec.pop(t, None)
        else:
            vec[t] = s
    return vec


def buchberger(gens, dom=QQ, key=grevlex_key, track=False, degree_cap=None):
    """Reduced Groebner basis of homogeneous dict-polynomials.

    Returns (basis, info) where basis is the auto-reduced monic basis and
    info carries: 'syzygies' (generating set of the syzygy module over the
    *input* generators, if track) and 'truncated' (True if a degree cap
    dropped pairs).
    """
    work = []  # list of (lt, poly, cofactor_row)
    syzygies = []
    truncated = False

    def add_poly(f, row):
        lt = max(f, key=key)
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
        lead = _KeyMemo(key).__getitem__
        while f:
            le = max(f, key=lead)
            lc = f[le]
            hit = -1
            for idx, (lt, _, _) in enumerate(work):
                if _divides(lt, le):
                    hit = idx
                    break
            if hit < 0:
                break
            lt, g, grow = work[hit]
            m = _sub_exp(le, lt)
            for e, v in g.items():
                t = _add_exp(e, m)
                s = dom.sub(f.get(t, dom.zero), dom.mul(v, lc))
                if dom.is_zero(s):
                    f.pop(t, None)
                else:
                    f[t] = s
            if track:
                _add_scaled(row, grow, m, dom.neg(lc), dom)
        return f, row

    pairs = []  # heap of (degree, lcm-key, i, j)

    def lcm_of(i, j):
        return _lcm(work[i][0], work[j][0])

    def push_pair(i, j):
        l = lcm_of(i, j)
        heapq.heappush(pairs, (sum(l), key(l), i, j))

    def update_pairs(t):
        """Gebauer-Moeller update after appending element t."""
        lt_t = work[t][0]
        new_pairs = []
        for i in range(t):
            new_pairs.append((i, t))
        # drop (i,t) when lcm(i,t) is strictly divisible by lcm(j,t) (chain
        # among the new pairs), keeping one representative per lcm
        kept = []
        lcms = {i: lcm_of(i, t) for i, _ in new_pairs}
        for i, _ in new_pairs:
            li = lcms[i]
            drop = False
            for j, _ in new_pairs:
                if j == i:
                    continue
                lj = lcms[j]
                if lj != li and _divides(lj, li):
                    drop = True
                    break
            if not drop:
                kept.append(i)
        # among equal lcms keep the smallest index
        best = {}
        for i in kept:
            li = lcms[i]
            if li not in best or i < best[li]:
                best[li] = i
        kept = sorted(best.values())
        # old pairs made redundant by t (classic chain criterion)
        survivors = []
        for d, lk, i, j in pairs:
            l = lcm_of(i, j)
            if (
                _divides(lt_t, l)
                and lcm_of(i, t) != l
                and lcm_of(j, t) != l
            ):
                continue
            survivors.append((d, lk, i, j))
        pairs[:] = survivors
        heapq.heapify(pairs)
        for i in kept:
            li = lcms[i]
            # product criterion: coprime leading terms reduce to zero; their
            # Koszul relation g_i * row_t - g_t * row_i still enters the
            # syzygy generating set
            if li == _add_exp(work[i][0], lt_t):
                if track:
                    _, g_i, row_i = work[i]
                    _, g_t, row_t = work[t]
                    row = {}
                    for e, c in g_i.items():
                        _add_scaled(row, row_t, e, c, dom)
                    for e, c in g_t.items():
                        _add_scaled(row, row_i, e, dom.neg(c), dom)
                    _record_syzygy(row)
                continue
            push_pair(i, t)

    def _record_syzygy(row):
        if row:  # an empty row is no relation
            syzygies.append(row)

    # seed with the inputs
    for i, f in enumerate(gens):
        if not f:
            continue
        row = {(i, (0,) * len(next(iter(f)))): dom.one} if track else {}
        # reduce new generator against current basis to keep things small
        f2, row = reduce_tracked(dict(f), row)
        if not f2:
            if track:
                _record_syzygy(row)
            continue
        t = add_poly(f2, row)
        update_pairs(t)

    while pairs:
        d, lk, i, j = heapq.heappop(pairs)
        if degree_cap is not None and d > degree_cap:
            truncated = True
            break
        lt_i, gi, row_i = work[i]
        lt_j, gj, row_j = work[j]
        l = _lcm(lt_i, lt_j)
        mi = _sub_exp(l, lt_i)
        mj = _sub_exp(l, lt_j)
        s = {}
        for e, v in gi.items():
            s[_add_exp(e, mi)] = v
        for e, v in gj.items():
            t2 = _add_exp(e, mj)
            r = dom.sub(s.get(t2, dom.zero), v)
            if dom.is_zero(r):
                s.pop(t2, None)
            else:
                s[t2] = r
        row = {}
        if track:
            _add_scaled(row, row_i, mi, dom.one, dom)
            _add_scaled(row, row_j, mj, dom.neg(dom.one), dom)
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
        nf = normal_form(f, others, dom, key)
        if nf:
            lt = max(nf, key=key)
            inv = dom.inv(nf[lt])
            reduced.append({e: dom.mul(v, inv) for e, v in nf.items()})
        basis[idx] = nf
    reduced.sort(key=lambda g: key(max(g, key=key)))
    info = {"truncated": truncated, "syzygies": syzygies if track else None}
    return reduced, info


# ---------------------------------------------------------------------------
# Hilbert series of monomial ideals by pivot recursion


def _minimalize_monomials(gens):
    gens = sorted(set(gens), key=lambda e: (sum(e), e))
    out = []
    for g in gens:
        if not any(_divides(h, g) for h in out):
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
    key: object
    polys: list  # reduced, monic, sorted dict-polynomials
    truncated: bool = False

    def as_polys(self):
        return [Poly(self.reg, self.dom, dict(g)) for g in self.polys]

    def leading_terms(self):
        return [max(g, key=self.key) for g in self.polys]

    def normal_form(self, p: Poly) -> Poly:
        nf = normal_form(dict(p.terms), self.polys, self.dom, self.key)
        return Poly(self.reg, self.dom, nf)

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
            polys, info = buchberger([dict(g.terms) for g in self.gens], self.dom)
            self._gb = GroebnerBasis(self.reg, self.dom, grevlex_key, polys, info["truncated"])
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
                row[ix[_add_exp(e, m)]] = c
            rows.append(row)
    if not rows:
        return len(monos)
    if isinstance(dom, FpDomain):
        return len(monos) - np_rank(rows, dom.p)
    return len(monos) - _rank(rows, dom)
