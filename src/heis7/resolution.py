"""Graded syzygies and minimal free resolutions by iterated module Buchberger.

Free-module vectors are dicts {(component, exponent-tuple): coefficient}.
Each resolution level carries the classical induced monomial order: module
terms compare through their images under the previous level's leading
terms, with position as the tie-break.  This keeps syzygy reductions short
and makes the harvested relations a basis of the syzygy module level after
level.  Unrolled down to the ring, the key of a term (c, e) is
grevlex(e + shift[c]) + tail[c], where shift[c] sums the leading exponents
along component c's chain of leading terms and tail[c] lists the negated
components along that chain, c last; both are fixed when the level is built.

Level 1 trims the ideal's generators to minimal ones (minimal_ideal_gens)
and takes their syzygies from a tracked ring-level Buchberger run.  Every
later level is a single tracked ModuleGB run fed the previous level's
syzygies by ascending degree.  Each candidate is reduced against the basis,
completed through the candidate's degree.  A nonzero normal form is a new
minimal generator: it takes the next component and enters the basis with a
unit cofactor row.  A zero normal form is redundant and leaves nothing
behind.  The S-pairs that reduce to zero along the way give the syzygies of
the kept generators, which are the next level's candidates.  Minimality of
the kept generators makes the graded Betti numbers plain counts, checked
against the Hilbert-series alternating sums by callers.
"""

from __future__ import annotations

from dataclasses import dataclass
import heapq

from .field import QQ
from .groebner import (
    GradedIdeal,
    _KeyMemo,
    _add_exp,
    _add_scaled,
    _divides,
    _lcm,
    _sub_exp,
    buchberger,
)
from .poly import Poly, grevlex_key


# ---------------------------------------------------------------------------
# module vectors


def vec_degree(v, gdeg):
    for (c, e) in v:
        return sum(e) + gdeg[c]
    return -1


def induced_key_from(lts, prev=None):
    """Module order induced by assigned leading terms, position tie-break.

    lts[c] is the leading term of the generator presented by component c.
    With prev None, lts are ring exponents compared by grevlex (the first
    syzygy level); otherwise they are terms (component, exponent) of the
    module whose induced key is prev.  The key of (c, e) is
    grevlex(e + shift[c]) + tail[c], the same tuple as recursing through
    every earlier level, at the cost of one exponent add.
    """
    if prev is None:
        shift, tail = list(lts), [(-c,) for c in range(len(lts))]
    else:
        shift = [_add_exp(e, prev.shift[b]) for b, e in lts]
        tail = [prev.tail[b] + (-c,) for c, (b, _) in enumerate(lts)]

    def key(term):
        c, e = term
        return grevlex_key(_add_exp(e, shift[c])) + tail[c]

    key.shift, key.tail = shift, tail
    return key


def pot_key(ring_key):
    """Position-over-term: component 0 dominates (elimination order)."""

    def key(term):
        c, e = term
        return (1 if c == 0 else 0, -c) + ring_key(e)

    return key


class ModuleGB:
    """Incremental module Groebner basis, complete through a moving degree.

    Inputs arrive by ascending degree through add_input.  With track=True
    every basis element carries its cofactor row over the kept inputs, and
    each S-pair that reduces to zero leaves its row in syzygies.
    """

    def __init__(self, dom, key, gdeg, track=False):
        self.dom = dom
        self.key = key
        self.gdeg = gdeg
        self.track = track
        self.lts = []
        self.elems = []
        self.rows = []  # cofactor rows over the kept inputs (None untracked)
        self.pairs = []  # heap (degree, lcm key, i, j)
        self.syzygies = []
        self.n_inputs = 0
        self.pairs_processed = 0

    # -- internals ------------------------------------------------------

    def _push_pairs(self, t):
        ct, et = self.lts[t]
        for i in range(t):
            ci, ei = self.lts[i]
            if ci != ct:
                continue
            l = _lcm(ei, et)
            d = sum(l) + self.gdeg[ci]
            heapq.heappush(self.pairs, (d, self.key((ci, l)), i, t))

    def _add(self, v, row):
        lt = max(v, key=self.key)
        lc = v[lt]
        if not self.dom.is_zero(self.dom.sub(lc, self.dom.one)):
            inv = self.dom.inv(lc)
            v = {t: self.dom.mul(c, inv) for t, c in v.items()}
            if row:
                row = {t: self.dom.mul(c, inv) for t, c in row.items()}
        self.lts.append(lt)
        self.elems.append(v)
        self.rows.append(row)
        self._push_pairs(len(self.elems) - 1)

    def _reduce(self, v, row=None):
        """Normal form of v; a given row takes the reducers' cofactors."""
        dom, lead = self.dom, _KeyMemo(self.key).__getitem__
        f = dict(v)
        out = {}
        while f:
            le = max(f, key=lead)
            lc = f[le]
            hit = -1
            lc_comp, lc_exp = le
            for i, (bc, be) in enumerate(self.lts):
                if bc == lc_comp and _divides(be, lc_exp):
                    hit = i
                    break
            if hit < 0:
                out[le] = lc
                del f[le]
                continue
            m = _sub_exp(lc_exp, self.lts[hit][1])
            c = dom.neg(lc)
            _add_scaled(f, self.elems[hit], m, c, dom)
            if row is not None:
                _add_scaled(row, self.rows[hit], m, c, dom)
        return out

    def process_pairs_through(self, degree):
        dom = self.dom
        minus_one = dom.neg(dom.one)
        while self.pairs and self.pairs[0][0] <= degree:
            self.pairs_processed += 1
            d, lk, i, j = heapq.heappop(self.pairs)
            # chain criterion: a third element divides the lcm strictly
            ci, ei = self.lts[i]
            cj, ej = self.lts[j]
            l = _lcm(ei, ej)
            skip = False
            for k, (ck, ek) in enumerate(self.lts):
                if k in (i, j) or ck != ci:
                    continue
                if _divides(ek, l):
                    lik = _lcm(ei, ek)
                    lkj = _lcm(ek, ej)
                    if lik != l and lkj != l:
                        skip = True
                        break
            if skip:
                continue
            mi = _sub_exp(l, ei)
            mj = _sub_exp(l, ej)
            s = _add_scaled({}, self.elems[i], mi, dom.one, dom)
            _add_scaled(s, self.elems[j], mj, minus_one, dom)
            row = None
            if self.track:
                row = _add_scaled({}, self.rows[i], mi, dom.one, dom)
                _add_scaled(row, self.rows[j], mj, minus_one, dom)
            s = self._reduce(s, row)
            if s:
                self._add(s, row)
            elif row:
                self.syzygies.append(row)

    def add_input(self, v):
        """Feed a generator (ascending degree) and return its normal form.

        The basis is first completed through v's degree.  An empty normal
        form means v is redundant: it takes no input index and records no
        syzygy.  A nonzero one becomes kept input number n_inputs and enters
        the basis with a unit cofactor row.
        """
        self.process_pairs_through(vec_degree(v, self.gdeg))
        nf = self._reduce(v)
        if nf:
            row = None
            if self.track:
                zero = (0,) * len(next(iter(nf))[1])
                row = {(self.n_inputs, zero): self.dom.one}
            self.n_inputs += 1
            self._add(nf, row)
        return nf


def _feed(gb, vectors, tie, degree_cap=None):
    """Feed vectors to gb by ascending degree, equal degrees ordered by tie.

    Returns (kept, capped): the nonzero normal forms in feeding order, which
    minimally generate what the vectors generate, and whether degree_cap
    dropped any vector.  A tracked gb collects the kept forms' syzygies.
    """
    kept = []
    capped = False
    for v in sorted(vectors, key=lambda v: (vec_degree(v, gb.gdeg), tie(v))):
        if degree_cap is not None and vec_degree(v, gb.gdeg) > degree_cap:
            capped = True
            continue
        nf = gb.add_input(v)
        if nf:
            kept.append(nf)
    return kept, capped


def _lowest_component(v):
    return min(c for c, _ in v)


# ---------------------------------------------------------------------------
# Betti tables


@dataclass
class BettiTable:
    """Graded Betti numbers beta_{i,j} of a cyclic graded module."""

    entries: dict  # (i, j) -> positive int
    complete: bool = True
    note: str = ""

    def beta(self, i, j):
        return self.entries.get((i, j), 0)

    def max_step(self):
        return max((i for i, _ in self.entries), default=0)

    def rows(self):
        return sorted({j - i for i, j in self.entries})

    def macaulay_rows(self):
        """The classical shorthand: entry (row r, column i) is beta_{i, i+r}."""
        if not self.entries:
            return []
        rmax = max(j - i for i, j in self.entries)
        cmax = self.max_step()
        grid = []
        for r in range(rmax + 1):
            grid.append([self.beta(i, i + r) for i in range(cmax + 1)])
        return grid

    def render(self) -> str:
        grid = self.macaulay_rows()
        if not grid:
            return "(empty)"
        w = max(len(str(v)) for row in grid for v in row) + 1
        lines = []
        for row in grid:
            lines.append("".join((str(v) if v else "-").rjust(w) for v in row))
        return "\n".join(lines)

    def alternating_sums(self):
        """Coefficients sum_i (-1)^i beta_{i,j} per degree j."""
        out = {}
        for (i, j), b in self.entries.items():
            out[j] = out.get(j, 0) + (b if i % 2 == 0 else -b)
        return {j: c for j, c in out.items() if c}

    def to_json(self):
        return [
            {"i": i, "j": j, "beta": b}
            for (i, j), b in sorted(self.entries.items())
        ]


# ---------------------------------------------------------------------------
# syzygies and resolutions


def syzygies_of_polys(gens, dom=QQ, key=grevlex_key, degree_cap=None):
    """Generating set of the syzygy module of the given polynomials.

    Returns (vectors, truncated): vectors live in the free module with one
    component per generator, and each is an exact syzygy,
    sum_i v[i] * gens[i] = 0, the full Koszul relations of pairs dropped by
    the product criterion included.  truncated says that degree_cap dropped
    pairs, so that the vectors generate only through that degree.
    """
    dicts = [dict(g.terms) for g in gens]
    _, info = buchberger(dicts, dom, key, track=True, degree_cap=degree_cap)
    return info["syzygies"], info["truncated"]


def free_resolution(ideal: GradedIdeal, degree_cap: int = 8, max_steps: int = 8):
    """Minimal graded free resolution of S/I, as a BettiTable.

    Level 1 is minimal_ideal_gens and a tracked ring-level Buchberger run;
    every later level is one tracked ModuleGB run (module docstring).  Betti
    numbers in internal degree <= degree_cap are exact; if the degree cap or
    max_steps cuts the computation short, the table is flagged.
    """
    dom = ideal.dom
    entries = {(0, 0): 1}
    note = []

    gens = [dict(g.terms) for g in minimal_ideal_gens(ideal.gens, dom)]
    gdeg = [sum(next(iter(g))) for g in gens]
    for d in gdeg:
        entries[(1, d)] = entries.get((1, d), 0) + 1
    _, info = buchberger(gens, dom, grevlex_key, track=True, degree_cap=degree_cap)
    if info["truncated"]:
        note.append("level 1 pair queue truncated at the degree cap")
    candidates = info["syzygies"]
    key = induced_key_from([max(g, key=grevlex_key) for g in gens])

    step = 1
    while candidates:
        if step >= max_steps:
            note.append(f"max_steps stopped before homological step {step + 1}")
            break
        step += 1
        gb = ModuleGB(dom, key, gdeg, track=True)
        kept, capped = _feed(gb, candidates, _lowest_component, degree_cap)
        if capped:
            note.append(f"degree cap dropped syzygy candidates at step {step}")
        if not kept:
            break
        for v in kept:
            d = vec_degree(v, gdeg)
            entries[(step, d)] = entries.get((step, d), 0) + 1
        gb.process_pairs_through(degree_cap)
        if gb.pairs:
            note.append(f"degree cap left pairs unprocessed after step {step}")
        candidates = gb.syzygies
        key = induced_key_from([max(v, key=key) for v in kept], key)
        gdeg = [vec_degree(v, gdeg) for v in kept]

    return BettiTable(entries, not note, "; ".join(note))


# ---------------------------------------------------------------------------
# Hilbert-Burch extraction


class NotHilbertBurch(Exception):
    pass


def hilbert_burch(gens, dom=QQ):
    """3x2 linear syzygy matrix of three independent quadrics in 4 variables.

    Raises NotHilbertBurch unless the resolution shape is exactly
    (1; 3 2): three quadric generators with two linear syzygies and nothing
    else.  The returned FormMatrix's 2x2 minors span the input quadrics'
    span (callers verify the round trip).
    """
    from .formmat import FormMatrix
    from .linalg import rank as _rank
    from .poly import coefficient_rows, monomial_basis

    if len(gens) != 3:
        raise NotHilbertBurch("need exactly three quadrics")
    reg = gens[0].reg
    if any(g.degree() != 2 or not g.is_homogeneous() for g in gens):
        raise NotHilbertBurch("generators must be homogeneous quadrics")
    if _rank(coefficient_rows(gens, monomial_basis(reg, 2)), dom) != 3:
        raise NotHilbertBurch("quadrics are linearly dependent")

    syz, _ = syzygies_of_polys(gens, dom, degree_cap=8)
    gdeg = [2, 2, 2]
    key = induced_key_from([g.leading()[0] for g in gens])
    kept, _ = _feed(ModuleGB(dom, key, gdeg), syz, _lowest_component)
    if len(kept) != 2 or any(vec_degree(v, gdeg) != 3 for v in kept):
        shape = sorted(vec_degree(v, gdeg) - 2 for v in kept)
        raise NotHilbertBurch(
            f"syzygy shape is not two linear columns (column degrees {shape})"
        )
    cols = []
    for v in kept:
        col = [Poly.zero(reg, dom) for _ in range(3)]
        for (c, e), coeff in v.items():
            col[c] = col[c] + Poly.monomial(reg, e, coeff, dom)
        cols.append(col)
    mat = FormMatrix([[cols[0][i], cols[1][i]] for i in range(3)])
    return mat


def hb_minors(mat):
    """The three signed 2x2 minors (delete row r) of a 3x2 form matrix."""
    out = []
    for r in range(3):
        rows = [i for i in range(3) if i != r]
        m = (
            mat[rows[0], 0] * mat[rows[1], 1]
            - mat[rows[0], 1] * mat[rows[1], 0]
        )
        out.append(m if r % 2 == 0 else -m)
    return out


# ---------------------------------------------------------------------------
# ideal intersection via module elimination


def intersect(a: GradedIdeal, b: GradedIdeal) -> GradedIdeal:
    """Intersection of two graded ideals in the same ring.

    Uses the kernel formulation: relations (p, q) with sum p_i g_i =
    sum q_j h_j are computed by a module Groebner basis in S^(1+r+s) under a
    block order eliminating the leading free-module slot.
    """
    if a.reg != b.reg or a.dom is not b.dom and a.dom != b.dom:
        raise ValueError("ideals live in different rings")
    reg, dom = a.reg, a.dom
    r, s = len(a.gens), len(b.gens)
    zero_exp = (0,) * reg.n
    vecs = []
    gdeg = [0] + [g.degree() for g in a.gens] + [h.degree() for h in b.gens]
    for i, g in enumerate(a.gens):
        v = {(0, e): c for e, c in g.terms.items()}
        v[(1 + i, zero_exp)] = dom.one
        vecs.append(v)
    for j, h in enumerate(b.gens):
        v = {(0, e): dom.neg(c) for e, c in h.terms.items()}
        v[(1 + r + j, zero_exp)] = dom.one
        vecs.append(v)
    gb = ModuleGB(dom, pot_key(grevlex_key), gdeg)
    _feed(gb, vecs, lambda v: 0)
    gb.process_pairs_through(10**9)
    out = []
    for lt, v in zip(gb.lts, gb.elems):
        if lt[0] == 0:
            continue  # still involves the eliminated slot
        p = Poly.zero(reg, dom)
        for (c, e), coeff in v.items():
            if 1 <= c <= r:
                p = p + Poly.monomial(reg, e, coeff, dom) * a.gens[c - 1]
        if not p.is_zero():
            out.append(p)
    return GradedIdeal(reg, dom, minimal_ideal_gens(out, dom))


def minimal_ideal_gens(polys, dom=QQ):
    """Trim a homogeneous generating set to minimal generators."""
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return []
    gb = ModuleGB(dom, induced_key_from([(0,) * polys[0].reg.n]), [0])
    vecs = [{(0, e): c for e, c in p.terms.items()} for p in polys]
    kept, _ = _feed(gb, vecs, lambda v: gb.key(max(v, key=gb.key)))
    return [Poly(polys[0].reg, dom, {e: c for (_, e), c in v.items()}) for v in kept]
