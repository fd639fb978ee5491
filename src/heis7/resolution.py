"""Graded syzygies and minimal free resolutions by iterated module Buchberger.

Free-module terms are packed into one int each, on the fields of
groebner.Monomials (see there for P(e)).  A ModuleOrder packs the term
(c, e) as

    K(c, e) = ((P(e) - P(0)) << tb) + base[c],

so a vector is a dict {K: coefficient}, its leading term is max(v),
multiplying by x^m adds (P(m) - P(0)) << tb to every key, and a reducer's
leading term divides a term of its component when their difference sets no
guard bit.  Cofactor rows use the plain packing of groebner.py.

Each resolution level carries the classical induced monomial order: module
terms compare through their images under the previous level's leading
terms, with position as the tie-break.  This keeps syzygy reductions short
and makes the harvested relations a basis of the syzygy module level after
level.  Unrolled down to the ring, (c, e) compares by grevlex(e + shift[c])
and then by tail[c], where shift[c] sums the leading exponents along
component c's chain of leading terms and tail[c] lists the negated
components along that chain, c last.  The induced order's base[c] is
P(shift[c]) << tb plus the rank of tail[c] among the level's tails, so the
integer order is that tuple order; tests/oracles.py keeps the recursive
form.  pot_key puts the component's code above P(e) instead.

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

Coefficients are groebner.Coeffs integers, over Q or F_p only: ModuleGB
keeps its basis as (G, RG, L) elements and reduces fraction-free (see
groebner.py).  Vectors enter add_input as dicts of Fractions or ints and
leave the same way: its normal forms, the syzygies, and the elems and rows
views of the basis.

Conversion happens only at the boundary: Polys enter packed, and
syzygies_of_polys, the hilbert_burch columns, intersect and
minimal_ideal_gens unpack what they return.
"""

from __future__ import annotations

from dataclasses import dataclass
import heapq

from .field import QQ
from .groebner import B, Coeffs, GradedIdeal, Monomials, buchberger, check_degree
from .poly import Poly


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
        """The vector of a plain-packed row over this module's components."""
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
    component c.  prev is where those terms live: a Monomials ring for the
    first syzygy level, otherwise the previous level's induced order.  The
    key of (c, e) compares grevlex(e + shift[c]) and then tail[c], the same
    order as recursing through every earlier level.
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


class ModuleGB:
    """Incremental module Groebner basis, complete through a moving degree.

    Inputs arrive by ascending degree through add_input.  With track=True
    every basis element carries its cofactor row over the kept inputs, and
    each S-pair that reduces to zero leaves its row in syzygies.
    """

    def __init__(self, dom, order, track=False):
        self.kern = Coeffs(dom)
        self.order = order
        self.track = track
        self.lts = []
        self.basis = []  # kernel elements (G, RG, L); RG over the kept inputs, None untracked
        self.reducers = {}  # component -> [(lt, index)] in insertion order
        self.pairs = []  # heap (degree, lcm, i, j)
        self.syzygies = []
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
        order = self.order
        lt = max(F)
        t = len(self.basis)
        self.lts.append(lt)
        self.basis.append(self.kern.element(F, R))
        same = self.reducers.setdefault(order.component(lt), [])
        for li, i in same:
            l = order.lcm(li, lt)
            heapq.heappush(self.pairs, (order.degree(l), l, i, t))
        same.append((lt, t))

    def _reduce(self, F, D, R=None):
        """Normal form (out, D) of F/D, reducing F in place; a given row R
        over D takes the reducers' cofactors."""
        kern, order, basis = self.kern, self.order, self.basis
        guard, reducers = order.guard, self.reducers
        out = {}
        while F:
            le = max(F)
            for lt, i in reducers.get(order.component(le), ()):
                if not (lt - le) & guard:
                    break
            else:
                out[le] = F.pop(le)
                continue
            rshift = 0 if R is None else order.plain(le - lt)
            D = kern.step(D, F[le], basis[i], le - lt, rshift, F, R, out)
        return out, D

    def process_pairs_through(self, degree):
        kern, order = self.kern, self.order
        guard, lts, basis = order.guard, self.lts, self.basis
        while self.pairs and self.pairs[0][0] <= degree:
            self.pairs_processed += 1
            d, l, i, j = heapq.heappop(self.pairs)
            check_degree(d, "S-pair degree")
            # chain criterion: a third element divides the lcm strictly
            li, lj = lts[i], lts[j]
            if any(
                k != i
                and k != j
                and not (lk - l) & guard
                and order.lcm(li, lk) != l
                and order.lcm(lk, lj) != l
                for lk, k in self.reducers[order.component(l)]
            ):
                continue
            F, R, D = kern.pair(basis[i], basis[j], l - li, l - lj, order.plain(l - li), order.plain(l - lj))
            F, D = self._reduce(F, D, R)
            if F:
                self._add(F, R)
            elif R:
                self.syzygies.append(kern.export(R, D))

    def add_input(self, v):
        """Feed a generator (ascending degree) and return its normal form.

        The basis is first completed through v's degree.  An empty normal
        form means v is redundant: it takes no input index and records no
        syzygy.  A nonzero one becomes kept input number n_inputs and enters
        the basis with a unit cofactor row.
        """
        self.process_pairs_through(self.order.vec_degree(v))
        F, D = self.kern.lift(v)
        F, D = self._reduce(F, D)
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
    """Feed vectors to gb by ascending degree, equal degrees ordered by tie.

    Returns (kept, capped): the nonzero normal forms in feeding order, which
    minimally generate what the vectors generate, and whether degree_cap
    dropped any vector.  A tracked gb collects the kept forms' syzygies.
    """
    kept = []
    capped = False
    degree = gb.order.vec_degree
    for v in sorted(vectors, key=lambda v: (degree(v), tie(v))):
        if degree_cap is not None and degree(v) > degree_cap:
            capped = True
            continue
        nf = gb.add_input(v)
        if nf:
            kept.append(nf)
    return kept, capped


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


def syzygies_of_polys(gens, dom=QQ, degree_cap=None):
    """Generating set of the syzygy module of the given nonzero polynomials.

    Returns (vectors, truncated): vectors {(i, exponent): coeff} live in the
    free module with one component per generator, and each is an exact
    syzygy, sum_i v[i] * gens[i] = 0, the full Koszul relations of pairs
    dropped by the product criterion included.  truncated says that
    degree_cap dropped pairs, so that the vectors generate only through
    that degree.
    """
    if not gens:
        return [], False
    order, vectors, truncated = _first_syzygies(gens, dom, degree_cap)
    return [{order.unpack(k): c for k, c in v.items()} for v in vectors], truncated


def _first_syzygies(gens, dom, degree_cap):
    """The first syzygies of the nonzero polynomials gens.

    Returns (order, vectors, truncated): the order induced by the
    generators' leading terms, their syzygies packed in it, and whether the
    degree cap truncated the Buchberger run.
    """
    ring = Monomials(gens[0].reg.n)
    packed = [ring.pack_poly(g.terms) for g in gens]
    _, info = buchberger(packed, ring, dom, track=True, degree_cap=degree_cap)
    order = induced_key_from([max(f) for f in packed], ring)
    return order, [order.from_row(r) for r in info["syzygies"]], info["truncated"]


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

    gens = minimal_ideal_gens(ideal.gens, dom)
    for g in gens:
        entries[(1, g.degree())] = entries.get((1, g.degree()), 0) + 1
    if not gens:
        return BettiTable(entries)
    order, candidates, truncated = _first_syzygies(gens, dom, degree_cap)
    if truncated:
        note.append("level 1 pair queue truncated at the degree cap")

    step = 1
    while candidates:
        if step >= max_steps:
            note.append(f"max_steps stopped before homological step {step + 1}")
            break
        step += 1
        gb = ModuleGB(dom, order, track=True)
        kept, capped = _feed(gb, candidates, order.lowest_component, degree_cap)
        if capped:
            note.append(f"degree cap dropped syzygy candidates at step {step}")
        if not kept:
            break
        for v in kept:
            d = order.vec_degree(v)
            entries[(step, d)] = entries.get((step, d), 0) + 1
        gb.process_pairs_through(degree_cap)
        if gb.pairs:
            note.append(f"degree cap left pairs unprocessed after step {step}")
        order = induced_key_from([max(v) for v in kept], order)
        candidates = [order.from_row(r) for r in gb.syzygies]

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

    order, syz, _ = _first_syzygies(gens, dom, 8)
    kept, _ = _feed(ModuleGB(dom, order), syz, order.lowest_component)
    degrees = [order.vec_degree(v) for v in kept]
    if len(kept) != 2 or any(d != 3 for d in degrees):
        raise NotHilbertBurch(
            f"syzygy shape is not two linear columns (column degrees {sorted(d - 2 for d in degrees)})"
        )
    cols = []
    for v in kept:
        col = [Poly.zero(reg, dom) for _ in range(3)]
        for k, coeff in v.items():
            c, e = order.unpack(k)
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
    gdeg = [0] + [g.degree() for g in a.gens] + [h.degree() for h in b.gens]
    order = pot_key(Monomials(reg.n), gdeg)
    vecs = []
    for i, g in enumerate(a.gens):
        v = {order.pack(0, e): c for e, c in g.terms.items()}
        v[order.pack(1 + i, zero_exp)] = dom.one
        vecs.append(v)
    for j, h in enumerate(b.gens):
        v = {order.pack(0, e): dom.neg(c) for e, c in h.terms.items()}
        v[order.pack(1 + r + j, zero_exp)] = dom.one
        vecs.append(v)
    gb = ModuleGB(dom, order)
    _feed(gb, vecs, lambda v: 0)
    gb.process_pairs_through(10**9)
    out = []
    for lt, v in zip(gb.lts, gb.elems):
        if order.component(lt) == 0:
            continue  # still involves the eliminated slot
        p = Poly.zero(reg, dom)
        for k, coeff in v.items():
            c, e = order.unpack(k)
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
    reg = polys[0].reg
    ring = Monomials(reg.n)
    order = induced_key_from([ring.one], ring)
    vecs = [{order.pack(0, e): c for e, c in p.terms.items()} for p in polys]
    kept, _ = _feed(ModuleGB(dom, order), vecs, max)
    return [Poly(reg, dom, {order.unpack(k)[1]: c for k, c in v.items()}, _clean=True) for v in kept]
