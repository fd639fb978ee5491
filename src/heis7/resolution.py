"""Minimal graded free resolutions, Hilbert-Burch matrices and intersections.

Every Groebner basis here is a groebner.ModuleGB (see there for the packed
module orders, the integer coefficients and the pair criteria).

A resolution is one loop over levels, starting at level 1 (_levels).
Level 1 is GradedIdeal.level_one(degree_cap): the ideal's generators fed
to a tracked rank-1 ModuleGB, the ring under induced_key_from([ring.one],
ring).  The ideal keeps that run once it comes out complete, and both
gb() and a resolution whose cap reaches the run's top degree take the kept
run, so hilbert() and free_resolution, in either order, do level 1 once.
Level k + 1 feeds level k's syzygies to a tracked ModuleGB under the order
induced by level k's kept forms: module terms compare through their images
under the previous level's leading terms, with position as the tie-break,
which keeps syzygy reductions short.  Each level takes its candidates by
ascending degree, then lowest component, then leading term.  Each
candidate is reduced against the basis, completed through the candidate's
degree.  A nonzero normal form is a new minimal generator: it takes the
next component and enters the basis with a unit cofactor row.  A zero
normal form is redundant and leaves nothing behind.  The S-pairs that reduce to zero along the way,
with the Koszul rows of the pairs that the product criterion drops at
level 1, give the syzygies of the kept forms, which are the next level's
candidates; they pass between levels as integer rows, and
ModuleOrder.from_row only moves their keys.  Minimality of the kept forms
makes the graded Betti numbers plain counts, checked against the
Hilbert-series alternating sums by callers.

The initial-ideal bound.  Level 1 completes a Groebner basis of I through
the degree cap, so its leading terms generate in(I) in those degrees.
Under Groebner degeneration beta_ij(S/I) <= beta_ij(S/in I) (Herzog-Hibi,
Monomial Ideals, Thm 3.3.4), and beta_ij depends only on the ideal in
degrees <= j, so the bound holds for every j up to the cap.  With
b_k = max{j : beta_kj(S/in I) > 0}, a minimal generator of level k has
degree <= b_k: level k takes candidates only through min(cap, b_k),
processes its S-pairs only through min(cap, b_{k+1}), which is as far as
the next level's candidates are needed, and the loop stops after the last
level at which in(I) has a Betti number.  At the surface this skips
S-pairs of level 2 in degree 7, which all reduce to zero and yield only
non-minimal syzygies.  A monomial ideal is its own initial ideal, so it
takes the uniform cap, and the bound never recurses; so does an ideal
whose in(I) table is incomplete.  The Betti numbers of a monomial ideal
depend only on the ideal and the characteristic, and almost every point of
the surface family has the same in(I), so the tops of in(I)'s table (or
None, incomplete) are kept process-wide by _initial_tops, the 64 latest,
keyed by (variable registry, sorted leading exponents of level 1, domain,
degree_cap): a Q run and an F_p run keep separate entries.
Each resolution copies them into its own tops.

Forms cross into and out of the engine only through ModuleOrder.vector
and ModuleOrder.forms: intersect's input vectors and cofactors, the
hilbert_burch columns and minimal_ideal_gens' forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .groebner import (
    GradedIdeal,
    ModuleGB,
    Monomials,
    _feed,
    _level,
    _ring_vectors,
    induced_key_from,
    pot_key,
)
from .poly import Poly, ring_of


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


def _levels(ideal, degree_cap, bound=None):
    """Yield (order, gb, capped) for the resolution levels 1, 2, ... of a
    GradedIdeal.

    gb is the level's tracked ModuleGB under order, gb.forms its nonzero
    normal forms, and capped says that the degree cap dropped candidates.
    Level 1 is ideal.level_one(degree_cap), completed through degree_cap.  Then
    bound(gb), if given, may return tops, where tops[k] is the highest
    degree in which level k can have a minimal generator (the initial-ideal
    bound of the module docstring).  Level k >= 2 then takes candidates only
    through min(degree_cap, tops[k]), processes pairs only through
    min(degree_cap, tops[k + 1]), and the loop ends at the last level in
    tops; a candidate the bound leaves out is redundant, so it does not
    count as capped.  Without tops every level runs through degree_cap, and
    the loop stops after a level that keeps nothing or has no syzygies.
    """
    gb, capped = ideal.level_one(degree_cap)
    order = gb.order
    k, tops = 1, None
    while True:
        yield order, gb, capped
        if k == 1 and bound is not None:
            tops = bound(gb)
        if not gb.forms or tops is not None and k + 1 not in tops:
            return
        order = induced_key_from([max(F) for F, _ in gb.forms], order)
        candidates = [(order.from_row(R), D) for R, D in gb.syzygies]
        if not candidates:
            return
        k += 1
        through = degree_cap
        if tops is not None:
            top = min(degree_cap, tops[k])
            candidates = [v for v in candidates if order.vec_degree(v[0]) <= top]
            through = min(degree_cap, tops.get(k + 1, -1))
        gb, capped = _level(order, candidates, ideal.dom, degree_cap, through)


@lru_cache(maxsize=64)
def _initial_tops(reg, lts, dom, degree_cap):
    """The tops of the table of the monomial ideal of the exponents lts, as
    (level, top degree) pairs, or None if that table is incomplete (module
    docstring: kept per process, by registry, leading terms, domain and
    budget)."""
    initial = GradedIdeal(reg, dom, [Poly.monomial(reg, e, dom.one, dom) for e in lts])
    bt = free_resolution(initial, degree_cap)
    if not bt.complete:
        return None
    tops = {}
    for i, j in bt.entries:
        tops[i] = max(tops.get(i, j), j)
    return tuple(tops.items())


def free_resolution(ideal: GradedIdeal, degree_cap: int = 8):
    """Minimal graded free resolution of S/I, as a BettiTable.

    One loop over the levels of _levels, from the ideal's generators on
    (module docstring).  Unless I is a monomial ideal, the leading terms of
    level 1's basis generate in(I) through degree_cap, and the table of
    in(I), resolved the same way, bounds levels 2 on through
    beta_ij(S/I) <= beta_ij(S/in I) (Herzog-Hibi, Monomial Ideals,
    Thm 3.3.4).  If that table is incomplete, every level runs through the
    degree cap.  Betti numbers in internal degree <= degree_cap are exact.

    complete means that no Betti number lies outside the table: level 1
    kept every generator and completed its Groebner basis within the cap,
    so under the bound in(I) is whole and its complete table bounds every
    degree; without the bound, no later level dropped a candidate or left an
    S-pair above the cap either.  Otherwise the note says where the
    computation was cut short.
    """
    tops = {}  # level -> top degree of in(I)'s table, once bound finds it complete

    def bound(gb):
        table = _initial_tops(ideal.reg, gb.leading_exponents, ideal.dom, degree_cap)
        if table is None:
            return None
        tops.update(table)
        return tops

    monomial = all(len(g.terms) == 1 for g in ideal.gens)
    entries = {(0, 0): 1}
    note = []
    levels = _levels(ideal, degree_cap, None if monomial else bound)
    for step, (order, gb, capped) in enumerate(levels, 1):
        if capped:
            note.append(f"degree cap dropped candidates at step {step}")
        for F, _ in gb.forms:
            d = order.vec_degree(F)
            entries[(step, d)] = entries.get((step, d), 0) + 1
        if gb.pairs and (step == 1 or not tops):
            note.append(f"degree cap left pairs unprocessed after step {step}")
    return BettiTable(entries, not note, "; ".join(note))


# ---------------------------------------------------------------------------
# Hilbert-Burch extraction


class NotHilbertBurch(Exception):
    pass


def hilbert_burch(gens):
    """3x2 linear syzygy matrix of three independent quadrics in 4 variables,
    over the generators' field.

    Raises NotHilbertBurch unless the resolution shape is exactly
    (1; 3 2): three quadric generators with two linear syzygies and nothing
    else.  Linear dependence is read off level 1: its run reduces each
    quadric against the earlier ones before any S-pair (pairs of quadrics
    have degree >= 3), so it keeps all three exactly when they are
    independent.  The rows belong to the quadrics that level 1 keeps, in
    ascending leading terms.  The returned FormMatrix's 2x2 minors span the
    input quadrics' span (callers verify the round trip).
    """
    from .formmat import FormMatrix

    if len(gens) != 3:
        raise NotHilbertBurch("need exactly three quadrics")
    reg, dom = gens[0].reg, gens[0].dom
    if any(g.degree() != 2 or not g.is_homogeneous() for g in gens):
        raise NotHilbertBurch("generators must be homogeneous quadrics")

    levels = _levels(GradedIdeal(reg, dom, gens), 8)
    if len(next(levels)[1].forms) != 3:
        raise NotHilbertBurch("quadrics are linearly dependent")
    order, gb, _ = next(levels)
    kept = gb.kept
    degrees = [order.vec_degree(v) for v in kept]
    if len(kept) != 2 or any(d != 3 for d in degrees):
        raise NotHilbertBurch(
            f"syzygy shape is not two linear columns (column degrees {sorted(d - 2 for d in degrees)})"
        )
    cols = [order.forms(v, reg, dom, 3) for v in kept]
    return FormMatrix([[cols[0][i], cols[1][i]] for i in range(3)])


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
    """Intersection of two graded ideals in one ring (poly.ring_of).

    Uses the kernel formulation: relations (p, q) with sum p_i g_i =
    sum q_j h_j are computed by a module Groebner basis in S^(1+r+s) under a
    block order eliminating the leading free-module slot.
    """
    reg, dom = ring_of((b,), (a.reg, a.dom), "ideal", "intersection with an ideal")
    r = len(a.gens)
    order = pot_key(Monomials(reg.n), [0] + [g.degree() for g in a.gens + b.gens])
    one = Poly.const(reg, 1, dom)
    vecs = [order.vector({0: g, c: one}) for c, g in enumerate(a.gens, 1)]
    vecs += [order.vector({0: -h, c: one}) for c, h in enumerate(b.gens, 1 + r)]
    gb = ModuleGB(dom, order)
    _feed(gb, map(gb.kern.lift, vecs), lambda v: 0)
    gb.process_pairs_through(10**9)
    out = []
    for lt, v in zip(gb.lts, gb.elems):
        if order.component(lt) == 0:
            continue  # still involves the eliminated slot
        cofactors = order.forms(v, reg, dom, len(order.base))[1 : 1 + r]
        p = Poly.zero(reg, dom)
        for q, g in zip(cofactors, a.gens):
            p = p + q * g
        if not p.is_zero():
            out.append(p)
    return GradedIdeal(reg, dom, minimal_ideal_gens(out))


def minimal_ideal_gens(polys):
    """Trim a homogeneous generating set to minimal generators, over the
    generators' field.  Every generator, zero or not, lives in the first
    one's ring (poly.ring_of); one of another ring is a ValueError naming
    both rings."""
    ring = ring_of(polys, None, "generator", "generators")
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return []
    reg, dom = ring
    order, vecs = _ring_vectors(reg, polys, dom)
    gb = ModuleGB(dom, order)
    _feed(gb, vecs, max)
    return [order.forms(v, reg, dom, 1)[0] for v in gb.kept]
