from fractions import Fraction
import random

import pytest

from heis7 import resolution
from heis7.field import QQ, fp
from heis7.groebner import GradedIdeal, Monomials
from heis7.linalg import rank
from heis7.moduli import j_ideal, surface_ideal
from heis7.poly import Poly, REG_U, REG_X, VarRegistry, grevlex_key, monomial_basis, parse_poly
from heis7.resolution import (
    NotHilbertBurch,
    free_resolution,
    hb_minors,
    hilbert_burch,
    intersect,
    induced_key_from,
    minimal_ideal_gens,
    syzygies_of_polys,
)
from oracles import betti_koszul, induced_key_recursive


def u(s):
    return parse_poly(s, REG_U)


def test_twisted_cubic_resolution():
    I = GradedIdeal(REG_U, QQ, [u("u1*u2"), u("u2*u3"), u("u3*u1")])
    bt = free_resolution(I)
    assert bt.complete
    assert bt.entries == {(0, 0): 1, (1, 2): 3, (2, 3): 2}
    assert bt.render().splitlines()[0].split() == ["1", "-", "-"]


def test_apolar_ideal_resolution():
    J = j_ideal()
    bt = free_resolution(J)
    assert bt.complete
    assert bt.entries == {(0, 0): 1, (1, 2): 7, (2, 3): 8, (2, 4): 3, (3, 5): 8, (4, 6): 3}
    assert bt.alternating_sums() == J.hilbert().numerator


@pytest.mark.parametrize(
    "gens",
    [
        ["u1*u2", "u2*u3", "u3*u1", "u1^2+u0*u3"],
        # coprime leading terms: the product criterion drops the only pair
        ["u2*u3", "u1^2+u0*u3"],
    ],
    ids=["four_forms", "coprime_leading_terms"],
)
def test_syzygies_are_exact(gens):
    gens = [u(s) for s in gens]
    syz, truncated = syzygies_of_polys(gens, QQ)
    assert not truncated and syz
    for v in syz:
        acc = Poly.zero(REG_U, QQ)
        for (gi, e), c in v.items():
            acc = acc + Poly.monomial(REG_U, e, c) * gens[gi]
        assert acc.is_zero()


def test_single_form_has_no_syzygies():
    syz, truncated = syzygies_of_polys([u("u0^2 + u1*u2")], QQ)
    assert not truncated and syz == []


def test_hilbert_burch_roundtrip():
    gens = [u("u1*u2"), u("u2*u3"), u("u3*u1")]
    mat = hilbert_burch(gens)
    assert mat.nrows == 3 and mat.ncols == 2
    minors = hb_minors(mat)
    monos = monomial_basis(REG_U, 2)
    ix = {e: i for i, e in enumerate(monos)}

    def coords(ps):
        rows = []
        for p in ps:
            row = [Fraction(0)] * len(monos)
            for e, c in p.terms.items():
                row[ix[e]] = c
            rows.append(row)
        return rows

    assert rank(coords(minors)) == 3
    assert rank(coords(minors) + coords(gens)) == 3


def test_hilbert_burch_rejects():
    with pytest.raises(NotHilbertBurch):
        hilbert_burch([u("u0*u1"), u("u0*u2"), u("u0*u3")])
    with pytest.raises(NotHilbertBurch):
        hilbert_burch([u("u0^2"), u("u0^2"), u("u1^2")])
    with pytest.raises(NotHilbertBurch):
        hilbert_burch([u("u0^2"), u("u1^2")])


def test_plane_cubic_union_point():
    RW = VarRegistry(["w", "x", "y", "z"])
    w = lambda s: parse_poly(s, RW)
    A = GradedIdeal(RW, QQ, [w("w"), w("x^3+y^3+z^3")])
    B = GradedIdeal(RW, QQ, [w("x"), w("y"), w("z")])
    C = intersect(A, B)
    bt = free_resolution(C)
    assert bt.entries == {(0, 0): 1, (1, 2): 3, (1, 3): 1, (2, 3): 3, (2, 4): 1, (3, 4): 1}


def test_intersection_identities():
    I = GradedIdeal(REG_U, QQ, [u("u1*u2"), u("u2*u3"), u("u3*u1")])
    II = intersect(I, I)
    assert sorted(str(g) for g in II.gens) == sorted(str(g) for g in I.gens)
    ONE = GradedIdeal(REG_U, QQ, [Poly.const(REG_U, 1)])
    IO = intersect(I, ONE)
    gb1 = GradedIdeal(REG_U, QQ, IO.gens).gb().polys
    gb2 = I.gb().polys
    assert gb1 == gb2


def test_minimal_generator_trim():
    gens = [u("u0^2"), u("u0^2 + u1*u2"), u("u0^3"), u("u1*u2")]
    kept = minimal_ideal_gens(gens, QQ)
    assert len(kept) == 2
    assert all(g.degree() == 2 for g in kept)


def test_field_agreement_on_fixture():
    J = j_ideal()
    F31 = fp(31)
    J31 = GradedIdeal(REG_U, F31, [g.map_coeffs(F31.coerce, F31) for g in J.gens])
    assert free_resolution(J).entries == free_resolution(J31).entries


def test_truncation_flag():
    J = j_ideal()
    bt = free_resolution(J, degree_cap=3)
    assert not bt.complete
    assert bt.entries[(1, 2)] == 7
    bt = free_resolution(J, max_steps=2)
    assert not bt.complete and "max_steps" in bt.note
    assert bt.max_step() == 2


REG_ABCD = VarRegistry(["a", "b", "c", "d"])


def _random_ideal(rng, dom):
    gens = []
    for _ in range(rng.randint(2, 4)):
        monos = monomial_basis(REG_ABCD, rng.randint(2, 3))
        picked = rng.sample(monos, rng.randint(1, 3))
        terms = {e: dom.coerce(rng.randint(1, 30)) for e in picked}
        gens.append(Poly(REG_ABCD, dom, terms))
    return gens


def test_betti_tables_against_koszul_oracle():
    F31 = fp(31)
    cap = 8
    positions = [(i, j) for i in range(1, 5) for j in range(i, cap + 1)]
    # gave a spurious beta_{2,6} = 1 while product-criterion pairs recorded
    # only the leading binomial of their Koszul relation
    counter_example = ["13*b^3 + 30*c^2*d + 21*c*d^2", "c*d", "20*a*c + 15*c*d + 30*d^2"]
    cases = [[parse_poly(s, REG_ABCD, F31) for s in counter_example]]
    rng = random.Random(1)
    cases += [_random_ideal(rng, F31) for _ in range(40)]
    for gens in cases:
        I = GradedIdeal(REG_ABCD, F31, gens)
        bt = free_resolution(I, degree_cap=cap)
        oracle = betti_koszul(I.gens, REG_ABCD, 31, positions)
        got = {k: b for k, b in bt.entries.items() if k != (0, 0) and k[1] <= cap}
        assert got == {k: b for k, b in oracle.items() if b}, [str(g) for g in gens]
        if bt.complete:
            assert bt.alternating_sums() == I.hilbert().numerator


def _surface_resolution_runs(monkeypatch):
    """Resolve the F31 surface ideal at t = (1,1,1,1) through degree 9.

    Returns the ideal, the tracked ModuleGB runs (one per level from 2 on)
    and the (lts, prev, key) of every induced_key_from call, in call order.
    """
    runs, keys = [], []
    init = resolution.ModuleGB.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.track:
            runs.append(self)

    def recording_key(lts, prev=None):
        key = induced_key_from(lts, prev)
        keys.append((lts, prev, key))
        return key

    monkeypatch.setattr(resolution.ModuleGB, "__init__", recording_init)
    monkeypatch.setattr(resolution, "induced_key_from", recording_key)
    ideal = surface_ideal((1, 1, 1, 1)).ideal(fp(31))
    bt = free_resolution(ideal, degree_cap=9)
    assert bt.complete and bt.entries[(2, 4)] == 49
    return ideal, runs, keys


def test_surface_resolution_does_the_same_work(monkeypatch):
    _, runs, _ = _surface_resolution_runs(monkeypatch)
    assert [len(gb.elems) for gb in runs] == [65, 45, 15, 2]
    assert [sum(map(len, gb.syzygies)) for gb in runs] == [2827, 264, 15, 0]
    assert [gb.pairs_processed for gb in runs] == [84, 19, 2, 0]
    assert [gb.n_inputs for gb in runs] == [49, 42, 15, 2]


def test_flat_induced_key_matches_recursive_oracle(monkeypatch):
    ideal, runs, keys = _surface_resolution_runs(monkeypatch)
    # minimal_ideal_gens builds its own order before the level orders start;
    # run k packs its basis terms in order k, and its syzygy rows become the
    # next level's vectors in order k + 1; the last level's order goes unused
    keys = keys[[key for _, _, key in keys].index(runs[0].order):]
    ring = keys[0][1]
    assert len(keys) == len(runs) + 1 and isinstance(ring, Monomials)
    oracles = []
    prev, unpack = grevlex_key, ring.unpack
    for lts, _, order in keys:
        prev = induced_key_recursive([unpack(t) for t in lts], prev)
        unpack = order.unpack
        oracles.append(prev)

    def same_order(order, oracle, terms):
        """Sorting packed terms as ints sorts them by the oracle, and
        every term survives an unpack/pack round trip."""
        terms = sorted(terms)
        decoded = [order.unpack(t) for t in terms]
        assert [order.pack(c, e) for c, e in decoded] == terms
        assert decoded == sorted(decoded, key=oracle)
        return len(terms)

    # hilbert_burch and Poly.leading pick the same ring leading terms
    gens = minimal_ideal_gens(ideal.gens, ideal.dom)
    assert keys[0][0] == [ring.pack(g.leading()[0]) for g in gens]
    checked = 0
    for k, gb in enumerate(runs):
        assert gb.order is keys[k][2]
        checked += same_order(gb.order, oracles[k], {t for v in gb.elems for t in v})
        nxt = keys[k + 1][2]
        syz = {t for row in gb.syzygies for t in nxt.from_row(row)}
        checked += same_order(nxt, oracles[k + 1], syz)
    assert checked > 1000


def _surface_points(seed, count):
    """Seeded non-degenerate surface points with F31-integral coefficients."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        t = tuple(Fraction(rng.randint(-100, 100), rng.randint(1, 100)) for _ in range(4))
        if not (t[1] and t[2] and t[3]):
            continue
        S = surface_ideal(t)
        if not S.degenerate and S.coefficient_domain(fp(31)) == fp(31):
            out.append(S)
    return out


def _engine_output_digest(monkeypatch, ideal):
    """sha256 of every value the engines hand out while resolving ideal.

    Reprs keep dict insertion order, so a reordered vector changes the
    digest as much as a changed coefficient does.
    """
    import hashlib

    from heis7 import groebner

    h = hashlib.sha256()

    def put(*values):
        h.update(repr(values).encode())

    runs = []
    init = resolution.ModuleGB.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        runs.append(self)

    def recording_buchberger(*args, **kwargs):
        basis, info = real_buchberger(*args, **kwargs)
        put("buchberger", basis, info)
        return basis, info

    def recording_feed(*args, **kwargs):
        kept, capped = real_feed(*args, **kwargs)
        put("kept", kept, capped)
        return kept, capped

    real_buchberger, real_feed = groebner.buchberger, resolution._feed
    with monkeypatch.context() as mp:
        mp.setattr(resolution.ModuleGB, "__init__", recording_init)
        mp.setattr(groebner, "buchberger", recording_buchberger)
        mp.setattr(resolution, "buchberger", recording_buchberger)
        mp.setattr(resolution, "_feed", recording_feed)
        gb = ideal.gb()
        put("gb", gb.polys, gb.truncated)
        for s in ("x0^4", "x0*x1*x2*x3 + x4^2*x5*x6", "x1^3*x2 - 3*x3^2*x5^2 + x6^4", "x0^2*x1*x2*x3*x4"):
            put("nf", gb.normal_form(parse_poly(s, REG_X, ideal.dom)).terms)
        bt = free_resolution(ideal, degree_cap=9)
    put("betti", sorted(bt.entries.items()), bt.complete)
    for run in runs:
        put("run", run.elems, run.rows, run.syzygies, run.pairs_processed, run.n_inputs)
    return h.hexdigest()


def test_engine_outputs_are_unchanged(monkeypatch):
    # digests captured from engines on plain Fraction arithmetic; the
    # integer kernel must hand out the same values in the same order
    points = _surface_points(7, 2)
    got = [_engine_output_digest(monkeypatch, S.ideal(dom)) for dom in (QQ, fp(31)) for S in points]
    assert got == [
        "c4366031b03ecefb71374eebfd5f902b066214cd196de2f20287bb5165a81aa4",
        "a68b69956a4f4cce5c3f2caed64eaeb49cc30c84f74cfd7f0de6286a05550664",
        "0c0f57924c6b491b81d5066289adf8e5186830e793d14e46a66b12d06bdfc3fb",
        "175a429e50bb0b6012c5ac5e6f8fe2bcb8a855b23f38d8a0e0652d58dd08b8cd",
    ]
