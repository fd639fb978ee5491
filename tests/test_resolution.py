from fractions import Fraction
from operator import add
import random

import pytest

from heis7 import resolution
from heis7.field import QQ, fp
from heis7.groebner import B, M, GradedIdeal, Monomials
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
    order, gb, kept, capped = next(resolution._levels(gens, QQ, 8))
    # the generators are monic and reduced, so level 1 keeps them as they
    # are, in ascending leading terms
    kept = [Poly(REG_U, QQ, {order.unpack(k)[1]: c for k, c in v.items()}) for v in kept]
    assert sorted(map(str, kept)) == sorted(map(str, gens))
    assert not capped and not gb.pairs and gb.syzygies
    for R, D in gb.syzygies:
        acc = Poly.zero(REG_U, QQ)
        for (gi, e), c in _row_terms(order, gb.kern.export(R, D)):
            acc = acc + Poly.monomial(REG_U, e, c) * kept[gi]
        assert acc.is_zero()


def test_single_form_has_no_syzygies():
    _, gb, kept, capped = next(resolution._levels([u("u0^2 + u1*u2")], QQ, 8))
    assert len(kept) == 1 and not capped and gb.syzygies == []


def _row_terms(order, row):
    """The terms ((input index, exponent), coeff) of a plain-packed row."""
    ring = order.ring
    for t, c in row.items():
        yield (t >> ring.bits, tuple(t >> (B * k) & M for k in range(ring.bits // B))), c


def _applied(order, kept, row, dom):
    """The nonzero terms of sum_i row_i * kept_i, on unpacked terms (c, e)."""
    acc = {}
    for (i, m), c in _row_terms(order, row):
        for k, v in kept[i].items():
            comp, e = order.unpack(k)
            key = (comp, tuple(map(add, e, m)))
            acc[key] = dom.add(acc.get(key, dom.zero), dom.mul(c, v))
    return {t: v for t, v in acc.items() if not dom.is_zero(v)}


# the F31 counter-example of test_betti_tables_against_koszul_oracle
COUNTER_EXAMPLE = ["13*b^3 + 30*c^2*d + 21*c*d^2", "c*d", "20*a*c + 15*c*d + 30*d^2"]


@pytest.mark.parametrize("case", ["surface_F31", "surface_QQ", "counter_example"])
def test_every_level_syzygy_is_exact(case, monkeypatch):
    if case == "counter_example":
        dom = fp(31)
        gens = GradedIdeal(REG_ABCD, dom, [parse_poly(s, REG_ABCD, dom) for s in COUNTER_EXAMPLE]).gens
    else:
        dom = fp(31) if case == "surface_F31" else QQ
        gens = surface_ideal((1, 1, 1, 1)).ideal(dom).gens
    koszul = []
    record = resolution.ModuleGB._koszul

    def spy(self, i, t):
        record(self, i, t)
        koszul.append(self)

    monkeypatch.setattr(resolution.ModuleGB, "_koszul", spy)
    runs = []
    for order, gb, kept, _ in resolution._levels(gens, dom, 9):
        for R, D in gb.syzygies:
            row = gb.kern.export(R, D)
            assert row and _applied(order, kept, row, dom) == {}
        runs.append(gb)
        if gb.syzygies:
            # a row with one coefficient changed is no syzygy
            t, c = next(iter(row.items()))
            row[t] = dom.add(c, dom.one)
            assert _applied(order, kept, row, dom) != {}
    # only level 1 applies the product criterion; on the counter-example it
    # recorded full Koszul rows, checked with the rest
    assert len(runs) >= 3 and all(gb is runs[0] for gb in koszul)
    assert koszul or case != "counter_example"


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

    Returns the ideal, the tracked ModuleGB runs (one per level from 1 on)
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
    assert [len(gb.elems) for gb in runs] == [21, 65, 45, 15, 2]
    assert [sum(len(R) for R, _ in gb.syzygies) for gb in runs] == [372, 2827, 264, 15, 0]
    assert [len(gb.syzygies) for gb in runs] == [51, 65, 16, 2, 0]
    assert [gb.pairs_processed for gb in runs] == [51, 81, 19, 2, 0]
    assert [gb.n_inputs for gb in runs] == [21, 49, 42, 15, 2]


def test_flat_induced_key_matches_recursive_oracle(monkeypatch):
    ideal, runs, keys = _surface_resolution_runs(monkeypatch)
    # level 1 runs in the ring as a rank-1 module; run k packs its basis
    # terms in order k, and its syzygy rows become the next level's vectors
    # in order k + 1; the last level's order goes unused
    ring = keys[0][1]
    assert keys[0][0] == [ring.one] and runs[0].order is keys[0][2]
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

    # level 1's kept forms have the leading terms that Poly.leading picks
    # for the minimal generators (one echelon basis of the cubics)
    gens = minimal_ideal_gens(ideal.gens, ideal.dom)
    assert sorted(keys[1][0]) == sorted(ring.pack(g.leading()[0]) for g in gens)
    checked = 0
    for k, gb in enumerate(runs):
        assert gb.order is keys[k][2]
        checked += same_order(gb.order, oracles[k], {t for v in gb.elems for t in v})
        nxt = keys[k + 1][2]
        syz = {t for row, _ in gb.syzygies for t in nxt.from_row(row)}
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


def _engine_digests(monkeypatch, ideal):
    """sha256 digests (outputs, runs) of what the engines hand out for ideal.

    outputs covers what any correct engine must give: the reduced basis,
    normal forms of four fixed forms and the Betti table at degree_cap=9
    with its complete flag.  runs covers how this engine got there: every
    ModuleGB run's basis vectors, rows, syzygies and counts, and the kept
    forms of every level.  Reprs keep dict insertion order, so a reordered
    vector changes a digest as much as a changed coefficient does.
    """
    import hashlib

    outputs, work = hashlib.sha256(), hashlib.sha256()

    def put(h, *values):
        h.update(repr(values).encode())

    runs = []
    init = resolution.ModuleGB.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        runs.append(self)

    def recording_feed(*args, **kwargs):
        kept, capped = real_feed(*args, **kwargs)
        put(work, "kept", kept, capped)
        return kept, capped

    real_feed = resolution._feed
    with monkeypatch.context() as mp:
        mp.setattr(resolution.ModuleGB, "__init__", recording_init)
        mp.setattr(resolution, "_feed", recording_feed)
        gb = ideal.gb()
        put(outputs, "gb", gb.polys, gb.truncated)
        for s in ("x0^4", "x0*x1*x2*x3 + x4^2*x5*x6", "x1^3*x2 - 3*x3^2*x5^2 + x6^4", "x0^2*x1*x2*x3*x4"):
            put(outputs, "nf", gb.normal_form(parse_poly(s, REG_X, ideal.dom)).terms)
        bt = free_resolution(ideal, degree_cap=9)
    put(outputs, "betti", sorted(bt.entries.items()), bt.complete)
    for run in runs:
        syzygies = [run.kern.export(R, D) for R, D in run.syzygies]
        put(work, "run", run.elems, run.rows, syzygies, run.pairs_processed, run.n_inputs)
    return outputs.hexdigest(), work.hexdigest()


def test_engine_outputs_are_unchanged(monkeypatch):
    # captured at the commit before ModuleGB became the only engine, from
    # the two-engine code (buchberger for reduced bases and level 1)
    points = _surface_points(7, 2)
    got = [_engine_digests(monkeypatch, S.ideal(dom))[0] for dom in (QQ, fp(31)) for S in points]
    assert got == [
        "803c3adfd3e5826d298d9709f31fa87c795519039077cf4e21750fcad8cb85fd",
        "32f28ee6be897f552dde1f51a6dcbcf4656b37b85ce1b80009bb7487550e6410",
        "b383ab8185f59753fcb1df8953413418b4dfcdfd9d30d00a0183c91cb5600ea8",
        "c802dfbb8be9244afcbf89e0036b25a734f381dc25a211953b3db0ab166b2908",
    ]


def test_engine_runs_are_unchanged(monkeypatch):
    # every basis vector, row and syzygy of every run, pinned when level 1
    # and the reduced bases moved onto ModuleGB
    points = _surface_points(7, 2)
    got = [_engine_digests(monkeypatch, S.ideal(dom))[1] for dom in (QQ, fp(31)) for S in points]
    assert got == [
        "f4bed6a560840a825cff8d95f79f7016a59f8212edaab031d4bcb9d9d412132c",
        "2332500f6d1b581a1f816fd04345752801beb737b7aaf1e8e72c261c67754ee8",
        "dd337ba6368c48a0975f3a05c7760cf79f23fc66e5d987372b7939793c888215",
        "cf8490b79463ee0925923d01f392e179d1fad49ad717f9935f16c561ba3598af",
    ]
