from fractions import Fraction
from operator import add
import random
import sys

import pytest

from heis7 import checks, groebner, resolution
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
from oracles import betti_koszul, induced_key_recursive, leading_terms


def u(s):
    return parse_poly(s, REG_U)


@pytest.fixture(autouse=True)
def fresh_initial_tops():
    # the in(I) tables free_resolution keeps per process: each test starts
    # without them, so the tests that record the in(I) resolution see it run
    resolution._initial_tops.cache_clear()


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
    order, gb, capped = next(resolution._levels(GradedIdeal(REG_U, QQ, gens), 8))
    # the generators are monic and reduced, so level 1 keeps them as they
    # are, in ascending leading terms
    kept = [Poly(REG_U, QQ, {order.unpack(k)[1]: c for k, c in v.items()}) for v in gb.kept]
    assert sorted(map(str, kept)) == sorted(map(str, gens))
    assert not capped and not gb.pairs and gb.syzygies
    for R, D in gb.syzygies:
        acc = Poly.zero(REG_U, QQ)
        for (gi, e), c in _row_terms(order, gb.kern.export(R, D)):
            acc = acc + Poly.monomial(REG_U, e, c) * kept[gi]
        assert acc.is_zero()


def test_single_form_has_no_syzygies():
    _, gb, capped = next(resolution._levels(GradedIdeal(REG_U, QQ, [u("u0^2 + u1*u2")]), 8))
    assert gb.n_inputs == 1 and not capped and gb.syzygies == []


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
        ideal = GradedIdeal(REG_ABCD, dom, [parse_poly(s, REG_ABCD, dom) for s in COUNTER_EXAMPLE])
    else:
        dom = fp(31) if case == "surface_F31" else QQ
        ideal = surface_ideal((1, 1, 1, 1)).ideal(dom)
    koszul = []
    record = resolution.ModuleGB._koszul

    def spy(self, i, t):
        record(self, i, t)
        koszul.append(self)

    monkeypatch.setattr(resolution.ModuleGB, "_koszul", spy)
    runs = []
    for order, gb, _ in resolution._levels(ideal, 9):
        kept = gb.kept
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
    with pytest.raises(NotHilbertBurch, match="syzygy shape is not two linear columns"):
        hilbert_burch([u("u0*u1"), u("u0*u2"), u("u0*u3")])
    # a repeated quadric, and three distinct quadrics with one in the span
    # of the other two
    for gens in (["u0^2", "u0^2", "u1^2"], ["u0^2", "u1^2", "u0^2 + u1^2"]):
        with pytest.raises(NotHilbertBurch, match="quadrics are linearly dependent"):
            hilbert_burch([u(g) for g in gens])
    with pytest.raises(NotHilbertBurch, match="need exactly three quadrics"):
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
    gb1 = GradedIdeal(REG_U, QQ, IO.gens).gb()
    gb2 = I.gb()
    assert gb1 == gb2


def test_minimal_generator_trim():
    gens = [u("u0^2"), u("u0^2 + u1*u2"), u("u0^3"), u("u1*u2")]
    kept = minimal_ideal_gens(gens)
    assert len(kept) == 2
    assert all(g.degree() == 2 for g in kept)


def test_hilbert_burch_and_minimal_gens_work_over_the_generators_field():
    # psi(1,1,1,1)'s quadrics mod 5: their residues read as rationals have
    # quadratic syzygies, over F5 they have the two linear ones
    from heis7.moduli import psi
    from heis7.poly import coefficient_rows

    F5 = fp(5)
    qs = [q.map_coeffs(F5.coerce, F5) for q in psi((1, 1, 1, 1)).quadrics()]
    mat = hilbert_burch(qs)
    assert (mat.nrows, mat.ncols) == (3, 2)
    assert all(mat[i, j].dom == F5 for i in range(3) for j in range(2))
    monos = monomial_basis(REG_U, 2)
    minors = coefficient_rows(hb_minors(mat), monos)
    assert rank(minors, F5) == 3 == rank(minors + coefficient_rows(qs, monos), F5)
    kept = minimal_ideal_gens(qs)
    assert len(kept) == 3 and all(g.dom == F5 for g in kept)
    assert all(type(c) is int and 0 <= c < 5 for g in kept for c in g.terms.values())


def test_ideal_constructors_refuse_forms_of_another_ring():
    F5 = fp(5)
    in_u = r"in \('u0', 'u1', 'u2', 'u3'\)"
    q = u("u0^2 + 1/2*u1^2")
    f = parse_poly("u0^2 + u1*u2", REG_U, F5)
    with pytest.raises(ValueError, match=rf"generator over F5 {in_u} for generators over Q {in_u}"):
        minimal_ideal_gens([q, f])
    with pytest.raises(ValueError, match=rf"generator over Q {in_u} for generators over F5 {in_u}"):
        minimal_ideal_gens([f, q])
    # a zero form of another ring is refused too, not dropped
    with pytest.raises(ValueError, match=rf"generator over F5 {in_u} for generators over Q"):
        minimal_ideal_gens([q, Poly.zero(REG_U, F5)])
    with pytest.raises(ValueError, match=rf"ideal over F5 {in_u} for intersection with an ideal over Q {in_u}"):
        intersect(GradedIdeal(REG_U, QQ, [q]), GradedIdeal(REG_U, F5, [f]))
    with pytest.raises(ValueError, match=rf"generator over F5 {in_u} for an ideal over Q {in_u}"):
        hilbert_burch([u("u1*u2"), f, u("u2*u3")])


def test_kept_forms_leave_the_engine_only_where_read(monkeypatch):
    # ModuleGB keeps its kept forms as integers: a resolution reads only
    # their keys, so neither add_input nor anything else exports a value
    callers = []
    export = groebner.Coeffs.export

    def spy(self, F, D):
        callers.append(sys._getframe(1).f_code.co_name)
        return export(self, F, D)

    ideal = surface_ideal((1, 1, 1, 1)).ideal(QQ)
    monkeypatch.setattr(groebner.Coeffs, "export", spy)
    assert free_resolution(ideal, degree_cap=9).entries == SURFACE_BETTI
    assert callers == []
    assert len(ideal.run.kept) == 21 and len(callers) == 21


def test_hilbert_burch_and_minimal_gens_are_unchanged():
    # sha256 of the reprs (insertion order included) of what the two
    # exporters of kept forms returned before the forms were kept as integers
    import hashlib
    from heis7.moduli import psi

    got = []
    for t in [(1, 1, 1, 1), (Fraction(2, 3), Fraction(-5, 7), Fraction(3), Fraction(1, 4))]:
        mat = hilbert_burch(psi(t).quadrics())
        got.append([[list(mat[i, j].terms.items()) for j in range(2)] for i in range(3)])
    forms = ("u0^2 + 1/3*u1*u2", "2*u0^2 - 1/5*u1^2", "u0^3 + u1^3", "u0*u1*u2 + 7/2*u3^3", "u1^2*u3 - 4*u0*u2*u3")
    for dom in (QQ, fp(31)):
        gens = [parse_poly(s, REG_U, dom) for s in forms]
        got.append([list(g.terms.items()) for g in minimal_ideal_gens(gens)])
    assert [hashlib.sha256(repr(v).encode()).hexdigest() for v in got] == [
        "e796ca9576e90b7707671d05fd07b67d7a12cbb00c224a781883c356ec790826",
        "d8cc448db4ba5086d19bedfb10f983cd6853fe169da6f3f1cc309a43705defe0",
        "6601a81354d06dc9597b43380850bc3dbc7c4827dbe818bf063b59b486b89278",
        "ecdd069708c2154a377474118de46d9cec844b59fa8d0cceaad3d69056693d24",
    ]


def test_field_agreement_on_fixture():
    J = j_ideal()
    F31 = fp(31)
    J31 = GradedIdeal(REG_U, F31, [g.map_coeffs(F31.coerce, F31) for g in J.gens])
    assert free_resolution(J).entries == free_resolution(J31).entries


def test_truncation_flag(monkeypatch):
    # the cap leaves the table of in(J) incomplete too, so J falls back to
    # the uniform cap and is flagged as it was before the bound
    J = j_ideal()
    bt, calls = _resolution_calls(monkeypatch, J, degree_cap=3)
    assert len(calls) == 2 and not free_resolution(calls[1][0], degree_cap=3).complete
    assert not bt.complete and bt.entries == {(0, 0): 1, (1, 2): 7, (2, 3): 8}
    assert bt.note == (
        "degree cap left pairs unprocessed after step 1; degree cap dropped candidates at step 2; "
        "degree cap left pairs unprocessed after step 2"
    )


def test_truncation_flag_after_hilbert(monkeypatch):
    # J.hilbert() leaves a complete run that handled degree 4: it is level
    # 1 at degree_cap=4 and too high for degree_cap=3, and either way the
    # table and its note are those of a fresh J
    for kwargs, shared in [({"degree_cap": 3}, False), ({"degree_cap": 4}, True)]:
        want = free_resolution(j_ideal(), **kwargs)
        J = j_ideal()
        J.hilbert()
        assert J.run.top == 4
        bt, calls = _resolution_calls(monkeypatch, J, **kwargs)
        # the outer call builds its own rank-1 run only when it cannot share
        assert any(len(gb.order.base) == 1 for gb in calls[0][1]) != shared
        assert (bt.entries, bt.note, bt.complete) == (want.entries, want.note, False)


REG_ABCD = VarRegistry(["a", "b", "c", "d"])


def _random_ideal(rng, dom):
    gens = []
    for _ in range(rng.randint(2, 4)):
        monos = monomial_basis(REG_ABCD, rng.randint(2, 3))
        picked = rng.sample(monos, rng.randint(1, 3))
        terms = {e: dom.coerce(rng.randint(1, 30)) for e in picked}
        gens.append(Poly(REG_ABCD, dom, terms))
    return gens


@pytest.mark.parametrize("dom", [QQ, fp(31)], ids=["QQ", "F31"])
def test_kept_level_one_changes_no_table(dom):
    # at every cap, a resolution that takes the run hilbert() kept gives the
    # table, note and flag of one that runs its own level 1; and the basis
    # gb() reduces from a resolution's run is that of a fresh ideal
    rng = random.Random(3)
    capped = complete = 0
    for gens in (_random_ideal(rng, dom) for _ in range(20)):
        first = GradedIdeal(REG_ABCD, dom, gens)
        want = first.gb()
        for cap in range(first.run.top + 2):
            fresh, after = GradedIdeal(REG_ABCD, dom, gens), GradedIdeal(REG_ABCD, dom, gens)
            after.hilbert()
            a, b = free_resolution(fresh, degree_cap=cap), free_resolution(after, degree_cap=cap)
            assert (a.entries, a.note, a.complete) == (b.entries, b.note, b.complete), (cap, gens)
            assert fresh.gb() == want
            capped += cap < after.run.top
            complete += a.complete
    # the caps below the kept run's top take a fresh capped run
    assert capped and complete


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
    cancelled = 0
    for gens in cases:
        I = GradedIdeal(REG_ABCD, F31, gens)
        bt = free_resolution(I, degree_cap=cap)
        oracle = betti_koszul(I.gens, REG_ABCD, 31, positions)
        got = {k: b for k, b in bt.entries.items() if k != (0, 0) and k[1] <= cap}
        assert got == {k: b for k, b in oracle.items() if b}, [str(g) for g in gens]
        if bt.complete:
            assert bt.alternating_sums() == I.hilbert().numerator
        # beta_ij(I) <= beta_ij(in I), the bound free_resolution uses
        initial = GradedIdeal(REG_ABCD, F31, [Poly.monomial(REG_ABCD, e, 1, F31) for e in leading_terms(I)])
        upper = free_resolution(initial, degree_cap=cap)
        assert all(b <= upper.beta(*k) for k, b in got.items())
        cancelled += upper.entries != bt.entries
    # some cases are resolved under a bound that is not their own table
    assert cancelled


def test_koszul_oracle_by_weight_blocks_agrees_with_whole_maps():
    ideal = surface_ideal((1, 1, 1, 1)).ideal(fp(31))
    positions = [(1, 3), (2, 4), (2, 5), (1, 4)]
    split = betti_koszul(ideal.gens, ideal.reg, 31, positions)
    assert split == betti_koszul(ideal.gens, ideal.reg, 31, positions, by_weight=False)
    assert split == {(1, 3): 21, (2, 4): 49, (2, 5): 0, (1, 4): 0}


def _resolution_calls(monkeypatch, ideal, **kwargs):
    """Resolve ideal with free_resolution's kwargs, recording every call.

    Returns the table and one (ideal, runs, keys) per call in call order:
    the outer call first, then the in(I) call its bound makes.  runs are the
    call's tracked ModuleGB runs (one per level from 1 on) and keys the
    (lts, prev, key) of its induced_key_from calls, in call order.
    """
    calls, active = [], []
    init, resolve = resolution.ModuleGB.__init__, resolution.free_resolution

    def recording_resolution(ideal, *args, **kwargs):
        active.append((ideal, [], []))
        calls.append(active[-1])
        try:
            return resolve(ideal, *args, **kwargs)
        finally:
            active.pop()

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.track:
            active[-1][1].append(self)

    def recording_key(lts, prev=None):
        key = induced_key_from(lts, prev)
        active[-1][2].append((lts, prev, key))
        return key

    with monkeypatch.context() as mp:
        mp.setattr(resolution, "free_resolution", recording_resolution)
        mp.setattr(resolution.ModuleGB, "__init__", recording_init)
        # level 1's order comes from GradedIdeal.level_one, in groebner
        for module in (resolution, groebner):
            mp.setattr(module, "induced_key_from", recording_key)
        bt = resolution.free_resolution(ideal, **kwargs)
    return bt, calls


def _surface_resolution_runs(monkeypatch, dom=None):
    """Resolve the surface ideal at t = (1,1,1,1) through degree 9, over F31
    unless dom is given.

    Returns the ideal and the main and in(I) calls of _resolution_calls.
    """
    ideal = surface_ideal((1, 1, 1, 1)).ideal(dom or fp(31))
    bt, calls = _resolution_calls(monkeypatch, ideal, degree_cap=9)
    assert bt.complete and bt.entries[(2, 4)] == 49
    assert len(calls) == 2 and calls[0][0] is ideal
    return ideal, calls[0], calls[1]


# the published table of the surface at t = (1,1,1,1), and that of its
# initial ideal, with the four entries where S-pairs cancel in the Groebner
# degeneration: beta_25, beta_35, beta_36 and beta_46
SURFACE_BETTI = {(0, 0): 1, (1, 3): 21, (2, 4): 49, (3, 5): 42, (4, 6): 14, (4, 7): 1, (5, 7): 2}
INITIAL_BETTI = {**SURFACE_BETTI, (2, 5): 1, (3, 5): 43, (3, 6): 2, (4, 6): 16}


def test_surface_resolution_does_the_same_work(monkeypatch):
    _, (_, runs, _), (_, initial, _) = _surface_resolution_runs(monkeypatch)
    assert [len(gb.elems) for gb in runs] == [21, 65, 45, 15, 2]
    assert [sum(len(R) for R, _ in gb.syzygies) for gb in runs] == [372, 835, 252, 15, 0]
    assert [len(gb.syzygies) for gb in runs] == [51, 50, 16, 2, 0]
    assert [gb.pairs_processed for gb in runs] == [51, 66, 19, 2, 0]
    assert [gb.n_inputs for gb in runs] == [21, 49, 42, 15, 2]
    # the in(I) resolution that bounds levels 2 on
    assert [len(gb.elems) for gb in initial] == [21, 50, 45, 17, 2]
    assert [len(gb.syzygies) for gb in initial] == [53, 45, 17, 2, 0]
    assert [gb.pairs_processed for gb in initial] == [51, 45, 17, 2, 0]
    assert [gb.n_inputs for gb in initial] == [21, 50, 45, 17, 2]


@pytest.mark.parametrize("dom", [fp(31), QQ], ids=["F31", "QQ"])
def test_initial_ideal_table_bounds_the_surface(monkeypatch, dom):
    ideal, _, (initial, _, _) = _surface_resolution_runs(monkeypatch, dom)
    # the bound resolves the monomial ideal of the reduced basis' leading terms
    lts = sorted(leading_terms(ideal))
    assert sorted(e for g in initial.gens for e in g.terms) == lts
    assert all(len(g.terms) == 1 for g in initial.gens)
    bt = free_resolution(initial, degree_cap=9)
    assert bt.complete and bt.entries == INITIAL_BETTI
    assert all(b <= bt.beta(*k) for k, b in SURFACE_BETTI.items())


@pytest.mark.parametrize("level, lost", [(2, None), (3, None), (4, (4, 7)), (5, (5, 7))])
def test_a_bound_one_degree_too_low_loses_betti_numbers(monkeypatch, level, lost):
    # tops[level] bounds the S-pairs of level - 1 and the candidates of
    # level.  One degree less at levels 4 and 5 (the S-pairs of levels 3
    # and 4) drops that level's degree-7 Betti numbers; at levels 2 and 3
    # it only skips the degrees where in(I) has its cancelling beta_25 and
    # beta_36, so the table stays right
    real = resolution._levels

    def lowered(ideal, degree_cap, bound=None):
        def low(gb):
            tops = bound(gb)
            tops[level] -= 1
            return tops

        return real(ideal, degree_cap, bound and low)

    monkeypatch.setattr(resolution, "_levels", lowered)
    bt = free_resolution(surface_ideal((1, 1, 1, 1)).ideal(fp(31)), degree_cap=9)
    assert bt.complete and bt.entries == {k: b for k, b in SURFACE_BETTI.items() if k != lost}


def _recorded_runs(monkeypatch):
    """Record every rank-1 ModuleGB built and the run each buchberger call
    reduces, in two lists."""
    rank_one, runs = [], []
    init = resolution.ModuleGB.__init__
    real = groebner.buchberger

    def recording_init(self, dom, order, track=False):
        init(self, dom, order, track)
        if len(order.base) == 1:
            rank_one.append(self)

    def recording(run):
        runs.append(run)
        return real(run)

    monkeypatch.setattr(resolution.ModuleGB, "__init__", recording_init)
    monkeypatch.setattr(groebner, "buchberger", recording)
    return rank_one, runs


def test_a_broken_invariant_cubic_fails_the_surface_pipeline_in_bounded_work(monkeypatch):
    # the second invariant cubic x0*x1*x6 -> x0*x1*x5: the pipeline reads its
    # quotient dimensions off runs completed through degree 4 only, so it
    # fails at once where a basis over Q with no cap did not come out
    from heis7 import moduli

    d = moduli.d_vector()
    broken = [d[0], parse_poly("x0*x1*x5", REG_X), *d[2:]]
    monkeypatch.setattr(moduli, "d_vector", lambda: broken)
    rank_one, runs = _recorded_runs(monkeypatch)
    result = checks.check_surface_pipeline(checks.Context(checks.RunConfig()))
    assert result.status == "fail"
    assert "t=(1, 1, 1, 1): quotient dimensions [7, 28, 63, 77]" in result.details
    assert len(rank_one) == 20 and runs == []
    assert sum(gb.pairs_processed for gb in rank_one) <= 920  # 46 S-pairs per point


def test_hilbert_and_resolution_share_one_level_one_run(monkeypatch):
    # the in(I) table of the point is kept from a first resolution, so the
    # second one builds no in(I) run either
    assert free_resolution(surface_ideal((1, 1, 1, 1)).ideal(fp(31)), degree_cap=9).entries == SURFACE_BETTI
    ideal = surface_ideal((1, 1, 1, 1)).ideal(fp(31))
    rank_one, _ = _recorded_runs(monkeypatch)
    assert ideal.hilbert().numerator == {0: 1, 3: -21, 4: 49, 5: -42, 6: 14, 7: -1}
    assert free_resolution(ideal, degree_cap=9).entries == SURFACE_BETTI
    assert rank_one == [ideal.run] and ideal.run.track


def test_basis_after_a_resolution_reduces_its_level_one_run(monkeypatch):
    # free_resolution leaves its complete level 1 on the ideal, and gb()
    # reduces that run in buchberger instead of running level 1 again
    want = j_ideal().gb()
    rank_one, runs = _recorded_runs(monkeypatch)
    J = j_ideal()
    bt = free_resolution(J, degree_cap=8)
    level_one = J.run
    assert level_one is rank_one[0] and len(rank_one) == 2  # J's and in(J)'s level 1
    gb = J.gb()
    assert runs == [level_one] and len(rank_one) == 2 and J.run is level_one
    assert gb == want
    assert J.hilbert().numerator == bt.alternating_sums()


def test_apolar_ideal_check_builds_two_level_one_runs(monkeypatch):
    # the syzygy.apolar_ideal check resolves J, then reads its Hilbert
    # series: two rank-1 runs (J's level 1 and in(J)'s), one buchberger call
    rank_one, runs = _recorded_runs(monkeypatch)
    assert checks.check_j_resolution(checks.Context(checks.RunConfig())).status == "pass"
    assert len(rank_one) == 2 and runs == [rank_one[0]]


def _recorded_tops(monkeypatch, change=None):
    """Wrap _levels so that every bound's tops are recorded (copied before
    change, if given, edits them in place) and returned with the list."""
    real, seen = resolution._levels, []

    def recording(ideal, degree_cap, bound=None):
        def spy(gb):
            tops = bound(gb)
            seen.append(dict(tops))
            if change:
                change(tops)
            return tops

        return real(ideal, degree_cap, bound and spy)

    monkeypatch.setattr(resolution, "_levels", recording)
    return seen


def test_initial_tops_hit_matches_a_fresh_resolution(monkeypatch):
    seen = _recorded_tops(monkeypatch)
    first = free_resolution(surface_ideal((1, 1, 1, 1)).ideal(fp(31)), degree_cap=9)
    assert resolution._initial_tops.cache_info().currsize == 1
    second, calls = _resolution_calls(monkeypatch, surface_ideal((1, 1, 1, 1)).ideal(fp(31)), degree_cap=9)
    assert len(calls) == 1 and second.entries == first.entries == SURFACE_BETTI
    fresh = {}
    for i, j in INITIAL_BETTI:
        fresh[i] = max(fresh.get(i, j), j)
    assert seen == [fresh, fresh]


def test_a_caller_that_edits_its_tops_leaves_the_kept_table(monkeypatch):
    def lower(tops):
        tops[4] -= 1

    _recorded_tops(monkeypatch, lower)
    bt = free_resolution(surface_ideal((1, 1, 1, 1)).ideal(fp(31)), degree_cap=9)
    assert bt.entries == {k: b for k, b in SURFACE_BETTI.items() if k != (4, 7)}
    monkeypatch.undo()
    bt, calls = _resolution_calls(monkeypatch, surface_ideal((1, 1, 1, 1)).ideal(fp(31)), degree_cap=9)
    assert len(calls) == 1 and bt.complete and bt.entries == SURFACE_BETTI


def test_initial_tops_are_kept_per_characteristic(monkeypatch):
    runs = {}
    for dom in (fp(31), QQ):
        ideal = surface_ideal((1, 1, 1, 1)).ideal(dom)
        bt, calls = _resolution_calls(monkeypatch, ideal, degree_cap=9)
        assert len(calls) == 2 and bt.entries == SURFACE_BETTI
        runs[dom.name] = calls[0][1][0]
    # the same leading terms, one table each
    assert sorted(runs["F31"].lts) == sorted(runs["Q"].lts)
    info = resolution._initial_tops.cache_info()
    assert (info.hits, info.currsize) == (0, 2)


def test_flat_induced_key_matches_recursive_oracle(monkeypatch):
    ideal, (_, runs, keys), _ = _surface_resolution_runs(monkeypatch)
    # level 1 runs in the ring as a rank-1 module; run k packs its basis
    # terms in order k, and its syzygy rows become the next level's vectors
    # in order k + 1; the bound ends the loop at the last level of in(I),
    # which has no syzygies and takes no next order
    ring = keys[0][1]
    assert keys[0][0] == [ring.one] and runs[0].order is keys[0][2]
    assert len(keys) == len(runs) and isinstance(ring, Monomials)
    assert not runs[-1].syzygies
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

    # level 1's kept forms have the grevlex-leading terms of the minimal
    # generators (one echelon basis of the cubics)
    gens = minimal_ideal_gens(ideal.gens)
    assert sorted(keys[1][0]) == sorted(ring.pack(max(g.terms, key=grevlex_key)) for g in gens)
    checked = 0
    for k, gb in enumerate(runs):
        assert gb.order is keys[k][2]
        checked += same_order(gb.order, oracles[k], {t for v in gb.elems for t in v})
        if k + 1 < len(keys):
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
        if not S.degenerate and not S.bad_prime(31):
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

    def recording_feed(gb, *args, **kwargs):
        # the engine keeps its kept forms as integers; hash their exported
        # values, which are what the pinned digests were taken from
        capped = real_feed(gb, *args, **kwargs)
        put(work, "kept", gb.kept, capped)
        return capped

    real_feed = groebner._feed
    with monkeypatch.context() as mp:
        mp.setattr(resolution.ModuleGB, "__init__", recording_init)
        for module in (resolution, groebner):
            mp.setattr(module, "_feed", recording_feed)
        # False stands where the pinned digests read the truncated flag,
        # which a basis of a complete run always had as False
        put(outputs, "gb", ideal.gb(), False)
        for s in ("x0^4", "x0*x1*x2*x3 + x4^2*x5*x6", "x1^3*x2 - 3*x3^2*x5^2 + x6^4", "x0^2*x1*x2*x3*x4"):
            put(outputs, "nf", ideal.normal_form(parse_poly(s, REG_X, ideal.dom)).terms)
        bt = free_resolution(ideal, degree_cap=9)
    put(outputs, "betti", sorted(bt.entries.items()), bt.complete)
    for run in runs:
        syzygies = [run.kern.export(R, D) for R, D in run.syzygies]
        rows = [None if RG is None else run.kern.export(RG, L) for _, RG, L in run.basis]
        put(work, "run", run.elems, rows, syzygies, run.pairs_processed, run.n_inputs)
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
    # every basis vector, row and syzygy of every run, the in(I) runs of
    # the bound included, and the kept forms of every level; pinned when
    # level 1 came to be fed only through _level, so that gb()'s run records
    # its kept forms like every other level (the run contents themselves
    # were unchanged)
    points = _surface_points(7, 2)
    got = [_engine_digests(monkeypatch, S.ideal(dom))[1] for dom in (QQ, fp(31)) for S in points]
    assert got == [
        "458298974eb5e7c640d6c20dff4a3ef91ab9023a1c76b442f3b56ff2097d2239",
        "2ffe2bffa4913f9e6362999c6ad7f739006e717548ccf5302a1378a0b5bab989",
        "d55068d65f3128ca1c8181c49ff90840d34ec7b267eb2e1eb4c28e8efaa5bfc6",
        "fe4181930de40e1e3feba1b02cee4660f1046785c5542931e97eb6f4001b898c",
    ]
