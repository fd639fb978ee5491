import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from heis7.field import QQ, fp
from heis7.groebner import (
    Coeffs,
    GradedIdeal,
    Monomials,
    buchberger,
    hilbert_data,
    ideal_hf_oracle,
    induced_key_from,
    normal_form,
)
from heis7.moduli import f_basis, j_ideal
from heis7.poly import Poly, REG_U, REG_X, VarRegistry, grevlex_key, monomial_basis, parse_poly, render_poly
from oracles import CYC, fraction_normal_form, gb_polys


def u(s):
    return parse_poly(s, REG_U)


def test_monomial_ideal_is_its_own_basis():
    I = GradedIdeal(REG_U, QQ, [u("u1*u2"), u("u2*u3"), u("u3*u1")])
    gb = I.gb()
    assert sorted(render_poly(p) for p in gb_polys(gb)) == ["u1*u2", "u1*u3", "u2*u3"]


def brute_standard_monomials(lt_gens, reg, d):
    """Count degree-d monomials not divisible by any generator (oracle)."""
    count = 0
    for e in monomial_basis(reg, d):
        if not any(all(x >= y for x, y in zip(e, g)) for g in lt_gens):
            count += 1
    return count


def test_hilbert_function_against_enumeration():
    I = GradedIdeal(REG_U, QQ, [u("u1*u2"), u("u2*u3"), u("u3*u1")])
    hd = I.hilbert()
    lt = I.gb().leading_terms()
    for d in range(7):
        assert hd.hf(d) == brute_standard_monomials(lt, REG_U, d)
    assert hd.hf_range(1, 5) == [4, 7, 10, 13, 16]
    assert hd.dim == 2 and hd.degree == 3


def test_random_monomial_ideals_hilbert():
    rng = random.Random(77)
    reg = VarRegistry(["a", "b", "c", "d"])
    for _ in range(15):
        gens = []
        for _ in range(rng.randint(1, 5)):
            e = [0, 0, 0, 0]
            for _ in range(rng.randint(1, 4)):
                e[rng.randrange(4)] += 1
            gens.append(Poly.monomial(reg, e, 1))
        I = GradedIdeal(reg, QQ, gens)
        hd = I.hilbert()
        lt = I.gb().leading_terms()
        for d in range(6):
            assert hd.hf(d) == brute_standard_monomials(lt, reg, d)


def test_hilbert_data_is_kept_per_leading_term_set():
    # permuted and repeated leading terms share one entry, every call gets
    # its own dicts, and nvars is part of the key
    from heis7.groebner import _hilbert_series

    lts = [(5, 0, 0, 0), (3, 2, 0, 0), (0, 4, 1, 0), (0, 0, 6, 0), (1, 0, 0, 7)]
    first = hilbert_data(lts, 4)
    hits = _hilbert_series.cache_info().hits
    again = hilbert_data(lts[::-1] + lts[:2], 4)
    assert again == first and _hilbert_series.cache_info().hits == hits + 1
    first.numerator[0] = 99
    first.reduced.clear()
    assert hilbert_data(lts, 4) == again and again.numerator[0] == 1
    misses = _hilbert_series.cache_info().misses
    wider = hilbert_data(lts, 5)
    assert _hilbert_series.cache_info().misses == misses + 1
    assert wider.numerator == again.numerator and wider.dim == again.dim + 1


def test_apolar_ideal_membership():
    J = j_ideal()
    gb = J.gb()
    assert gb.contains(u("u0^2"))
    assert gb.contains(u("u0^3"))  # every cubic is a member: hf(3) = 0
    assert gb.contains(u("u0^4"))
    assert not gb.contains(u("u2^2"))
    assert not gb.contains(u("u0*u1"))
    hd = J.hilbert()
    assert hd.hf_range(0, 4) == [1, 4, 3, 0, 0]
    assert hd.dim == 0 and hd.degree == 8


def test_hf_oracle_matches_groebner():
    J = j_ideal()
    hd = J.hilbert()
    for d in range(5):
        assert ideal_hf_oracle(J.gens, d) == hd.hf(d)


@pytest.mark.parametrize("t", ["-5/4,-13/11,12/5,12/5", "1,-6,-3/2,7/5"])
def test_surface_hilbert_function_over_q_matches_the_dense_oracle(t):
    # two seed-4 sample points, where the cubics are dependent mod 3: the
    # dense F3 ranks of their reductions read the quotient dimensions
    # [7, 28, 70, 140], so SurfaceIdeal.ideal refuses F3
    from heis7.moduli import surface_ideal

    S = surface_ideal(Fraction(x) for x in t.split(","))
    I = S.ideal()
    assert I.hilbert().hf_range(1, 4) == [ideal_hf_oracle(I.gens, d) for d in range(1, 5)] == [7, 28, 63, 112]
    F3 = fp(3)
    reduced = [p.map_coeffs(F3.coerce, F3) for p in S.basis]
    assert [ideal_hf_oracle(reduced, d) for d in range(1, 5)] == [7, 28, 70, 140]
    with pytest.raises(ValueError, match="as the cubics are dependent mod 3$"):
        S.ideal(F3)


def test_hf_oracle_of_the_zero_ideal(monkeypatch):
    # zero generators leave all of S_2 (28 quadrics in 7 variables) and add
    # no rows to rank; an empty list has no registry to count monomials in
    from heis7 import linalg

    ranked = []
    for name in ("rank", "np_rank"):
        fn = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda rows, dom, fn=fn: ranked.append(len(rows)) or fn(rows, dom))
    for dom in (QQ, fp(31)):
        assert ideal_hf_oracle([Poly.zero(REG_X, dom)] * 3, 2) == 28
    assert sum(ranked) == 0
    assert ideal_hf_oracle([Poly.zero(REG_X, QQ), Poly.var(REG_X, "x0")], 2) == 21
    assert ranked == [7]
    with pytest.raises(ValueError, match="need generators"):
        ideal_hf_oracle([], 2)


def test_normal_form_is_zero_exactly_for_members():
    J = j_ideal()
    gb = J.gb()
    f, _ = f_basis()
    rng = random.Random(5)
    # explicit membership certificates: random combinations of generators
    for _ in range(10):
        comb = Poly.zero(REG_U, QQ)
        for i in range(7):
            e = [0] * 4
            e[rng.randrange(4)] += 1
            comb = comb + Poly.monomial(REG_U, e, Fraction(rng.randint(-3, 3))) * f[i]
        assert gb.normal_form(comb).is_zero()


def test_deterministic_output():
    gens = [u("u1^2+u0*u3"), u("u3^2+u0*u2"), u("u2^2+u0*u1")]
    a1 = GradedIdeal(REG_U, QQ, gens).gb().polys
    a2 = GradedIdeal(REG_U, QQ, gens).gb().polys
    assert [list(p.items()) for p in a1] == [list(p.items()) for p in a2]


def test_surface_cubics_form_groebner_basis():
    from heis7.moduli import surface_ideal

    F31 = fp(31)
    S = surface_ideal((1, 1, 1, 1))
    I = S.ideal(F31)
    gb = I.gb()
    assert len(gb.polys) == 21
    hd = I.hilbert()
    assert hd.hf_range(0, 7) == [1, 7, 28, 63, 112, 175, 252, 343]
    assert hd.dim == 3 and hd.degree == 14
    assert hd.numerator == {0: 1, 3: -21, 4: 49, 5: -42, 6: 14, 7: -1}


def test_inhomogeneous_rejected():
    with pytest.raises(ValueError):
        GradedIdeal(REG_U, QQ, [u("u0^2 + u1")])


def test_generators_from_another_ring_are_refused():
    from heis7.poly import REG_Y

    # J lives in u0..u3 over Q; REG_Y has three variables y1..y3
    in_u = r"in \('u0', 'u1', 'u2', 'u3'\)"
    with pytest.raises(ValueError, match=rf"generator over Q {in_u} for an ideal over Q in \('y1', 'y2', 'y3'\)"):
        GradedIdeal(REG_Y, QQ, j_ideal().gens)
    F5 = fp(5)
    g5 = [g.map_coeffs(F5.coerce, F5) for g in j_ideal().gens]
    with pytest.raises(ValueError, match=rf"generator over F5 {in_u} for an ideal over Q {in_u}"):
        GradedIdeal(REG_U, QQ, g5)
    with pytest.raises(ValueError, match="generator over Q .* for an ideal over F5"):
        GradedIdeal(REG_U, F5, [u("u0^2"), *g5])
    # a zero generator of another field is refused too, not dropped
    with pytest.raises(ValueError, match="generator over F31"):
        GradedIdeal(REG_U, QQ, [Poly.zero(REG_U, fp(31))])
    assert GradedIdeal(REG_U, F5, g5).hilbert().hf_range(0, 3) == j_ideal().hilbert().hf_range(0, 3)


@pytest.mark.parametrize("hilbert_first", [False, True], ids=["resolution_first", "hilbert_first"])
def test_zero_ideal(hilbert_first):
    from heis7.resolution import free_resolution

    I = GradedIdeal(REG_U, QQ, [Poly.zero(REG_U, QQ)])
    assert I.gens == [] and I == GradedIdeal(REG_U, QQ, [])
    if hilbert_first:
        assert I.hilbert().numerator == {0: 1} and I.gb().polys == []
    bt = free_resolution(I)
    assert bt.complete and bt.entries == {(0, 0): 1}
    assert I.hilbert().numerator == {0: 1}


def test_cached_bases_take_no_part_in_equality():
    gens = [u("u1*u2"), u("u2*u3"), u("u1^2 + u0*u3")]
    I, fresh = GradedIdeal(REG_U, QQ, gens), GradedIdeal(REG_U, QQ, gens)
    I.hilbert()
    assert I.run is not None and I == fresh
    assert I != GradedIdeal(REG_U, QQ, gens[:2])


def test_sympy_grevlex_matches_grevlex_key():
    """sympy's grevlex on exponent tuples in registry order is grevlex_key."""
    from sympy.polys.orderings import grevlex

    for d in (2, 3):
        monos = monomial_basis(REG_U, d)
        assert sorted(monos, key=grevlex) == sorted(monos, key=grevlex_key)


def _sympy_basis(gens, dom):
    """Monic reduced grevlex basis from sympy, as sorted {exponent: coeff} dicts."""
    import sympy

    xs = sympy.symbols(REG_U.names)
    exprs = []
    for g in gens:
        expr = 0
        for e, c in g.terms.items():
            c = sympy.Rational(c.numerator, c.denominator) if dom is QQ else c
            expr += c * sympy.prod(x**k for x, k in zip(xs, e))
        exprs.append(expr)
    if dom is QQ:
        basis = sympy.groebner(exprs, *xs, order="grevlex", domain="QQ")
        polys = [{e: Fraction(int(c.p), int(c.q)) for e, c in p.terms()} for p in basis.polys]
    else:
        basis = sympy.groebner(exprs, *xs, order="grevlex", modulus=dom.p)
        polys = [{e: int(c) % dom.p for e, c in p.terms()} for p in basis.polys]
    # sympy's Poly.monic divides by the lex leading coefficient
    polys = [{e: dom.mul(c, dom.inv(g[max(g, key=grevlex_key)])) for e, c in g.items()} for g in polys]
    return sorted(polys, key=lambda g: grevlex_key(max(g, key=grevlex_key)))


def test_buchberger_against_sympy():
    rng = random.Random(11)
    for dom in (QQ, fp(31)):
        for _ in range(12):
            gens = []
            for _ in range(rng.randint(2, 4)):
                monos = monomial_basis(REG_U, rng.randint(2, 3))
                terms = {e: dom.coerce(rng.randint(-9, 9) or 1) for e in rng.sample(monos, rng.randint(2, 4))}
                gens.append(Poly(REG_U, dom, terms))
            got = [dict(p.terms) for p in gb_polys(GradedIdeal(REG_U, dom, gens).gb())]
            assert got == _sympy_basis(gens, dom), [str(g) for g in gens]
            assert got == sorted(got, key=lambda g: grevlex_key(max(g, key=grevlex_key)))


def test_engines_refuse_other_domains():
    from heis7.resolution import ModuleGB, induced_key_from

    ring = Monomials(REG_U.n)
    with pytest.raises(ValueError, match="Q or F_p"):
        GradedIdeal(REG_U, CYC, [Poly.monomial(REG_U, (1, 0, 0, 0), CYC.one, CYC)]).gb()
    with pytest.raises(ValueError, match="Q or F_p"):
        ModuleGB(CYC, induced_key_from([ring.one], ring))


@pytest.mark.parametrize("dom", [QQ, fp(31)], ids=["QQ", "F31"])
def test_degree_capped_auto_reduce_returns(dom):
    # u0^2 reduces u0^2*u1 + 2*u2^3 to 2*u2^3, which enters the run monic,
    # as the auto-reduce needs (a non-monic reducer made its reductions
    # cycle forever); the cap drops u2^4, so the run is not kept
    gens = [parse_poly(s, REG_U, dom) for s in ("u0^2*u1 + 2*u2^3", "u0^2", "u2^4")]
    ideal = GradedIdeal(REG_U, dom, gens)
    run, capped = ideal.level_one(3)
    assert (capped or run.pairs) and ideal.run is None
    ring = run.order.ring
    assert buchberger(run) == [ring.pack_poly({(2, 0, 0, 0): dom.one}), ring.pack_poly({(0, 0, 3, 0): dom.one})]


_COEFFS = st.builds(Fraction, st.integers(-(2**70), 2**70).filter(bool), st.integers(1, 10**12))


def _polys(top, size):
    return st.dictionaries(st.tuples(*[st.integers(0, top)] * 3), _COEFFS, min_size=1, max_size=size)


def _reducers(elems):
    """The rank-1 reducer table of nonzero kernel elements."""
    return {0: [(max(G), i) for i, (G, _, _) in enumerate(elems)]}


def _stepped(vec, other, shift, c, p=0):
    """vec - c * x^m * other term by term, in vec's order, mod p if p."""
    want = dict(vec)
    for t, v in other.items():
        x = want.get(t + shift, 0) - c * v
        want[t + shift] = x % p if p else x
        if not want[t + shift]:
            del want[t + shift]
    return want


# divisors of low degree against dividends of higher degree, so that a
# normal form takes many steps and its denominator passes CONTENT_BITS
@settings(max_examples=80, deadline=None)
@given(_polys(4, 10), st.lists(_polys(1, 4), min_size=1, max_size=3), _polys(4, 6), _polys(1, 4))
def test_fraction_free_reduction_matches_fractions(f, divisors, row, cofactor):
    ring = Monomials(3)
    kern = Coeffs(QQ)
    order = induced_key_from([ring.one], ring)
    f = ring.pack_poly(f)
    basis = []
    for g in map(ring.pack_poly, divisors):
        lc = g[max(g)]
        basis.append({t: c / lc for t, c in g.items()})
    elems = [(G, None, L) for G, L in map(kern.lift, basis)]

    def divides(a, b):
        return not (a - b) & ring.guard

    want = fraction_normal_form(f, basis, divides)
    F, D = kern.lift(f)
    got = kern.export(*normal_form(F, D, elems, _reducers(elems), order, kern))
    assert list(got.items()) == list(want.items())
    # one tracked step: f and its row r lose c x^m g and c x^m rg, for f's
    # leading coefficient c and the monic g's row rg
    g, rg, r = basis[0], ring.pack_poly(cofactor), ring.pack_poly(row)
    lead, shift = max(f), max(f) - max(g)
    if not divides(max(g), lead):
        return
    (G, RG), L = _over_common(g, rg)
    elem = kern.element(G, RG)
    (F, R), D = _over_common(f, r)
    D = kern.step(D, F[lead], elem, shift, shift, F, R)
    for vec, got, other in ((f, F, g), (r, R, rg)):
        want = _stepped(vec, other, shift, f[lead])
        assert list(kern.export(got, D).items()) == list(want.items())


def _residue_polys(top, size):
    return st.dictionaries(st.tuples(*[st.integers(0, top)] * 3), st.integers(1, 2**64), min_size=1, max_size=size)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([31, 2**61 - 1]),
    _residue_polys(4, 10),
    st.lists(_residue_polys(1, 4), min_size=1, max_size=3),
    _residue_polys(4, 6),
    _residue_polys(1, 4),
)
def test_modular_reduction_matches_plain_arithmetic(p, f, divisors, row, cofactor):
    # the F_p twin of the test above, over a small and a 61-bit prime: every
    # value is a residue in [0, p), and the oracle reduces term by term mod p
    ring = Monomials(3)
    kern = Coeffs(fp(p))
    order = induced_key_from([ring.one], ring)

    def residues(v):
        return {t: c % p for t, c in ring.pack_poly(v).items() if c % p}

    f, row, cofactor = residues(f), residues(row), residues(cofactor)
    basis = []
    for g in map(residues, divisors):
        if g:
            inv = pow(g[max(g)], p - 2, p)
            basis.append({t: c * inv % p for t, c in g.items()})
    assume(f and basis)
    elems = [(G, None, L) for G, L in map(kern.lift, basis)]

    def divides(a, b):
        return not (a - b) & ring.guard

    want = fraction_normal_form(f, basis, divides, p)
    F, D = kern.lift(f)
    got, D = normal_form(F, D, elems, _reducers(elems), order, kern)
    assert D == 1 and list(got.items()) == list(want.items())
    g = basis[0]
    lead, shift = max(f), max(f) - max(g)
    if not divides(max(g), lead):
        return
    elem = kern.element(g, cofactor)
    F, R = dict(f), dict(row)
    assert kern.step(1, F[lead], elem, shift, shift, F, R) == 1
    for vec, got, other in ((f, F, g), (row, R, cofactor)):
        assert list(got.items()) == list(_stepped(vec, other, shift, f[lead], p).items())


def _over_common(*vecs):
    """Integer numerators of dicts of Fractions over their common denominator."""
    D = lcm(*(c.denominator for v in vecs for c in v.values()))
    return [{t: c.numerator * (D // c.denominator) for t, c in v.items()} for v in vecs], D
