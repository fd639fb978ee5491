import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from heis7.field import CYC, QQ, fp
from heis7.groebner import (
    Coeffs,
    GradedIdeal,
    Monomials,
    buchberger,
    ideal_hf_oracle,
    normal_form,
)
from heis7.moduli import f_basis, j_ideal
from heis7.poly import Poly, REG_U, REG_X, VarRegistry, grevlex_key, monomial_basis, parse_poly, render_poly
from oracles import fraction_normal_form


def u(s):
    return parse_poly(s, REG_U)


def test_monomial_ideal_is_its_own_basis():
    I = GradedIdeal(REG_U, QQ, [u("u1*u2"), u("u2*u3"), u("u3*u1")])
    gb = I.gb()
    assert sorted(render_poly(p) for p in gb.as_polys()) == ["u1*u2", "u1*u3", "u2*u3"]


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
    # two seed-4 sample points, where the cubics are dependent mod 3 and the
    # dense F3 ranks read the quotient dimensions [7, 28, 70, 140]
    from heis7.moduli import surface_ideal

    S = surface_ideal(Fraction(x) for x in t.split(","))
    I = S.ideal()
    assert I.hilbert().hf_range(1, 4) == [ideal_hf_oracle(I.gens, d) for d in range(1, 5)] == [7, 28, 63, 112]
    assert [ideal_hf_oracle(S.ideal(fp(3)).gens, d) for d in range(1, 5)] == [7, 28, 70, 140]


def test_hf_oracle_of_the_zero_ideal():
    # zero generators leave all of S_2 (28 quadrics in 7 variables); an
    # empty list has no registry to count monomials in
    for dom in (QQ, fp(31)):
        assert ideal_hf_oracle([Poly.zero(REG_X, dom)] * 3, 2) == 28
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
    ring = Monomials(REG_U.n)
    a1, _ = buchberger([ring.pack_poly(g.terms) for g in gens], ring, QQ)
    a2, _ = buchberger([ring.pack_poly(g.terms) for g in gens], ring, QQ)
    assert a1 == a2


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
            got = [dict(p.terms) for p in GradedIdeal(REG_U, dom, gens).gb().as_polys()]
            assert got == _sympy_basis(gens, dom), [str(g) for g in gens]
            assert got == sorted(got, key=lambda g: grevlex_key(max(g, key=grevlex_key)))


def test_engines_refuse_other_domains():
    from heis7.resolution import ModuleGB, induced_key_from

    ring = Monomials(REG_U.n)
    with pytest.raises(ValueError, match="Q or F_p"):
        buchberger([ring.pack_poly({(1, 0, 0, 0): CYC.one})], ring, CYC)
    with pytest.raises(ValueError, match="Q or F_p"):
        ModuleGB(CYC, induced_key_from([ring.one], ring))


@pytest.mark.parametrize("dom", [QQ, fp(31)], ids=["QQ", "F31"])
def test_degree_capped_auto_reduce_returns(dom):
    # the cap stops before the pair of u0^2*u1 + 2*u2^3 and u0^2; the
    # auto-reduce turns the first into 2*u2^3, and the reducer it leaves for
    # u2^4 must be monic (a non-monic one made that reduction cycle forever)
    gens = [parse_poly(s, REG_U, dom) for s in ("u0^2*u1 + 2*u2^3", "u0^2", "u2^4")]
    ring = Monomials(REG_U.n)
    basis, info = buchberger([ring.pack_poly(g.terms) for g in gens], ring, dom, degree_cap=2)
    assert info["truncated"]
    assert basis == [ring.pack_poly({(2, 0, 0, 0): dom.one}), ring.pack_poly({(0, 0, 3, 0): dom.one})]


_COEFFS = st.builds(Fraction, st.integers(-(2**70), 2**70).filter(bool), st.integers(1, 10**12))


def _polys(top, size):
    return st.dictionaries(st.tuples(*[st.integers(0, top)] * 3), _COEFFS, min_size=1, max_size=size)


# divisors of low degree against dividends of higher degree, so that a
# normal form takes many steps and its denominator passes CONTENT_BITS
@settings(max_examples=80, deadline=None)
@given(_polys(4, 10), st.lists(_polys(1, 4), min_size=1, max_size=3), _polys(4, 6), _polys(1, 4))
def test_fraction_free_reduction_matches_fractions(f, divisors, row, cofactor):
    ring = Monomials(3)
    kern = Coeffs(QQ)
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
    got = kern.export(*normal_form(F, D, elems, ring, kern))
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
        want = dict(vec)
        for t, v in other.items():
            want[t + shift] = want.get(t + shift, 0) - f[lead] * v
            if not want[t + shift]:
                del want[t + shift]
        assert list(kern.export(got, D).items()) == list(want.items())


def _over_common(*vecs):
    """Integer numerators of dicts of Fractions over their common denominator."""
    D = lcm(*(c.denominator for v in vecs for c in v.values()))
    return [{t: c.numerator * (D // c.denominator) for t, c in v.items()} for v in vecs], D
