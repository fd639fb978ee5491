"""Property tests for the packed terms of the Groebner engines.

A ring monomial packs to one int whose integer order is grevlex_key's
order; module terms pack to ints whose order is the tuple order of
pot_key and of the induced order (the recursive oracle in oracles.py),
and a monomial shift is one integer addition.  Terms beyond the field
width are refused, never packed.
"""

import pytest
from hypothesis import given, settings, strategies as st

from heis7.field import QQ
from heis7.groebner import DEGREE_LIMIT, B, GradedIdeal, Monomials
from heis7.poly import REG_U, grevlex_key, parse_poly
from heis7.resolution import free_resolution, induced_key_from, pot_key
from oracles import induced_key_recursive


def _capped(xs, cap):
    """Clip a list of exponents so that their sum stays within cap."""
    out = []
    for x in xs:
        x = min(x, cap)
        out.append(x)
        cap -= x
    return tuple(out)


def exps(n, cap=DEGREE_LIMIT):
    return st.lists(st.integers(0, cap), min_size=n, max_size=n).map(lambda xs: _capped(xs, cap))


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: st.tuples(exps(n), exps(n))))
def test_ring_packing(pair):
    a, b = pair
    ring = Monomials(len(a))
    pa, pb = ring.pack(a), ring.pack(b)
    assert ring.unpack(pa) == a and ring.unpack(pb) == b
    assert (pa < pb) == (grevlex_key(a) < grevlex_key(b))
    assert (pa == pb) == (a == b)
    assert (not (pa - pb) & ring.guard) == all(x <= y for x, y in zip(a, b))
    lcm = ring.lcm(pa, pb)
    assert ring.unpack(lcm) == tuple(map(max, a, b))
    assert lcm >> ring.bits == sum(map(max, a, b))
    if sum(a) + sum(b) <= DEGREE_LIMIT:
        assert pa + pb - ring.one == ring.pack(_add(a, b))
    # rows: the plain packing sum_k e_k W^k shifts by plain(P(m) - P(0))
    plain = lambda e: sum(x << (B * k) for k, x in enumerate(e))
    assert plain(a) + ring.plain(pb - ring.one) == plain(_add(a, b))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 7).flatmap(lambda n: exps(n, 3 * DEGREE_LIMIT)))
def test_packing_beyond_the_field_width_is_refused(e):
    ring = Monomials(len(e))
    if sum(e) <= DEGREE_LIMIT:
        assert ring.unpack(ring.pack(e)) == e
    else:
        with pytest.raises(ValueError, match=f"degree {sum(e)} "):
            ring.pack(e)


def _terms(n, ncomp, cap):
    return st.tuples(st.integers(0, ncomp - 1), exps(n, cap))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 9), min_size=1, max_size=9),
            st.lists(_terms(n, 9, 9), min_size=2, max_size=12),
            exps(n, 9),
        )
    )
)
def test_pot_order(case):
    gdeg, terms, m = case
    n = len(m)
    ring = Monomials(n)
    order = pot_key(ring, gdeg)
    terms = [(c % len(gdeg), e) for c, e in terms]

    def tuple_key(t):
        c, e = t
        return (1 if c == 0 else 0, -c) + grevlex_key(e)

    packed = [order.pack(c, e) for c, e in terms]
    assert [order.unpack(k) for k in packed] == terms
    assert sorted(terms, key=tuple_key) == [order.unpack(k) for k in sorted(packed)]
    shift = (ring.pack(m) - ring.one) << order.tb
    for (c, e), k in zip(terms, packed):
        assert k + shift == order.pack(c, _add(e, m))
        assert order.degree(k) == sum(e) + gdeg[c]


@st.composite
def induced_chains(draw):
    """A ring, leading terms for three levels, and terms of each level."""
    n = draw(st.integers(1, 5))
    sizes = draw(st.lists(st.integers(1, 6), min_size=3, max_size=3))
    levels = []
    ncomp = None
    for size in sizes:
        if ncomp is None:
            lts = draw(st.lists(exps(n, 6), min_size=size, max_size=size))
        else:
            lts = draw(st.lists(_terms(n, ncomp, 6), min_size=size, max_size=size))
        terms = draw(st.lists(_terms(n, size, 6), min_size=2, max_size=10))
        levels.append((lts, terms))
        ncomp = size
    return n, levels, draw(exps(n, 6))


@settings(max_examples=100, deadline=None)
@given(induced_chains())
def test_induced_order_at_depths_one_to_three(chain):
    n, levels, m = chain
    ring = Monomials(n)
    prev, oracle = ring, grevlex_key
    for lts, terms in levels:
        packed_lts = [ring.pack(t) if prev is ring else prev.pack(*t) for t in lts]
        lt_degree = [sum(t) if prev is ring else prev.degree(k) for t, k in zip(lts, packed_lts)]
        order = induced_key_from(packed_lts, prev)
        oracle = induced_key_recursive(lts, oracle)
        packed = [order.pack(c, e) for c, e in terms]
        assert [order.unpack(k) for k in packed] == terms
        # distinct terms never tie under the oracle
        assert sorted(set(terms), key=oracle) == [order.unpack(k) for k in sorted(set(packed))]
        shift = (ring.pack(m) - ring.one) << order.tb
        for (c, e), k in zip(terms, packed):
            assert k + shift == order.pack(c, _add(e, m))
            assert order.degree(k) == sum(e) + lt_degree[c]
        prev = order


def test_engines_refuse_terms_beyond_the_field_width():
    def u(s):
        return parse_poly(s, REG_U)

    with pytest.raises(ValueError, match=f"degree {DEGREE_LIMIT + 1} "):
        GradedIdeal(REG_U, QQ, [u(f"u0^{DEGREE_LIMIT + 1}")]).gb()
    # every input packs, but an S-pair would reach degree 2 * 100
    big = GradedIdeal(REG_U, QQ, [u("u0^100*u1"), u("u0*u1^100")])
    with pytest.raises(ValueError, match="S-pair degree 200 "):
        big.gb()
    with pytest.raises(ValueError, match="degree"):
        free_resolution(big, degree_cap=300)
    gb = GradedIdeal(REG_U, QQ, [u("u0^2")]).gb()
    assert gb.contains(u(f"u0^{DEGREE_LIMIT}"))
    with pytest.raises(ValueError, match=f"degree {DEGREE_LIMIT + 1} "):
        gb.contains(u(f"u0^{DEGREE_LIMIT + 1}"))
    # a module term's degree adds its component's shift, in pack and in
    # from_row (plain-packed rows, e_1 in the field at B bits) alike
    ring = Monomials(REG_U.n)
    order = induced_key_from([ring.pack((100, 0, 0, 0))], ring)
    assert order.from_row({27 << B: 5}) == {order.pack(0, (0, 27, 0, 0)): 5}
    with pytest.raises(ValueError, match=f"degree {DEGREE_LIMIT + 1} "):
        order.pack(0, (0, 28, 0, 0))
    with pytest.raises(ValueError, match=f"degree {DEGREE_LIMIT + 1} "):
        order.from_row({28 << B: 5})
