import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from heis7.field import QQ, fp
from heis7.linalg import (
    inverse,
    np_rank,
    np_rref,
    nullspace,
    rank,
    rref,
)
from oracles import CYC

F = Fraction


def test_rank_and_rref():
    eye = [[F(int(i == j)) for j in range(7)] for i in range(7)]
    assert rank(eye) == 7
    m = [[F(1), F(2), F(3)], [F(2), F(4), F(6)]]
    red, piv = rref(m)
    assert piv == [0]
    assert red == [[1, 2, 3]] and all(type(x) is Fraction for x in red[0])
    assert len(nullspace(m)) == 2
    # right of `width` the rows are not canonical: the pivot for a column is
    # the first remaining row in the order that row swaps leave
    rows = [[F(0), F(1), F(5)], [F(0), F(1), F(7)], [F(1), F(0), F(9)]]
    assert rref(rows, QQ, 2) == ([[1, 0, 9], [0, 1, 7]], [0, 1])
    red, piv = rref([[3, 1, 4], [1, 5, 9]], fp(31))
    assert piv == [0, 1] and all(type(x) is int and 0 <= x < 31 for row in red for x in row)


def test_inverse():
    a = [[F(2), F(1)], [F(5), F(3)]]
    assert inverse(a) == [[3, -1], [-5, 2]]
    with pytest.raises(ValueError):
        inverse([[F(1), F(2)], [F(2), F(4)]])


def test_empty_systems_have_the_identity_kernel():
    eye = [[int(i == j) for j in range(3)] for i in range(3)]
    assert nullspace([], QQ, width=3) == eye == nullspace([[F(0)] * 3], QQ)
    assert nullspace([], fp(31), width=3) == eye
    assert rref([], QQ) == ([], []) and rank([], QQ) == 0


@pytest.mark.parametrize("dom", [CYC], ids=["CYC"])
def test_other_domains_are_refused(dom):
    m = [[dom.one, dom.zero], [dom.zero, dom.one]]
    for call in (rref, rank, nullspace, inverse):
        with pytest.raises(ValueError):
            call(m, dom)
    with pytest.raises(ValueError):
        nullspace([], dom, width=2)


def test_numpy_mod_p():
    assert np_rank([[1, 2], [2, 4]], 31) == 1
    assert np_rank(np.eye(6, dtype=np.int64), 31) == 6
    red, piv = np_rref([[2, 1], [1, 1]], 31)
    assert piv == [0, 1]


def test_fp_generic_vs_numpy():
    rng = random.Random(12)
    p31 = fp(31)
    for _ in range(10):
        m = [[rng.randrange(31) for _ in range(6)] for _ in range(4)]
        assert rank(m, p31) == np_rank(m, 31)


def test_numpy_path_large_prime_rank():
    # rank-5 products of 6x5 and 5x7 matrices; int64 residue products
    # overflow above 2^31, so those primes must take the generic path
    rng = random.Random(5)
    for p in (2**31 - 1, 4294967311):
        for _ in range(10):
            a = [[rng.randrange(p) for _ in range(5)] for _ in range(6)]
            b = [[rng.randrange(p) for _ in range(7)] for _ in range(5)]
            m = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)] for row in a]
            want = rank(m, fp(p))
            assert want == 5
            assert np_rank(m, p) == want
    with pytest.raises(OverflowError):
        np_rref([[1, 2], [3, 4]], 4294967311)


# ---------------------------------------------------------------------------
# differential tests against sympy's exact matrices over QQ and GF(p)

# p = 2^31 - 1 is the largest prime below the numpy path's bound and is
# taken by np_rank through the fallback to rank
DOMAINS = [QQ, fp(31), fp(2**31 - 1)]


@st.composite
def _matrices(draw, dom):
    """(rows, ncols, width): up to 6 rows mixing random, zero and repeated
    rows, and a width that may stop short of the last column."""
    ncols = draw(st.integers(1, 6))
    if dom is QQ:
        nonzero = st.fractions(min_value=-6, max_value=6, max_denominator=5)
    else:
        nonzero = st.one_of(st.integers(1, 4), st.integers(0, dom.p - 1), st.just(dom.p - 1))
    zero = F(0) if dom is QQ else 0
    entry = st.one_of(st.just(zero), nonzero)
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["random", "random", "zero", "repeat"]))
        if kind == "zero":
            rows.append([zero] * ncols)
        elif kind == "repeat" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
    return rows, ncols, draw(st.integers(0, ncols))


def _any_matrix():
    return st.sampled_from(DOMAINS).flatmap(lambda dom: st.tuples(st.just(dom), _matrices(dom)))


def _dm(rows, ncols, dom):
    """rows as a sympy DomainMatrix over QQ or GF(p)."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    K = sympy.QQ if dom is QQ else sympy.GF(dom.p)
    conv = (lambda x: K(x.numerator, x.denominator)) if dom is QQ else K
    return DomainMatrix([[conv(x) for x in row] for row in rows], (len(rows), ncols), K)


def _values(dm, dom):
    """A DomainMatrix as lists of Fractions (QQ) or ints in [0, p)."""
    if dom is QQ:
        return [[F(int(x.numerator), int(x.denominator)) for x in row] for row in dm.to_list()]
    return [[int(x) % dom.p for x in row] for row in dm.to_list()]


def _cut(rows, w):
    return [row[:w] for row in rows]


def _check_kernel(basis, a, dom):
    """basis is the kernel of the DomainMatrix a with the identity on its
    free columns, which determines it."""
    w = a.shape[1]
    free = [c for c in range(w) if c not in a.rref()[1]]
    assert len(basis) == len(free) == a.nullspace().shape[0]
    assert [[v[c] for c in free] for v in basis] == [[int(i == j) for j in free] for i in free]
    if basis and a.shape[0]:
        product = a * _dm([list(col) for col in zip(*basis)], len(basis), dom)
        assert product.is_zero_matrix


@seed(7001)
@settings(max_examples=150, deadline=None)
@given(_any_matrix())
def test_rref_rank_nullspace_against_sympy(case):
    dom, (rows, ncols, w) = case
    a = _dm(_cut(rows, w), w, dom)
    want_red, want_piv = a.rref()
    want_piv = list(want_piv)
    red, piv = rref(rows, dom, w)
    # the pivots and the reduced first w columns are canonical
    assert piv == want_piv
    assert _cut(red, w) == _values(want_red, dom)[: len(piv)]
    assert all(type(x) is (Fraction if dom is QQ else int) for row in red for x in row)
    # every reduced row, right of column w too, lies in the row space
    full = _dm(rows, ncols, dom)
    assert _dm(rows + red, ncols, dom).rank() == full.rank()
    if w == ncols:
        assert (red, piv) == (_values(full.rref()[0], dom)[: len(piv)], want_piv)
    assert rank(rows, dom) == full.rank()
    _check_kernel(nullspace(rows, dom, w), a, dom)


@seed(7002)
@settings(max_examples=150, deadline=None)
@given(_any_matrix())
def test_inverse_against_sympy(case):
    dom, (rows, ncols, _) = case
    if not rows:
        return
    k = min(len(rows), ncols)
    sq = _cut(rows[:k], k)
    if _dm(sq, k, dom).rank() < k:
        with pytest.raises(ValueError):
            inverse(sq, dom)
    else:
        assert inverse(sq, dom) == _values(_dm(sq, k, dom).inv(), dom)


@seed(7003)
@settings(max_examples=100, deadline=None)
@given(st.sampled_from(DOMAINS[1:]).flatmap(_matrices))
def test_numpy_paths_against_sympy(case):
    rows, ncols, _ = case
    for dom in DOMAINS[1:]:
        rows_p = [[x % dom.p for x in row] for row in rows]
        arr = np.array(rows_p, dtype=np.int64).reshape(len(rows), ncols)
        want = _dm(rows_p, ncols, dom)
        assert np_rank(arr, dom.p) == want.rank()
