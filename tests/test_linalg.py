import random
from fractions import Fraction

import numpy as np
import pytest

from heis7.field import FF, FieldElem, fp, zeta
from heis7.linalg import (
    det,
    identity,
    inverse,
    mat_eq,
    mat_mul,
    np_nullspace,
    np_rank,
    np_rref,
    nullspace,
    rank,
    rref,
    solve,
)


def test_rank_and_rref():
    assert rank(identity(7)) == 7
    m = [[Fraction(1), Fraction(2), Fraction(3)], [Fraction(2), Fraction(4), Fraction(6)]]
    red, piv = rref(m)
    assert piv == [0]
    assert len(nullspace(m)) == 2


def test_solve_and_inverse():
    a = [[Fraction(2), Fraction(1)], [Fraction(5), Fraction(3)]]
    assert mat_eq(mat_mul(a, inverse(a)), identity(2))
    x = solve(a, [Fraction(1), Fraction(0)])
    assert x == [Fraction(3), Fraction(-5)]
    with pytest.raises(ValueError):
        solve([[Fraction(1)], [Fraction(1)]], [Fraction(0), Fraction(1)])
    assert det(a) == Fraction(1)


def test_field_domain_linear_algebra():
    z = zeta(1)
    a = [[FieldElem(z, 0), FieldElem(1, 0)], [FieldElem(0, 1), FieldElem(z, 0)]]
    ai = inverse(a, FF)
    assert mat_eq(mat_mul(a, ai, FF), identity(2, FF), FF)


def test_numpy_mod_p():
    assert np_rank([[1, 2], [2, 4]], 31) == 1
    assert np_rank(np.eye(6, dtype=np.int64), 31) == 6
    ns = np_nullspace([[1, 2, 3], [2, 4, 6]], 31)
    assert ns.shape[0] == 2
    for row in ns:
        assert (np.dot([[1, 2, 3], [2, 4, 6]], row) % 31 == 0).all()
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
            ns = np_nullspace(m, p)
            assert ns.shape == (2, 7)
            for v in ns:
                assert all(sum(int(x) * int(y) for x, y in zip(row, v)) % p == 0 for row in m)
    with pytest.raises(OverflowError):
        np_rref([[1, 2], [3, 4]], 4294967311)
