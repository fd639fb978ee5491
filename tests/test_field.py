import ast
import random
import time
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from heis7.field import (
    Cyc7,
    CycArray,
    FieldElem,
    alpha_minus,
    alpha_plus,
    eta,
    fp,
    is_prime,
    gauss_sum,
    lam,
    parse_cyc,
    parse_field,
    render_cyc,
    render_field,
    zeta,
)


def rand_cyc(rng):
    return Cyc7(tuple(rng.randint(-9, 9) for _ in range(6)), rng.randint(1, 9))


def rand_field(rng):
    return FieldElem(rand_cyc(rng), rand_cyc(rng))


def test_roots_of_unity():
    assert zeta(1) * zeta(6) == Cyc7.from_int(1)
    total = Cyc7.from_int(0)
    for k in range(7):
        total = total + zeta(k)
    assert total.is_zero()
    assert zeta(9) == zeta(2)


def test_gauss_sum():
    a = gauss_sum()
    assert a * a == Cyc7.from_int(-7)
    assert a == lam(1) + lam(2) + lam(3)
    assert (Cyc7.from_int(1) + a) * Cyc7.from_rat(Fraction(1, 2)) == alpha_plus()
    assert alpha_plus() + alpha_minus() == Cyc7.from_int(1)
    # the three negative-sum identities
    assert zeta(1) + zeta(2) + zeta(4) == -alpha_minus()
    assert zeta(3) + zeta(5) + zeta(6) == -alpha_plus()


def test_eigenvalue_identities():
    a = gauss_sum()
    assert lam(1) * lam(2) * lam(3) == a
    assert eta(1) + eta(2) + eta(3) == Cyc7.from_int(-1)
    assert eta(1) * eta(2) * eta(3) == Cyc7.from_int(1)
    assert lam(1) ** 2 == eta(3) - 2
    assert lam(2) ** 2 == eta(1) - 2
    assert lam(3) ** 2 == eta(2) - 2
    assert lam(1) * lam(2) == eta(3) - eta(2)
    assert lam(2) * lam(3) == eta(1) - eta(3)
    assert lam(3) * lam(1) == eta(2) - eta(1)
    assert a * eta(1) == lam(1) - 2 * lam(2)
    assert a * eta(2) == lam(2) - 2 * lam(3)
    assert a * eta(3) == lam(3) - 2 * lam(1)


def test_galois_automorphism():
    z = zeta(1)
    assert z.galois() == zeta(3)
    assert z.galois(3) == zeta(6)  # complex conjugation inverts
    assert eta(1).galois() == eta(2)
    # order exactly 6
    rng = random.Random(3)
    for _ in range(20):
        x = rand_cyc(rng)
        y = x
        for k in range(1, 7):
            y = y.galois(1)
            if k < 6 and not x.is_rational():
                pass
        assert y == x
    assert z.galois(1) != z
    # conjugation fixes the real combinations, negates the imaginary ones
    for i in (1, 2, 3):
        assert eta(i).conj() == eta(i)
        assert lam(i).conj() == -lam(i)


def test_field_axioms_seeded():
    rng = random.Random(42)
    one = Cyc7.from_int(1)
    for _ in range(1000):
        a, b, c = rand_cyc(rng), rand_cyc(rng), rand_cyc(rng)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        if not a.is_zero():
            assert a * a.inv() == one
    fe_one = FieldElem(1, 0)
    for _ in range(1000):
        a, b, c = rand_field(rng), rand_field(rng), rand_field(rng)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inv() == fe_one
    p31 = fp(31)
    for _ in range(1000):
        a, b, c = rng.randrange(31), rng.randrange(31), rng.randrange(31)
        assert p31.add(p31.add(a, b), c) == p31.add(a, p31.add(b, c))
        assert p31.mul(a, p31.add(b, c)) == p31.add(p31.mul(a, b), p31.mul(a, c))
        if a:
            assert p31.mul(a, p31.inv(a)) == 1


def test_canonical_form_idempotent():
    rng = random.Random(9)
    for _ in range(100):
        x = rand_cyc(rng)
        y = Cyc7(x.num, x.den)
        assert y.num == x.num and y.den == x.den


def test_sqrt2():
    r2 = FieldElem.sqrt2()
    assert r2 * r2 == FieldElem(2, 0)
    x = FieldElem(eta(1), lam(2))
    assert x * x.inv() == FieldElem(1, 0)
    assert x.conj() == FieldElem(eta(1), -lam(2))


def test_render_parse_roundtrip():
    rng = random.Random(5)
    for _ in range(50):
        x = rand_field(rng)
        assert parse_field(render_field(x)) == x
    assert parse_cyc("1 + 2*z + 2*z^2 + 2*z^4") == gauss_sum()
    assert render_cyc(Cyc7.from_int(0)) == "0"
    assert parse_field("(1/2 + z)*r2 - 3") == FieldElem(-3, Cyc7.from_rat(Fraction(1, 2)) + zeta(1))
    with pytest.raises(ValueError):
        parse_field("z + q")
    with pytest.raises(ValueError):
        parse_field("1/0")


def test_fp_guards():
    with pytest.raises(ValueError):
        fp(7)
    with pytest.raises(ValueError):
        fp(2)
    with pytest.raises(ValueError):
        fp(33)
    p = fp(31)
    assert p.coerce(Fraction(1, 2)) == 16
    with pytest.raises(ZeroDivisionError):
        p.inv(0)


def test_fp_primality_is_deterministic():
    sympy = pytest.importorskip("sympy")
    assert [n for n in range(3000) if is_prime(n)] == list(sympy.primerange(3000))
    rng = random.Random(7)
    for n in [rng.getrandbits(64) | 1 for _ in range(200)]:
        assert is_prime(n) == sympy.isprime(n), n
    for p in (3, 31, 1_000_000_007, 2**61 - 1, 1000000000000000003, sympy.prevprime(3317044064679887385961981)):
        assert is_prime(p)
    carmichael = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185)
    # strong pseudoprimes to every prime base through 7, through 23 and
    # through 37: only the later bases expose them
    pseudo = (3215031751, 3825123056546413051, 318665857834031151167461)
    for n in carmichael + pseudo + (1, 33, 91, 2**64 + 1, 1_000_000_007 * 1_000_000_009, 3317044064679887385961979):
        assert not is_prime(n), n
    t0 = time.perf_counter()
    assert fp(1000000000000000003).p == 1000000000000000003
    assert time.perf_counter() - t0 < 1.0
    # beyond the proven range of the 13 bases a modulus is refused, not guessed
    with pytest.raises(ValueError, match="bound"):
        fp(3317044064679887385961987)
    with pytest.raises(ValueError, match="bound"):
        fp(3317044064679887385961981)


def _cyc_to_sympy(x, z):
    return sum(Fraction(n, x.den) * z**k for k, n in enumerate(x.num))


def _sympy_to_cyc(expr, z):
    import sympy

    coeffs = sympy.Poly(expr, z).all_coeffs()[::-1]
    coeffs += [0] * (6 - len(coeffs))
    out = Cyc7.from_int(0)
    for k, c in enumerate(coeffs):
        c = sympy.Rational(c)
        out = out + Cyc7.from_rat(Fraction(int(c.p), int(c.q))) * zeta(k)
    return out


def test_cyc7_mul_and_inv_against_sympy():
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")
    phi = sympy.cyclotomic_poly(7, z)
    rng = random.Random(2024)
    for trial in range(60):
        a = rand_cyc(rng)
        # every third operand is rational, which takes the scaling path
        b = Cyc7.from_rat(Fraction(rng.randint(-9, 9), rng.randint(1, 9))) if trial % 3 == 0 else rand_cyc(rng)
        sa, sb = _cyc_to_sympy(a, z), _cyc_to_sympy(b, z)
        assert a * b == _sympy_to_cyc(sympy.rem(sympy.expand(sa * sb), phi, z), z)
        assert b * a == a * b
        assert FieldElem(a, 0) == a and hash(FieldElem(a, 0)) == hash(a)
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        assert a * q == q * a == a * Cyc7.from_rat(q)
        if not a.is_zero():
            want = _sympy_to_cyc(sympy.invert(sa, phi, z), z)
            assert a.inv() == want
            assert a * a.inv() == Cyc7.from_int(1)


# ---------------------------------------------------------------------------
# the CycArray kernel against scalar Cyc7/FieldElem arithmetic


def _cyc_values(bound):
    nums = st.lists(st.integers(-bound, bound), min_size=6, max_size=6)
    return st.builds(lambda n, d: Cyc7(tuple(n), d), nums, st.integers(1, 60))


def _field_values(bound):
    c = _cyc_values(bound)
    # some tower values with zero sqrt2 part, some rationals
    return st.one_of(st.builds(FieldElem, c, c), st.builds(FieldElem, c), c.map(lambda x: FieldElem(x.num[0])))


def _pairs(values):
    return st.integers(1, 8).flatmap(lambda n: st.tuples(st.lists(values, min_size=n, max_size=n), st.lists(values, min_size=n, max_size=n)))


def _field_to_sympy(x, z, r):
    return _cyc_to_sympy(x.a, z) + _cyc_to_sympy(x.b, z) * r


def _sympy_to_field(expr, z, r):
    """The FieldElem of a polynomial in z and r, reduced modulo r^2 - 2 and
    the 7th cyclotomic polynomial (a Groebner basis: coprime leading terms)."""
    import sympy

    phi = sympy.cyclotomic_poly(7, z)
    rem = sympy.reduced(sympy.expand(expr), [r**2 - 2, phi], r, z)[1]
    rem = sympy.Poly(rem, r)
    return FieldElem(_sympy_to_cyc(rem.coeff_monomial(1), z), _sympy_to_cyc(rem.coeff_monomial(r), z))


@seed(2024)
@settings(max_examples=30, deadline=None)
@given(_field_values(40), _field_values(40))
def test_fieldelem_arithmetic_against_sympy(x, y):
    sympy = pytest.importorskip("sympy")
    z, r = sympy.symbols("z r")
    sx, sy = _field_to_sympy(x, z, r), _field_to_sympy(y, z, r)
    assert x + y == _sympy_to_field(sx + sy, z, r)
    assert x * y == _sympy_to_field(sx * sy, z, r)
    if not x.is_zero():
        # the inverse is the one value whose product with x reduces to 1
        assert _sympy_to_field(sx * _field_to_sympy(x.inv(), z, r), z, r) == FieldElem(1, 0)

@settings(max_examples=60, deadline=None)
@given(st.sampled_from([_cyc_values(40), _field_values(40), _cyc_values(1 << 41)]).flatmap(_pairs))
def test_cycarray_matches_scalar_arithmetic(pair):
    xs, ys = pair
    a, b = CycArray.from_values(xs), CycArray.from_values(ys)
    assert a.tolist() == xs and b.tolist() == ys
    assert (a * b).tolist() == [x * y for x, y in zip(xs, ys)]
    assert (a + b).tolist() == [x + y for x, y in zip(xs, ys)]
    assert (a - b).tolist() == [x - y for x, y in zip(xs, ys)]
    assert (a * ys[0]).tolist() == [x * ys[0] for x in xs]
    assert (a * Fraction(3, 7)).tolist() == [x * Fraction(3, 7) for x in xs]
    for p in range(6):
        assert a.galois(p).tolist() == [x.galois(p) for x in xs]
    assert a.conj().tolist() == [x.conj() for x in xs]
    # the pairing sum_c x_c y_c as a 1 x n by n x 1 product, and a stack
    dot = (a[None] @ b[:, None]).tolist()[0][0]
    assert dot == sum((x * y for x, y in zip(xs, ys)), Cyc7.from_int(0))
    qs = [Fraction(i - 3, i + 2) for i in range(len(xs))]
    dot = (CycArray.from_values(qs)[None] @ b[:, None]).tolist()[0][0]
    assert dot == sum((q * y for q, y in zip(qs, ys)), Cyc7.from_int(0))
    assert CycArray.stack([a, b]).tolist() == [xs, ys]
    assert a.sum(0).tolist() == sum(xs, Cyc7.from_int(0))
    # normalisation: one reduced common denominator, so equal values give
    # equal arrays whatever the route
    parts = [p for x in xs for p in ((x.a, x.b) if isinstance(x, FieldElem) else (x,))]
    assert a.den == lcm(*(p.den for p in parts))
    assert (a * 6) * Fraction(1, 6) == a
    assert (a + b) - b == a


def test_lower_leaves_the_tower_only_without_a_sqrt2_part():
    rng = random.Random(29)
    cycs = [rand_cyc(rng) for _ in range(6)]
    tower = CycArray.from_values([FieldElem(c, 0) for c in cycs]).reshape(2, 3)
    assert tower.r2
    low = tower.lower()
    assert not low.r2 and low.shape == (2, 3)
    assert low.tolist() == [cycs[:3], cycs[3:]] and low == tower
    # one nonzero sqrt2 part keeps the whole batch in the tower, where it
    # still compares exactly with a Q(zeta7) batch
    vals = [FieldElem(c, 0) for c in cycs]
    vals[4] = FieldElem(cycs[4], Cyc7.from_rat(Fraction(1, 3)))
    mixed = CycArray.from_values(vals)
    assert mixed.lower() is mixed
    plain = CycArray.from_values(cycs)
    assert plain.lower() is plain
    assert (plain - mixed).nonzero().tolist() == [k == 4 for k in range(6)]
    assert (plain * mixed).tolist() == [c * v for c, v in zip(cycs, vals)]


def test_cycarray_promotes_to_python_ints():
    # numerators near 2^40: products reach 2^80 and must take the Python-int
    # path; sums and results that fit come back to int64
    big = Cyc7(((1 << 40) + 3, -(1 << 40), 5, 0, 1 << 39, -7), 3)
    small = Cyc7((1, 2, 3, 4, 5, 6), 5)
    a = CycArray.from_values([big, small, big])
    assert a.num.dtype == np.int64
    prod = a * a
    assert prod.num.dtype == object
    assert prod.tolist() == [big * big, small * small, big * big]
    assert (prod + prod).tolist() == [2 * (big * big), 2 * (small * small), 2 * (big * big)]
    assert (a * Fraction(1, 1 << 30)).tolist() == [x * Fraction(1, 1 << 30) for x in (big, small, big)]
    m = CycArray.from_values([big] * 49).reshape(7, 7)
    sq = (m @ m).tolist()
    want = sum((big * big for _ in range(7)), Cyc7.from_int(0))
    assert sq == [[want] * 7] * 7
    assert (m @ m).trace().tolist() == want * 7
    assert (prod - prod + a).num.dtype == np.int64
    tower = CycArray.from_values([FieldElem(big, big)])
    assert (tower * tower).tolist() == [FieldElem(big, big) * FieldElem(big, big)]


def _rand_batch(rng, shape, tower=False, top=9):
    n = int(np.prod(shape))
    cyc = lambda: Cyc7(tuple(rng.randint(-top, top) for _ in range(6)), rng.randint(1, 9))
    vals = [FieldElem(cyc(), cyc()) if tower else cyc() for _ in range(n)]
    return CycArray.from_values(vals).reshape(*shape)


def test_trace_dot_matches_trace_of_product():
    rng = random.Random(17)
    big = (1 << 40) + 5
    cases = [
        ((4, 5), (5, 4), False, 9),  # rectangular (r x k)(k x r)
        ((3, 4, 5), (3, 5, 4), False, 9),  # batched
        ((4, 5), (3, 5, 4), False, 9),  # broadcast one side
        ((2, 1, 3, 3), (4, 3, 3), False, 9),  # broadcast both sides
        ((3, 2, 4), (3, 4, 2), True, 9),  # sqrt2 tower
        ((2, 7, 7), (2, 7, 7), False, big),  # numerators near 2^40: Python ints
        ((2, 3, 3), (2, 3, 3), True, big),
    ]
    for sa, sb, tower, top in cases:
        a, b = _rand_batch(rng, sa, tower, top), _rand_batch(rng, sb, False, top)
        got = a.trace_dot(b)
        assert got == (a @ b).trace() and got.shape == (a @ b).trace().shape
        assert got.r2 == tower
        if top == big:
            assert a.num.dtype == np.int64 and got.num.dtype == object
    # against scalar arithmetic
    a, b = _rand_batch(rng, (3, 4)), _rand_batch(rng, (4, 3), True)
    xs, ys = a.tolist(), b.tolist()
    want = sum((xs[i][j] * ys[j][i] for i in range(3) for j in range(4)), Cyc7.from_int(0))
    assert a.trace_dot(b).tolist() == want
    with pytest.raises(ValueError, match="trace_dot"):
        a.trace_dot(a)


# ---------------------------------------------------------------------------
# the three product routes of CycArray: float64 below 2^53, int64 below 2^62


def _as_objects(a):
    """The values of a CycArray as a numpy object array of its batch shape."""
    out = np.empty(a.shape, dtype=object)
    out[...] = a.tolist()
    return out


def _recording_routes(monkeypatch):
    """(bound, result dtype) of every _imatmul call from here on."""
    from heis7 import field

    seen, inner = [], field._imatmul

    def spy(x, y, bound):
        out = inner(x, y, bound)
        seen.append((bound, out.dtype))
        return out

    monkeypatch.setattr(field, "_imatmul", spy)
    return seen


def _product_cases():
    rng = random.Random(53)
    coeffs = np.array([[3, -1, 0, 2], [1, 1, -2, 5]])
    # (name, left shape, right shape or None, tower, the product, its scalar reference)
    mul = lambda a, b: a * b
    matmul = lambda a, b: a @ b
    trace_dot = lambda a, b: a.trace_dot(b)
    galois = lambda a, _: a.galois(2)
    lincomb = lambda a, _: a.lincomb(coeffs)
    ref_trace = lambda x, y: (x @ y).diagonal(axis1=-2, axis2=-1).sum(-1)
    ref_galois = lambda x, _: np.vectorize(lambda v: v.galois(2), otypes=[object])(x)
    ref_lincomb = lambda x, _: np.array([sum(int(c) * x[j] for j, c in enumerate(row)) for row in coeffs])
    cases = [
        ("mul broadcast", (3, 1, 4), (2, 1), False, mul, lambda x, y: x * y),
        ("mul tower", (3, 4), (3, 4), True, mul, lambda x, y: x * y),
        ("mul one value", (), (5,), True, mul, lambda x, y: x * y),
        ("matmul broadcast", (2, 3, 4), (4, 2), False, matmul, lambda x, y: x @ y),
        ("matmul tower", (3, 3), (2, 3, 3), True, matmul, lambda x, y: x @ y),
        ("trace_dot broadcast", (2, 3, 4), (4, 3), False, trace_dot, ref_trace),
        ("trace_dot tower", (3, 2), (2, 2, 3), True, trace_dot, ref_trace),
        ("galois", (2, 3), None, False, galois, ref_galois),
        ("galois tower", (4,), None, True, galois, ref_galois),
        ("lincomb", (4, 3), None, False, lincomb, ref_lincomb),
        ("lincomb tower", (4, 2), None, True, lincomb, ref_lincomb),
    ]
    for name, sa, sb, tower, op, ref in cases:
        # the left operand over den 1, so that scaling it scales the bound
        a = _rand_batch(rng, sa, tower)
        a = CycArray(a.num, 1, tower)
        b = _rand_batch(rng, sb, False) if sb is not None else None
        yield pytest.param(a, b, op, ref, id=name)


@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("a, b, op, ref", list(_product_cases()))
def test_products_take_the_route_of_their_bound(monkeypatch, a, b, op, ref, side):
    # the bound of an operation is linear in the left operand's largest
    # numerator: scale it to put the bound just below 2^53, then just above
    seen = _recording_routes(monkeypatch)
    op(a, b)
    base = seen[0][0]
    assert base > 0 and all(bound == base for bound, _ in seen)
    scale = ((1 << 53) - 1) // base + (side == "above")
    big = CycArray(a.num * scale, 1, a.r2)
    seen.clear()
    got = op(big, b)
    bound = scale * base
    assert (bound < 1 << 53) == (side == "below") and bound < 1 << 62
    assert {dtype for _, dtype in seen} == {np.dtype(np.float64 if side == "below" else np.int64)}
    want = ref(_as_objects(big), _as_objects(b) if b is not None else None)
    assert _as_objects(got).tolist() == np.asarray(want, dtype=object).tolist()


def test_cycarray_refuses_float_numerators():
    # only products turn their float64 results back into integers; the
    # constructor cuts no value down to an integer
    for num in (np.full(6, 0.5), np.ones((2, 6))):
        with pytest.raises(TypeError, match="integers"):
            CycArray(num)
        with pytest.raises(TypeError, match="integers"):
            CycArray(num, 3)


def test_results_past_2_53_stay_exact():
    # float64 holds only even integers above 2^53; each result below is odd
    # and above it, and each bound is below 2^62, so these run in int64
    A, B = (1 << 27) + 1, (1 << 26) + 1
    assert A * B > 1 << 53 and A * B % 2 == 1
    x, y = Cyc7.from_int(A), Cyc7((0, 0, B, 0, 0, 0))
    a, b = CycArray.from_values([x]), CycArray.from_values([y])
    assert (a * b).tolist() == [x * y]
    assert (a[None] @ b[:, None]).tolist() == [[x * y]]
    assert a[None].trace_dot(b[:, None]).tolist() == x * y
    assert b.lincomb([[A]]).tolist() == [x * y]
    tower = CycArray.from_values([FieldElem(x, x)])
    assert (tower * b).tolist() == [FieldElem(x * y, x * y)]
    # 16 terms, each below 2^53 / 11, whose sum passes 2^53: the bound
    # counts the length of the sum
    A, B = (1 << 25) + 1, (1 << 24) + (1 << 22) + (1 << 21)
    xs, ys = [Cyc7.from_int(A)] * 16, [Cyc7.from_int(B)] * 15 + [Cyc7.from_int(B + 1)]
    want = Cyc7.from_int(A * (16 * B + 1))
    assert 11 * A * (B + 1) < 1 << 53 < A * (16 * B + 1)
    a, b = CycArray.from_values(xs), CycArray.from_values(ys)
    assert (a[None] @ b[:, None]).tolist() == [[want]]
    assert a[None].trace_dot(b[:, None]).tolist() == want
    assert b.lincomb([[A] * 16]).tolist() == [want]
    # odd coordinates just below 2^26 on 1, z, z^2: each term is below 2^52,
    # and the z^2 coordinate of a product sums three of them
    rng = random.Random(7)
    odd = lambda: rng.randrange((1 << 26) - (1 << 22), 1 << 26) | 1
    xs, ys = ([Cyc7((odd(), odd(), odd(), 0, 0, 0)) for _ in range(4)] for _ in range(2))
    prod = (CycArray.from_values(xs) * CycArray.from_values(ys)).tolist()
    assert prod == [u * v for u, v in zip(xs, ys)]
    assert max(abs(n) for v in prod for n in v.num) > 1 << 53
    # theta(z) = z^3 and theta(z^2) = z^6 = -(1 + z + ... + z^5), so the z^3
    # coordinate of theta(v) is v_1 - v_2
    v = Cyc7((0, (1 << 52) + 1, -(1 << 52), 0, 0, 0))
    twisted = CycArray.from_values([v]).galois(1)
    assert twisted.tolist() == [v.galois(1)]
    assert twisted.num[0, 3] == (1 << 53) + 1
    # a zero operand makes a zero bound, and its partner may be too large
    # for a float
    huge, zero = CycArray.from_values([Cyc7.from_int(1 << 1100)]), CycArray.from_values([0])
    assert (huge * zero).tolist() == [Cyc7.from_int(0)]
    assert (huge[None] @ zero[:, None]).tolist() == [[Cyc7.from_int(0)]]


def test_elementwise_product_temporaries_stay_near_the_result_size():
    # the product accumulates one basis element at a time; an outer product
    # of the coordinates would be 12 times the result in the tower
    import tracemalloc

    rng = random.Random(11)
    a, b = _rand_batch(rng, (64, 11), True), _rand_batch(rng, (64, 11), True)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        prod = a * b
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert prod.num.shape == (64, 11, 2, 6)
    assert peak < 6 * prod.num.nbytes


def matmuls_outside(source, helper):
    """The line of each matrix product in source outside the function
    `helper`: an @ operator, or a call of matmul, dot, tensordot or einsum."""
    tree = ast.parse(source)
    inside = {id(n) for f in ast.walk(tree) if isinstance(f, ast.FunctionDef) and f.name == helper for n in ast.walk(f)}
    names = {"matmul", "dot", "tensordot", "einsum"}
    found = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(node.lineno)
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) in names:
            found.append(node.lineno)
    return sorted(found)


def test_the_scan_finds_matrix_products():
    source = (
        "def _imatmul(x, y):\n"
        "    return x @ y\n"
        "def f(x, y):\n"
        "    x @= y\n"
        "    return np.dot(x, y) + (x @ y)\n"
        "z = matmul(1, 2)\n"
    )
    assert matmuls_outside(source, "_imatmul") == [4, 5, 5, 6]


def test_every_field_product_goes_through_the_helper():
    # the bound rule lives in _imatmul: no other code of field.py may form a
    # matrix product, so no call site can skip it
    from pathlib import Path

    import heis7.field

    assert matmuls_outside(Path(heis7.field.__file__).read_text(), "_imatmul") == []
