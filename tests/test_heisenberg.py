import random
from fractions import Fraction

import pytest

from heis7 import heisenberg
from heis7.field import Cyc7, gauss_sum, lam, zeta
from heis7.heisenberg import (
    GroupLawError,
    HElem,
    IOTA,
    MU,
    NU,
    SIGMA,
    TAU,
    VPLUS_BASIS,
    VMINUS_BASIS,
    build_heisenberg,
    conjugacy_classes_g7,
    conjugacy_classes_sl2,
    delta_dense,
    dense_det,
    dense_eq,
    dense_mul,
    dense_trace,
    g7_elements,
    restrict_to_span,
    restriction_matrices,
    scalar_mono,
    sl2_elements,
    sl2_inv,
    sl2_mul,
    verify_normalizer_relations,
)


def test_monomial_matrices_match_dense():
    rng = random.Random(31)
    els = g7_elements()
    for _ in range(200):
        x, y = rng.choice(els), rng.choice(els)
        lhs = (x.matrix() * y.matrix()).dense()
        rhs = dense_mul(x.matrix().dense(), y.matrix().dense())
        assert dense_eq(lhs, rhs)


def test_commutation():
    # with the index-raising shift: tau sigma = z sigma tau
    assert TAU * SIGMA == scalar_mono(1) * (SIGMA * TAU)


def test_group_law_sampled():
    rng = random.Random(8)
    els = g7_elements()
    for _ in range(3000):
        x, y = rng.choice(els), rng.choice(els)
        assert (x * y).matrix() == x.matrix() * y.matrix()
    for g in els:
        assert g * g.inv() == HElem(0, 0, 0, 0)


def test_build_heisenberg_orders():
    _, _, stats = build_heisenberg()
    assert stats["pairs_checked"] == 686 * 686 == 470596
    assert stats["order_h7"] == 343
    assert stats["order_g7"] == 686


def test_build_heisenberg_rejects_a_wrong_cocycle(monkeypatch):
    real = heisenberg._law

    def opposite_cocycle(a1, m1, n1, b1, a2, m2, n2, b2):
        # exponent 4(m n' - m' n) instead of the printed 3(m n' - m' n)
        a, m, n, b = real(a1, m1, n1, b1, a2, m2, n2, b2)
        return (a + (m1 * n2 - m2 * n1)) % 7, m, n, b

    monkeypatch.setattr(heisenberg, "_law", opposite_cocycle)
    with pytest.raises(GroupLawError, match="law mismatch"):
        build_heisenberg()


def test_normalizer_relations():
    rels = verify_normalizer_relations()
    assert all(rels.values()), [k for k, v in rels.items() if not v]


def test_delta_square_and_determinants():
    d = delta_dense()
    assert dense_eq(dense_mul(d, d), IOTA.dense())
    assert dense_det(d) == Cyc7.from_int(1)
    for m in (SIGMA, TAU, IOTA, MU, NU):
        assert m.det() == Cyc7.from_int(1)
    assert dense_trace(IOTA.dense()) == Cyc7.from_int(-1)


def test_g7_classes():
    cd = conjugacy_classes_g7()
    assert cd.count == 38
    assert sorted(cd.sizes) == [1] * 7 + [14] * 24 + [49] * 7
    assert cd.group_order() == 686
    ci = cd.index_of[HElem(0, 0, 0, 1)]
    assert cd.sizes[ci] == 49


def test_sl2_classes():
    cd = conjugacy_classes_sl2()
    assert cd.sizes == (1, 1, 56, 56, 24, 24, 24, 24, 42, 42, 42)
    assert cd.group_order() == 336
    assert len(sl2_elements()) == 336
    m = (2, 2, 5, 2)
    assert sl2_mul(m, sl2_inv(m)) == (1, 0, 0, 1)


def test_restriction_matrices():
    rm = restriction_matrices()
    c0, c1 = Cyc7.from_int(0), Cyc7.from_int(1)
    assert rm["nu+"] == [[zeta(1), c0, c0], [c0, zeta(2), c0], [c0, c0, zeta(4)]]
    assert rm["mu+"] == [[c0, c0, c1], [c1, c0, c0], [c0, c1, c0]]
    assert rm["mu-"] == [
        [c1, c0, c0, c0],
        [c0, c0, c0, c1],
        [c0, c1, c0, c0],
        [c0, c0, c1, c0],
    ]
    isq7 = gauss_sum() * Cyc7.from_rat(Fraction(1, 7))
    assert rm["delta+"][0][0] == isq7 * lam(1)
    # doubling-map restriction is the transpose of the displayed matrix
    mt = restrict_to_span(MU, VPLUS_BASIS)
    assert mt == [[c0, c1, c0], [c0, c0, c1], [c1, c0, c0]]


def test_restrict_rejects_unstable_span():
    with pytest.raises(ValueError):
        restrict_to_span(SIGMA, VPLUS_BASIS)


def test_eigenspaces_are_iota_eigen():
    iota = IOTA.dense().tolist()
    for vec, sign in [(VPLUS_BASIS, 1), (VMINUS_BASIS, -1)]:
        for v in vec:
            img = [Cyc7.from_int(0)] * 7
            for i in range(7):
                for j in range(7):
                    if not iota[i][j].is_zero():
                        img[i] = img[i] + iota[i][j] * Cyc7.from_int(v[j])
            assert img == [Cyc7.from_int(sign * x) for x in v]
