import random
from fractions import Fraction

import numpy as np
import pytest

from heis7 import heisenberg
from heis7.field import Cyc7, CycArray, gauss_sum, lam, parse_cyc, zeta
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


def test_dense_det_matches_monomial_det():
    rng = random.Random(77)
    gens = [SIGMA, TAU, IOTA, MU, NU, scalar_mono(3)]
    delta = delta_dense()
    for _ in range(20):
        m = scalar_mono(0)
        for _ in range(rng.randrange(1, 6)):
            m = m * rng.choice(gens)
        assert dense_det(m) == m.det()
        assert dense_det(m.dense()) == m.det()
        # det delta = 1, and delta mixes every coordinate
        assert dense_det(dense_mul(delta, m)) == m.det()


def test_dense_det_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(78)
    mats = [[[rng.randrange(-4, 5) for _ in range(7)] for _ in range(7)] for _ in range(6)]
    singular = mats[0][:6] + [[x + y for x, y in zip(mats[0][0], mats[0][1])]]
    for m in mats + [singular]:
        want = int(sympy.Matrix(m).det())
        assert dense_det(CycArray.from_ints(np.array(m))) == Cyc7.from_int(want)
    assert int(sympy.Matrix(singular).det()) == 0


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


# Restrictions of mu^-1, nu, delta and mu to V+, V- and the Klein plane,
# pinned as rendered Q(zeta7) entries: A..C and D..G are the entries of delta
_A = "-1/7 + 3/7*z^2 + 1/7*z^3 + 1/7*z^4 + 3/7*z^5"
_B = "-4/7 - 2/7*z^2 - 3/7*z^3 - 3/7*z^4 - 2/7*z^5"
_C = "-2/7 - 1/7*z^2 + 2/7*z^3 + 2/7*z^4 - 1/7*z^5"
_D = "1/7 + 2/7*z + 2/7*z^2 + 2/7*z^4"
_D2 = "2/7 + 4/7*z + 4/7*z^2 + 4/7*z^4"
_E = "1/7 + 2/7*z + 1/7*z^2 + 3/7*z^3 - 1/7*z^4 + 1/7*z^5"
_F = "-2/7*z^2 - 1/7*z^3 + 1/7*z^4 + 2/7*z^5"
_G = "-2/7 - 4/7*z - 1/7*z^2 - 2/7*z^3 - 2/7*z^4 - 3/7*z^5"
PINNED_RESTRICTIONS = {
    ("mu^-1", "V+"): ["001", "100", "010"],
    ("mu^-1", "V-"): ["1000", "0001", "0100", "0010"],
    ("mu^-1", "Klein"): ["010", "001", "100"],
    ("nu", "V+"): [["z", "0", "0"], ["0", "z^2", "0"], ["0", "0", "z^4"]],
    ("nu", "V-"): [["1", "0", "0", "0"], ["0", "z", "0", "0"], ["0", "0", "z^2", "0"], ["0", "0", "0", "z^4"]],
    ("nu", "Klein"): [["z", "0", "0"], ["0", "z^4", "0"], ["0", "0", "z^2"]],
    ("delta", "V+"): [[_A, _B, _C], [_B, _C, _A], [_C, _A, _B]],
    ("delta", "V-"): [[_D, _D, _D, _D], [_D2, _E, _F, _G], [_D2, _F, _G, _E], [_D2, _G, _E, _F]],
    ("delta", "Klein"): [[_A, _C, _B], [_C, _B, _A], [_B, _A, _C]],
    ("mu", "V+"): ["010", "001", "100"],
    ("mu", "V-"): ["1000", "0010", "0001", "0100"],
    ("mu", "Klein"): ["001", "100", "010"],
}


def test_restrictions_match_pinned_values():
    from heis7.moduli import KLEIN_VBASIS

    mats = {"mu^-1": MU.inv(), "nu": NU, "delta": delta_dense(), "mu": MU}
    bases = {"V+": VPLUS_BASIS, "V-": VMINUS_BASIS, "Klein": KLEIN_VBASIS}
    for (m, b), rows in PINNED_RESTRICTIONS.items():
        want = [[parse_cyc(x) for x in row] for row in rows]
        assert restrict_to_span(mats[m], bases[b]) == want, (m, b)


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
