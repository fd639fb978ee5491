import random
import re
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
    g7_elements,
    restrict_to_span,
    restriction_matrices,
    sl2_elements,
    sl2_inv,
    sl2_mul,
    verify_normalizer_relations,
)
from heis7.moduli import d_vector
from heis7.poly import REG_X, Poly

from oracles import (
    CYC,
    dense_mul_oracle,
    g7_classes_oracle,
    mono_dense_oracle,
    phase_sum,
    sl2_classes_oracle,
    substitution_images,
)


def _dense(mats):
    """The dense matrices of a list of MonoMat, one at a time."""
    return CycArray.stack([g.dense() for g in mats])


def test_monomial_matrices_match_dense():
    # HElem(a, m, n, b).matrix() is z^(a+4mn) sigma^m tau^n iota^b as a
    # product of dense generator powers, and dense() agrees with the
    # nested-list oracle
    rng = random.Random(31)
    s, t, io = SIGMA.dense(), TAU.dense(), IOTA.dense()
    one = HElem(0, 0, 0, 0).matrix().dense()
    for g in rng.sample(g7_elements(), 200):
        want = one * zeta(g.a + 4 * g.m * g.n)
        for gen, k in ((s, g.m), (t, g.n), (io, g.b)):
            for _ in range(k):
                want = want @ gen
        assert g.matrix().dense() == want, g
        assert g.matrix().dense().tolist() == mono_dense_oracle(g.matrix()), g


def test_commutation():
    # with the index-raising shift: tau sigma = z sigma tau
    assert TAU.dense() @ SIGMA.dense() == HElem(1, 0, 0, 0).matrix().dense() @ (SIGMA.dense() @ TAU.dense())


def test_group_law_sampled():
    rng = random.Random(8)
    els = g7_elements()
    pairs = [(rng.choice(els), rng.choice(els)) for _ in range(3000)]
    xs, ys = (_dense([g.matrix() for g in col]) for col in zip(*pairs))
    assert _dense([(x * y).matrix() for x, y in pairs]) == xs @ ys


def test_inverse_and_exponent():
    # over all of G7: the closed-form inverse, and exponent 14
    one = HElem(0, 0, 0, 0)
    for g in g7_elements():
        assert g * g.inv() == one == g.inv() * g, g
        power = one
        for _ in range(14):
            power = power * g
        assert power == one, g


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


def test_build_heisenberg_checks_every_pair(monkeypatch):
    # a law that is wrong at the last ordered pair only is caught there
    real = heisenberg._law
    last = HElem(6, 6, 6, 1)

    def wrong_at_last(a1, m1, n1, b1, a2, m2, n2, b2):
        a, m, n, b = real(a1, m1, n1, b1, a2, m2, n2, b2)
        hit = (a1 == 6) & (m1 == 6) & (n1 == 6) & (b1 == 1) & (a2 == 6) & (m2 == 6) & (n2 == 6) & (b2 == 1)
        return (a + hit) % 7, m, n, b

    monkeypatch.setattr(heisenberg, "_law", wrong_at_last)
    with pytest.raises(GroupLawError, match=rf"law mismatch at {re.escape(repr(last))} \* {re.escape(repr(last))}$"):
        build_heisenberg()


def test_build_heisenberg_rejects_a_flipped_phase(monkeypatch):
    # one element's compact matrix with one entry's zeta power moved
    real = HElem.matrix
    target = HElem(3, 2, 5, 1)

    def flipped(g):
        mat = real(g)
        if g != target:
            return mat
        pw = list(mat.pw)
        pw[4] = (pw[4] + 1) % 7
        return mat._replace(pw=tuple(pw))

    monkeypatch.setattr(HElem, "matrix", flipped)
    with pytest.raises(GroupLawError, match=r"compact matrix encoding disagrees with dense product at HElem\(a=3, m=2, n=5, b=1\)"):
        build_heisenberg()


@pytest.mark.parametrize("seed", range(3))
def test_build_heisenberg_rejects_a_corrupted_compact_product(monkeypatch, seed):
    # one entry of the column-code composition table gets the opposite sign
    rng = random.Random(seed)
    code, twist = rng.randrange(98), rng.randrange(14)
    table = heisenberg._COMPOSE.copy()
    entry = int(table[code, twist])
    table[code, twist] = entry - 7 if entry // 7 % 2 else entry + 7
    monkeypatch.setattr(heisenberg, "_COMPOSE", table)
    with pytest.raises(GroupLawError, match="compact product disagrees with dense product"):
        build_heisenberg()


def test_build_heisenberg_rejects_a_wrong_closure_order(monkeypatch):
    # mu normalizes H7 with order 3, so sigma, tau, mu generate 3 * 343 elements
    monkeypatch.setattr(heisenberg, "CLOSURES", (("sigma, tau, mu", (SIGMA, TAU, MU), 343),))
    with pytest.raises(GroupLawError, match="matrix group generated by sigma, tau, mu has order 1029"):
        build_heisenberg()


def test_compose_matches_monomial_products():
    rng = random.Random(12)
    mats = [g.matrix() for g in g7_elements()] + [MU, NU, HElem(5, 0, 0, 0).matrix()]
    pairs = [(rng.choice(mats), rng.choice(mats)) for _ in range(300)]
    xs, ys = (heisenberg._codes(col) for col in zip(*pairs))
    dense = _dense([x for x, _ in pairs]) @ _dense([y for _, y in pairs])
    assert heisenberg._code_dense(heisenberg._compose(xs, ys)) == dense


def test_conj_is_the_inverse_transpose():
    # conj(g)^T g = I for all 686 elements, on nested lists of Cyc7: the
    # substitution of g.conj() is the contragredient action
    one, zero = Cyc7.from_int(1), Cyc7.from_int(0)
    eye = [[one if i == j else zero for j in range(7)] for i in range(7)]
    for h in g7_elements():
        g = h.matrix()
        conj_t = [list(col) for col in zip(*mono_dense_oracle(g.conj()))]
        assert dense_mul_oracle(conj_t, mono_dense_oracle(g)) == eye, h


def test_coordinate_action_images():
    # the module docstring's action: sigma and iota pull x_j back to x_{j-1}
    # and -x_{-j}, and tau acts contragrediently by x_j -> z^-j x_j
    def x(j, c=1):
        return {tuple(int(k == j % 7) for k in range(7)): c}

    for j in range(7):
        assert SIGMA.inv().act(x(j)) == [x(j - 1)] + [{}] * 6
        assert IOTA.act(x(j)) == [x(-j, -1)] + [{}] * 6
        assert TAU.conj().act(x(j)) == [x(j) if m == -j % 7 else {} for m in range(7)]
    # for every element, the phase parts of the image of each coordinate and
    # each invariant cubic sum to the oracle's substitution over Q(z7)
    polys = [Poly.var(REG_X, f"x{j}") for j in range(7)] + d_vector()
    lifted = [p.map_coeffs(CYC.coerce, CYC) for p in polys]
    for h in g7_elements():
        g = h.matrix()
        images = substitution_images(*g)
        for p, q in zip(polys, lifted):
            assert phase_sum(g.act(p.terms)) == q.substitute(images), (h, p)


def test_normalizer_relations():
    rels = verify_normalizer_relations()
    assert all(rels.values()), [k for k, v in rels.items() if not v]


def test_normalizer_relations_name_the_failing_one(monkeypatch):
    # z delta conjugates like delta and has det z^7 = 1, but squares to
    # z^2 iota: exactly one verdict turns False
    delta = delta_dense()
    monkeypatch.setattr(heisenberg, "delta_dense", lambda: delta * zeta(1))
    rels = verify_normalizer_relations()
    assert [k for k, v in rels.items() if not v] == ["delta^2 = iota"]
    assert len(rels) == 15


def test_delta_square_and_determinants():
    d = delta_dense()
    assert d @ d == IOTA.dense()
    assert dense_det(d) == Cyc7.from_int(1)
    gens = _dense([SIGMA, TAU, IOTA, MU, NU])
    # delta mixes every coordinate, and has det 1
    assert dense_det(gens) == dense_det(d @ gens) == [Cyc7.from_int(1)] * 5
    assert IOTA.dense().trace().tolist() == Cyc7.from_int(-1)


def test_dense_det_against_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(78)
    mats = [[[rng.randrange(-4, 5) for _ in range(7)] for _ in range(7)] for _ in range(6)]
    singular = mats[0][:6] + [[x + y for x, y in zip(mats[0][0], mats[0][1])]]
    wants = [Cyc7.from_int(int(sympy.Matrix(m).det())) for m in mats + [singular]]
    for m, want in zip(mats + [singular], wants):
        assert dense_det(CycArray.from_ints(np.array(m))) == want
    assert wants[-1] == Cyc7.from_int(0)
    # a batch gives the list of its determinants
    assert dense_det(CycArray.from_ints(np.array(mats + [singular]))) == wants


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


@pytest.mark.parametrize(
    "build, oracle",
    [(conjugacy_classes_g7, g7_classes_oracle), (conjugacy_classes_sl2, sl2_classes_oracle)],
    ids=["g7", "sl2"],
)
def test_class_data_against_oracle(build, oracle):
    got, want = build(), oracle()
    assert got.labels == want.labels
    assert got.reps == want.reps
    assert got.sizes == want.sizes
    assert got.index_of == want.index_of


def test_g7_classes_need_iota(monkeypatch):
    # conjugation by sigma and tau alone splits the classes iota fuses
    monkeypatch.setattr(heisenberg, "G7_CONJUGATORS", heisenberg.G7_CONJUGATORS[:2])
    assert conjugacy_classes_g7().count != 38


def test_g7_classes_make_few_helem_products(monkeypatch):
    # the classes are orbits of index permutations read off the law on int
    # tuples: a handful of HElem products, not several per element
    calls = {"__mul__": 0, "inv": 0}

    def counted(name):
        fn = getattr(HElem, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(HElem, name, counted(name))
    assert conjugacy_classes_g7().count == 38
    assert calls["__mul__"] <= 64 and calls["inv"] <= 64, calls


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
    mt = restrict_to_span(MU.dense(), VPLUS_BASIS)
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

    mats = {"mu^-1": MU.inv().dense(), "nu": NU.dense(), "delta": delta_dense(), "mu": MU.dense()}
    bases = {"V+": VPLUS_BASIS, "V-": VMINUS_BASIS, "Klein": KLEIN_VBASIS}
    for (m, b), rows in PINNED_RESTRICTIONS.items():
        want = [[parse_cyc(x) for x in row] for row in rows]
        assert restrict_to_span(mats[m], bases[b]) == want, (m, b)


def test_restrict_rejects_unstable_span():
    with pytest.raises(ValueError):
        restrict_to_span(SIGMA.dense(), VPLUS_BASIS)


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
