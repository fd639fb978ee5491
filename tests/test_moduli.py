import dataclasses
import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from heis7 import moduli
from heis7.field import QQ, CycArray, fp
from heis7.heisenberg import IOTA, MU, NU, SIGMA, TAU, HElem, MonoMat, delta_dense, restrict_to_span
from heis7.linalg import rank
from heis7.moduli import (
    AlphaMatrix,
    DegenerateParameter,
    Wedge3,
    alpha_compose,
    alpha_compose_is_zero,
    _lin_coeffs,
    alpha_t,
    block_ranks,
    composition_table_report,
    composition_tensor,
    compose_u,
    d_vector,
    delta_criterion,
    delta_ops,
    epsilon_identity_report,
    equational_point,
    eta_klein,
    f_basis,
    grass_membership,
    klein_invariance_report,
    KLEIN_VBASIS,
    QUARTIC_LATTICE,
    klein_quartic,
    minor_rows,
    minor_span_pairing,
    net_discriminant,
    net_discriminant_ratio,
    net_matrices,
    pfaffian_apolarity_report,
    printed_b_matrices,
    psi,
    quartic_invariant_under,
    span_certificate,
    surface_ideal,
    wedge_reps,
    GrassPoint,
)
from heis7.poly import REG_U, REG_X, DiffOp, Poly, coefficient_rows, linear_form, monomial_basis, parse_poly, render_poly

from oracles import (
    CYC,
    SpanSolverOracle,
    alpha_compose_forms,
    bad_prime_by_cubic_rank,
    delta_criterion_forms,
    delta_values,
    quartic_invariant_oracle,
    substitution_images,
)


def test_wedge_rep_entries():
    reps, comp = wedge_reps()
    assert reps[1].entries[0] == Wedge3.term(0, 1, 6)
    assert reps[2].entries[0] == Wedge3.term(0, 2, 5)
    assert reps[3].entries[0] == Wedge3.term(0, 4, 3)
    assert reps[0].entries[0] == Wedge3.term(1, 4, 2) + (-Wedge3.term(6, 3, 5))
    assert all(r.check_shift_consistency() for r in reps.values())
    assert comp[0] == Wedge3.term(1, 4, 2) + Wedge3.term(6, 3, 5)


def test_composition_matrices():
    assert composition_table_report() == []
    b1, _, _ = printed_b_matrices()
    assert render_poly(b1[0, 1]) == "x4"
    assert render_poly(b1[0, 6]) == "-x3"
    assert compose_u(1, 2).is_zero()
    assert compose_u(0, 0).is_zero()


def test_displayed_matrices_rank_six_at_probe():
    from heis7.moduli import PROBE_POINT

    for b in printed_b_matrices():
        assert rank(b.evaluate(PROBE_POINT)) == 6


def test_block_rank_probe():
    assert rank(minor_rows(alpha_t((1, 1, 1, 1)))) == 3
    assert block_ranks((1, 2, 3, 5)) == [6, 6, 6, 6]
    dep = AlphaMatrix.from_coeffs(
        [[[1, 0, 0, 0], [0, 1, 0, 0]], [[1, 0, 0, 0], [0, 1, 0, 0]], [[0, 0, 0, 0], [0, 0, 0, 0]]]
    )
    assert rank(minor_rows(dep)) < 3


def _form_block_ranks(l_coeffs):
    # the four combinations as FormMatrix sums, evaluated one by one
    b1, b2, b3 = printed_b_matrices()
    l0, l1, l2, l3 = [Fraction(x) for x in l_coeffs]
    combos = [
        b1.scale(l1) + b2.scale(l2) + b3.scale(l3),
        b1.scale(l0) - b3.scale(l1),
        b2.scale(l0) - b1.scale(l2),
        b3.scale(l0) - b2.scale(l3),
    ]
    return [0 if m.is_zero() else rank(m.evaluate(moduli.PROBE_POINT)) for m in combos]


def test_block_ranks_equal_the_form_matrix_combinations():
    # l = (1, 0, 0, 0) makes the first combination the zero form, and
    # (0, 1, 0, 0) the last two; evaluation at the probe point is linear
    rng = random.Random(5)
    ls = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0)] + [
        tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)) for _ in range(8)
    ]
    assert block_ranks((1, 0, 0, 0))[0] == 0 and block_ranks((0, 0, 0, 0)) == [0] * 4
    for l in ls:
        assert block_ranks(l) == _form_block_ranks(l), l


def test_delta_criterion_cases():
    # a single minor with the mixed term but no compensating square fails
    a = AlphaMatrix.from_coeffs(
        [[[1, 0, 0, 0], [0, 0, 0, 0]], [[0, 0, 0, 0], [0, 1, 0, 0]], [[0, 0, 0, 0], [0, 0, 0, 0]]]
    )
    assert not delta_criterion(a)  # minor u0*u1 alone
    z = AlphaMatrix.from_coeffs([[[0] * 4] * 2] * 3)
    assert delta_criterion(z)
    assert alpha_compose_is_zero(alpha_compose(z))


def test_pure_square_matrix_composes_to_zero():
    # rows (u0, 0), (0, u0), (0, 0): the only minor is the pure square,
    # whose self-composition vanishes, and the operators kill it too
    a = AlphaMatrix.from_coeffs(
        [[[1, 0, 0, 0], [0, 0, 0, 0]], [[0, 0, 0, 0], [1, 0, 0, 0]], [[0] * 4, [0] * 4]]
    )
    assert alpha_compose_is_zero(alpha_compose(a))
    assert delta_criterion(a)


def test_equivalence_on_seeded_matrices():
    rng = random.Random(42)
    for _ in range(200):
        coeffs = [
            [[Fraction(rng.randint(-5, 5)) for _ in range(4)] for _ in range(2)]
            for _ in range(3)
        ]
        a = AlphaMatrix.from_coeffs(coeffs)
        assert alpha_compose_is_zero(alpha_compose(a)) == delta_criterion(a)


def _entries_of_forms(blocks):
    """{(r, s, row, col, var): coefficient} of a 3x3 array of form matrices."""
    out = {}
    for r in range(3):
        for s in range(3):
            for row in range(7):
                for col in range(7):
                    for e, c in blocks[r][s][row, col].terms.items():
                        out[(r, s, row, col, e.index(1))] = c
    return out


def _composition_blocks(comp):
    """blocks[r][s]: block (r, s) of comp as a dict {(row, col, var):
    numerator} of Python ints, with no zero values."""
    rows = [{k: v for k, v in zip(comp.keys, row) if v} for row in comp.nums.tolist()]
    return [rows[3 * r : 3 * r + 3] for r in range(3)]


def _entries_of_composition(comp):
    blocks = _composition_blocks(comp)
    return {
        (r, s) + key: Fraction(v, comp.den)
        for r in range(3)
        for s in range(3)
        for key, v in blocks[r][s].items()
    }


def test_alpha_compose_matches_form_matrix_expansion():
    rng = random.Random(7)
    alphas = [AlphaMatrix.from_coeffs([[[0] * 4] * 2] * 3)]
    for _ in range(40):
        coeffs = [
            [[Fraction(rng.randint(-5, 5)) for _ in range(4)] for _ in range(2)]
            for _ in range(3)
        ]
        alphas.append(AlphaMatrix.from_coeffs(coeffs))
    # family points with denominators around 10^12
    e12 = 10**12
    for t in [
        (1, 1, 1, 1),
        (Fraction(e12 + 39, e12 - 11), Fraction(-3, e12 + 7), Fraction(7, e12 + 1), 3),
        (Fraction(-1, e12 + 61), 2, Fraction(e12 - 17, e12 + 3), Fraction(-5, e12 - 59)),
    ]:
        alphas.append(alpha_t(t))
    # a rational non-family matrix, so the contraction is tested off zero too
    alphas.append(
        AlphaMatrix.from_coeffs(
            [
                [[Fraction(1, 999983), 0, 2, 0], [0, Fraction(-3, 1000003), 0, 1]],
                [[0, 1, Fraction(5, 999979), 0], [Fraction(7, 11), 0, 0, -1]],
                [[1, 0, 0, Fraction(2, 1000037)], [0, 0, 1, 0]],
            ]
        )
    )
    assert max(alpha_compose(a).den for a in alphas) > 10**48
    nonzero = 0
    for a in alphas:
        comp = alpha_compose(a)
        assert all(isinstance(v, int) for row in _composition_blocks(comp) for b in row for v in b.values())
        want = _entries_of_forms(alpha_compose_forms(a))
        assert _entries_of_composition(comp) == want
        assert alpha_compose_is_zero(comp) == (not want)
        nonzero += bool(want)
    assert 0 < nonzero < len(alphas)


def test_composition_tensor_is_read_from_compose_u(monkeypatch):
    tensor = composition_tensor()
    assert [kl for kl, _ in tensor] == [
        (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (2, 0), (2, 2), (3, 0), (3, 3)
    ]
    assert sum(len(entries) for _, entries in tensor) == 126
    half = compose_u(0, 1).scale(Fraction(1, 2))
    monkeypatch.setattr(moduli, "compose_u", lambda k, l: half)
    composition_tensor.cache_clear()
    try:
        with pytest.raises(ValueError, match="not an integer linear form"):
            composition_tensor()
    finally:
        composition_tensor.cache_clear()


def test_lin_coeffs_rejects_nonlinear_entries():
    assert _lin_coeffs(parse_poly("2*u0 - u3", REG_U)) == [2, 0, 0, -1]
    u0 = parse_poly("u0", REG_U)
    for bad in ("u0*u1 + u2", "u0^3", "u1 + 1"):
        with pytest.raises(ValueError, match="not a linear form"):
            _lin_coeffs(parse_poly(bad, REG_U))
        # the matrix is refused when it is built, so no criterion ever
        # meets the entry
        with pytest.raises(ValueError, match="not a linear form"):
            AlphaMatrix.from_entries([[u0, u0], [u0, parse_poly(bad, REG_U)], [u0, u0]])


def test_alpha_entries_outside_q_are_refused():
    # over F31 all three minors vanish (16 * 2 - 1 = 31), while the same
    # residues read as integers do not compose to zero: refuse when the
    # matrix is built, do not guess
    f31 = fp(31)
    u1 = Poly.var(REG_U, "u1", f31)
    zero = Poly.zero(REG_U, f31)
    e = [[u1.scale(16), u1], [u1, u1.scale(2)], [zero, zero]]
    assert all((e[r][0] * e[s][1] - e[r][1] * e[s][0]).is_zero() for r, s in ((0, 1), (0, 2), (1, 2)))
    with pytest.raises(ValueError, match="is over F31, not Q"):
        AlphaMatrix.from_entries(e)
    # one entry over F31 among entries over Q is refused too
    u0 = parse_poly("u0", REG_U)
    with pytest.raises(ValueError, match="is over F31, not Q"):
        AlphaMatrix.from_entries([[u0, u0], [u0, u0], [u0, u1]])


def _alpha_of(flat):
    """The alpha matrix of 24 coefficients, entry (r, c) holding flat[8r + 4c:][:4]."""
    return AlphaMatrix.from_coeffs(
        [[flat[8 * r + 4 * c : 8 * r + 4 * c + 4] for c in range(2)] for r in range(3)]
    )


_COEFF = st.one_of(
    st.integers(-5, 5), st.fractions(min_value=-5, max_value=5, max_denominator=12)
)


@seed(1717)
@settings(max_examples=60, deadline=None)
@given(st.lists(_COEFF, min_size=24, max_size=24))
@example([0] * 24)
def test_delta_values_match_the_poly_oracle(flat):
    alpha = _alpha_of(flat)
    want = delta_criterion_forms(alpha)
    assert delta_values(alpha) == want
    assert delta_criterion(alpha) == (not any(v for row in want for v in row))
    den = alpha.contraction[1]
    minors = coefficient_rows(alpha.minors(), monomial_basis(REG_U, 2))
    assert minor_rows(alpha) == [[c * den for c in row] for row in minors]


_E12 = 10**12
_NEAR_E12 = st.integers(_E12 - 100, _E12 + 100)


@seed(1718)
@settings(max_examples=8, deadline=None)
@given(st.lists(st.tuples(st.integers(-_E12, _E12).filter(bool), _NEAR_E12), min_size=4, max_size=4))
def test_delta_values_match_the_poly_oracle_on_wide_family_points(parts):
    alpha = alpha_t([Fraction(n, d) for n, d in parts])
    # denominators near 10^12 overflow int64, so the contraction runs on
    # Python ints
    contraction, _ = alpha.contraction
    assert contraction.dtype == object
    want = delta_criterion_forms(alpha)
    assert want == [[0] * 3] * 3
    assert delta_values(alpha) == want
    assert delta_criterion(alpha) and alpha_compose_is_zero(alpha_compose(alpha))


@pytest.mark.parametrize(
    "coeffs, shape",
    [
        ([1, 2, 3], "shape (3,)"),
        ([1, 2, 3, 4, 5], "shape (5,)"),
        ([[[0] * 4] * 2] * 4, "shape (4, 2, 4)"),
        ([[[0] * 4] * 3] * 3, "shape (3, 3, 4)"),
        ([[[0] * 4] * 2] * 2 + [[[0] * 4, [0] * 3]], "a ragged shape"),
        ([[[[0]] * 4] * 2] * 3, "shape (3, 2, 4, 1)"),
        (7, "shape ()"),
    ],
    ids=["3-vector", "5-vector", "4th-row", "3rd-column", "ragged", "nested-too-deep", "scalar"],
)
def test_from_coeffs_refuses_other_shapes(coeffs, shape):
    # each was read silently (a 3-vector as u0 + 2 u1 + 3 u2, an extra row
    # or column dropped) or failed with a bare IndexError
    with pytest.raises(ValueError, match=re.escape(f"alpha coefficients have {shape}, not shape (3, 2, 4)")):
        AlphaMatrix.from_coeffs(coeffs)


def test_from_coeffs_takes_what_qq_coerce_takes():
    # every value Fraction reads is read as that Fraction, and every value it
    # refuses is refused the same way; an integer array reads as its list
    values = [3, Fraction(-5, 6), "7/4", 0.375, Decimal("-1.25"), True, "0"]
    flat = [values[i % len(values)] for i in range(24)]
    want = _alpha_of([Fraction(v) for v in flat])
    assert _alpha_of(flat) == want and _alpha_of(tuple(flat)) == want
    assert want.den == 24 and want.nums[:4] == (72, -20, 42, 9)
    ints = np.arange(-12, 12).reshape(3, 2, 4)
    assert AlphaMatrix.from_coeffs(ints) == AlphaMatrix.from_coeffs(ints.tolist())
    # int64 entries near 2^31 give a bound past 2^62: the lift holds Python
    # ints, so the bound and the contraction are those of the list
    big = np.array([(-1) ** i * (2**31 - 7 * i) for i in range(24)], dtype=np.int64).reshape(3, 2, 4)
    from_array = AlphaMatrix.from_coeffs(big)
    assert {type(n) for n in from_array.nums} == {int} and type(from_array.den) is int
    _assert_same_lift(from_array, AlphaMatrix.from_coeffs(big.tolist()))
    assert from_array.contraction[0].dtype == object
    with pytest.raises(ValueError, match=re.escape("have shape (4, 2, 3), not")):
        AlphaMatrix.from_coeffs(np.zeros((4, 2, 3)))
    for bad in ("u0", None, 1j, float("nan")):
        with pytest.raises((TypeError, ValueError)) as refused:
            QQ.coerce(bad)
        with pytest.raises(refused.type):
            _alpha_of([bad] + [0] * 23)


def test_annihilation_from_coefficients_builds_no_poly(monkeypatch):
    # from_coeffs lifts the rationals directly, and both criteria read the
    # lift: after one warm call (which builds the tables), no Poly is made
    rng = random.Random(19)
    coeffs = [[[[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(4)] for _ in range(2)] for _ in range(3)] for _ in range(20)]
    delta_criterion(AlphaMatrix.from_coeffs(coeffs[0]))
    made = []
    real = Poly.__init__
    monkeypatch.setattr(Poly, "__init__", lambda self, *args, **kwargs: made.append(1) or real(self, *args, **kwargs))
    assert Poly.zero(REG_U, QQ).is_zero() and made == [1]
    made.clear()
    verdicts = []
    for c in coeffs + [[[[0] * 4] * 2] * 3]:
        alpha = AlphaMatrix.from_coeffs(c)
        verdicts.append((alpha_compose_is_zero(alpha_compose(alpha)), delta_criterion(alpha)))
    assert made == [] and all(x == y for x, y in verdicts) and verdicts[-1] == (True, True)


def _assert_same_lift(a, b):
    assert (a.nums, a.den) == (b.nums, b.den) and a == b
    (na, da), (nb, db) = a.contraction, b.contraction
    assert da == db and na.dtype == nb.dtype and na.tolist() == nb.tolist()


@seed(1719)
@settings(max_examples=40, deadline=None)
@given(st.lists(_COEFF, min_size=24, max_size=24))
@example([0] * 24)
@example(list(range(-12, 12)))
def test_lifts_from_coefficients_and_from_entries_agree(flat):
    coeffs = [[flat[8 * r + 4 * c : 8 * r + 4 * c + 4] for c in range(2)] for r in range(3)]
    forms = [[linear_form(REG_U, v) for v in row] for row in coeffs]
    a, b = AlphaMatrix.from_coeffs(coeffs), AlphaMatrix.from_entries(forms)
    _assert_same_lift(a, b)
    assert a.entries == forms


@seed(1720)
@settings(max_examples=6, deadline=None)
@given(st.lists(st.tuples(st.integers(-_E12, _E12).filter(bool), _NEAR_E12), min_size=4, max_size=4))
def test_lifts_agree_at_wide_family_points(parts):
    # alpha_t lifts its Poly entries; lifting their coefficients again
    # gives the same lift, on Python ints past the int64 bound
    alpha = alpha_t([Fraction(n, d) for n, d in parts])
    coeffs = [[_lin_coeffs(p) for p in row] for row in alpha.entries]
    _assert_same_lift(AlphaMatrix.from_coeffs(coeffs), alpha)
    assert alpha.contraction[0].dtype == object and alpha.den > 10**24


def test_delta_values_equal_a_sympy_expansion():
    # the nine values are quadratic forms in the 24 coefficients of alpha;
    # their coefficients, read off by polarization (at e_i and e_i + e_j),
    # equal those of a sympy expansion of d_j applied to the minors
    sympy = pytest.importorskip("sympy")
    a = sympy.symbols("a0:24")
    u0, u1, u2, u3 = u = sympy.symbols("u0:4")
    half = sympy.Rational(1, 2)
    ops = [
        lambda f: sympy.diff(f, u0, u1) - half * sympy.diff(f, u2, 2),
        lambda f: sympy.diff(f, u0, u2) - half * sympy.diff(f, u3, 2),
        lambda f: sympy.diff(f, u0, u3) - half * sympy.diff(f, u1, 2),
    ]
    entry = [[sum(a[8 * r + 4 * c + k] * u[k] for k in range(4)) for c in range(2)] for r in range(3)]
    want = [
        [sympy.Poly(sympy.expand(op(entry[r][0] * entry[s][1] - entry[r][1] * entry[s][0])), *a) for op in ops]
        for r, s in ((0, 1), (0, 2), (1, 2))
    ]

    def values(*ones):
        flat = [0] * 24
        for i in ones:
            flat[i] += 1
        return delta_values(_alpha_of(flat))

    square = [values(i) for i in range(24)]
    for m in range(3):
        for j in range(3):
            got = {}
            for i in range(24):
                e = [0] * 24
                e[i] = 2
                got[tuple(e)] = square[i][m][j]
                for k in range(i + 1, 24):
                    e = [0] * 24
                    e[i] = e[k] = 1
                    got[tuple(e)] = values(i, k)[m][j] - square[i][m][j] - square[k][m][j]
            assert {e: c for e, c in got.items() if c} == {e: Fraction(int(c.p), int(c.q)) for e, c in want[m][j].terms()}
    rng = random.Random(3)
    for _ in range(5):
        flat = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(24)]
        point = dict(zip(a, map(sympy.Rational, flat)))
        assert delta_values(_alpha_of(flat)) == [
            [Fraction(str(w.as_expr().subs(point))) for w in row] for row in want
        ]


def test_pairing_is_read_from_delta_ops(monkeypatch):
    # each alpha keeps the contraction it was first read through, so every
    # mutation below is read by a fresh fixture, after the joined table
    # (and with it the pairing) is rebuilt
    def fixture():
        return alpha_t((1, 1, 1, 1))

    assert delta_criterion(fixture())
    pairing = moduli._pairing()
    real = moduli.delta_ops

    def with_d1_square(c):
        def ops():
            d1, d2, d3 = real()
            return [DiffOp(REG_U, {**d1.terms, (0, 0, 2, 0): c}), d2, d3]

        return ops

    try:
        # d1 = d0 d1 - d2^2 takes u2^2 to -2: one pairing entry moves, and
        # the family matrix is no longer annihilated
        monkeypatch.setattr(moduli, "delta_ops", with_d1_square(-1))
        moduli._joined_table.cache_clear()
        moved = moduli._pairing()
        assert np.argwhere(moved != pairing).tolist() == [[10, 0]] and moved[10, 0] == -2
        assert (moduli._joined_table()[0][:, moduli._PAIR] == moved).all()
        assert not delta_criterion(fixture())
        # d1 = d0 d1 - d2^2 / 4 takes u2^2 to -1/2, which is refused
        monkeypatch.setattr(moduli, "delta_ops", with_d1_square(Fraction(-1, 4)))
        moduli._joined_table.cache_clear()
        with pytest.raises(ValueError, match="not an integer constant"):
            delta_criterion(fixture())
        # a first-order term leaves a linear form, which is refused
        monkeypatch.setattr(
            moduli, "delta_ops", lambda: [DiffOp(REG_U, {(1, 0, 0, 0): 1}), *real()[1:]]
        )
        moduli._joined_table.cache_clear()
        with pytest.raises(ValueError, match="not an integer constant"):
            delta_criterion(fixture())
    finally:
        moduli._joined_table.cache_clear()


def test_annihilation_forms_no_poly_product(monkeypatch):
    # after one warm call (which reads the tables), deciding annihilation
    # multiplies no Poly and applies no DiffOp: both criteria contract the
    # integer coefficient products
    rng = random.Random(17)
    alphas = [
        _alpha_of([Fraction(rng.randint(-5, 5)) for _ in range(24)]) for _ in range(45)
    ] + [alpha_t((k, 1, k + 1, 2 - k)) for k in range(1, 6)]
    alpha_compose(alphas[0])
    delta_criterion(alphas[0])
    calls = {"mul": 0, "apply": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(Poly, "__mul__", counting("mul", Poly.__mul__))
    monkeypatch.setattr(DiffOp, "apply", counting("apply", DiffOp.apply))
    verdicts = [(alpha_compose_is_zero(alpha_compose(a)), delta_criterion(a)) for a in alphas]
    assert calls == {"mul": 0, "apply": 0}
    assert all(x == y for x, y in verdicts) and sum(y for _, y in verdicts) >= 5


def _spy_imatmul(monkeypatch):
    """Record (bound, result dtype) of every moduli._imatmul call."""
    calls = []
    real = moduli._imatmul

    def spy(x, y, bound):
        out = real(x, y, bound)
        calls.append((bound, out.dtype))
        return out

    monkeypatch.setattr(moduli, "_imatmul", spy)
    return calls


def test_each_matrix_is_lifted_once(monkeypatch):
    # both criteria, delta_values and minor_rows read the stored lift
    # through one cached contraction: none reads the Poly entries, and the
    # table is contracted by one field._imatmul call, not once per reader
    reads = []
    view = AlphaMatrix.entries
    monkeypatch.setattr(AlphaMatrix, "entries", property(lambda a: reads.append(a) or view.func(a)))
    products = _spy_imatmul(monkeypatch)
    for alpha in (
        _alpha_of([Fraction(k - 11, k % 5 + 1) for k in range(24)]),
        alpha_t((2, 1, 3, 5)),
        alpha_t((Fraction(10**12 + 1, 10**12 - 3), 1, 2, 3)),
        AlphaMatrix.from_coeffs([[[0] * 4] * 2] * 3),
    ):
        products.clear()
        alpha_compose(alpha)
        delta_criterion(alpha)
        delta_values(alpha)
        minor_rows(alpha)
        alpha_compose_is_zero(alpha_compose(alpha))
        assert reads == [] and len(products) == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        alpha.nums = alpha.nums


def test_cached_int64_products_widen_for_a_larger_bound(monkeypatch):
    # a matrix contracted in int64 under the real pairing stays exact under
    # a pairing scaled by 2^30, whose values no int64 holds: the joined
    # table's norm passes the bound past 2^62, so a fresh alpha contracts on
    # Python ints, while the first keeps its own contraction
    rng = random.Random(29)
    flat = [rng.randint(-(2**20), 2**20) for _ in range(24)]
    alpha = _alpha_of(flat)
    want = delta_criterion_forms(alpha)
    assert delta_values(alpha) == want
    kept, den = alpha.contraction
    assert kept.dtype == np.int64 and den == 1
    assert max(abs(v) for row in want for v in row) * 2**30 >= 2**63
    scaled = moduli._pairing() << 30
    monkeypatch.setattr(moduli, "_pairing", lambda: scaled)
    moduli._joined_table.cache_clear()
    try:
        fresh = _alpha_of(flat)
        assert delta_values(fresh) == [[v * 2**30 for v in row] for row in want]
        assert fresh.contraction[0].dtype == object
        assert alpha_compose(fresh).nums.tolist() == alpha_compose(alpha).nums.tolist()
        assert minor_rows(fresh) == minor_rows(alpha)
        assert alpha.contraction[0] is kept
    finally:
        moduli._joined_table.cache_clear()


def test_pairing_rows_decide_annihilation_as_one_slice():
    # delta_criterion reads the pairing columns of all nine rows at once:
    # P is symmetric in (k, l), so row (s, r) is minus row (r, s) and row
    # (r, r) is zero, and the slice is zero exactly when the minor rows are
    pairing = moduli._pairing().reshape(4, 4, 3)
    assert (pairing == pairing.transpose(1, 0, 2)).all()
    rng = random.Random(43)
    e12 = 10**12
    alphas = [_alpha_of([rng.randint(-3, 3) for _ in range(24)]) for _ in range(40)]
    alphas += [alpha_t((k, 1, k + 1, 2 - k)) for k in range(1, 4)]
    alphas += [
        alpha_t((Fraction(e12 + 39, e12 - 11), Fraction(-3, e12 + 7), Fraction(7, e12 + 1), 3)),
        _alpha_of([Fraction(rng.randint(-e12, e12), rng.randint(1, e12)) for _ in range(24)]),
    ]
    wide = alpha_t((Fraction(-1, e12 + 61), 2, Fraction(e12 - 17, e12 + 3), 5)).entries
    alphas.append(AlphaMatrix.from_entries([wide[0], wide[1], [wide[2][1], wide[2][0]]]))
    seen = set()
    for alpha in alphas:
        n, _ = alpha.contraction
        rows = n[:, moduli._PAIR].reshape(3, 3, 3)  # [r, s, j]
        assert (rows == -rows.transpose(1, 0, 2)).all()
        assert not rows[[0, 1, 2], [0, 1, 2]].any()
        verdict = not any(v for row in delta_values(alpha) for v in row)
        assert delta_criterion(alpha) == verdict
        assert verdict == (delta_criterion_forms(alpha) == [[0] * 3] * 3)
        seen.add((n.dtype == object, verdict))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize(
    "limit, above, route",
    [(2**53, 0, np.float64), (2**53, 1, np.int64), (2**62, 0, np.int64), (2**62, 1, object)],
    ids=["below-2^53", "above-2^53", "below-2^62", "above-2^62"],
)
def test_contraction_takes_the_route_of_its_bound(monkeypatch, limit, above, route):
    # an integer matrix whose largest coefficient is top: the bound
    # 2 top^2 norm sits just below limit, or (above) at or just past it, and
    # every value read off the contraction equals the Poly and form-matrix
    # oracles
    norm = moduli._joined_table()[2]
    top = math.isqrt((limit - 1) // (2 * norm)) + above
    assert (2 * top * top * norm >= limit) == above
    calls = _spy_imatmul(monkeypatch)
    rng = random.Random(top)
    flat = [rng.choice((-1, 1)) * rng.randint(top // 2, top) for _ in range(24)]
    flat[rng.randrange(24)] = -top
    alpha = _alpha_of(flat)
    assert delta_values(alpha) == delta_criterion_forms(alpha)
    assert calls == [(2 * top * top * norm, np.dtype(route))]
    assert _entries_of_composition(alpha_compose(alpha)) == _entries_of_forms(alpha_compose_forms(alpha))
    assert minor_rows(alpha) == coefficient_rows(alpha.minors(), monomial_basis(REG_U, 2))
    assert alpha.contraction[0].dtype == (object if route is object else np.int64)


def test_net_kernel_and_split():
    ops = delta_ops()
    f, v = f_basis()
    for i in range(7):
        for op in ops:
            assert op.apply(f[i]).is_zero()
    assert f[4] == parse_poly("u0*u3+u1^2", REG_U)
    assert v[3] == parse_poly("u0*u3-u1^2", REG_U)
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

    assert rank(coords([f[i] for i in range(7)] + [v[i] for i in (1, 2, 3)])) == 10


def test_net_matrices_entries():
    m1, m2, m3 = net_matrices()
    assert m3[0][3] == Fraction(1, 2)
    assert m3[1][1] == Fraction(-1, 2)
    assert m1[0][1] == Fraction(1, 2) and m1[2][2] == Fraction(-1, 2)


def test_psi_values():
    p = psi((1, 1, 1, 1))
    assert p.rows[0] == [Fraction(x) for x in (-1, 2, -1, 0, 1, -1, 0)]
    assert p.rank() == 3
    assert psi((1, 0, 0, 0)).rank() < 3
    with pytest.raises(ValueError):
        psi((0, 0, 0, 0))


def test_eta_membership():
    assert eta_klein().is_skew()
    ok, vals = grass_membership(equational_point())
    assert ok and all(v == 0 for v in vals) and len(vals) == 9
    ok, _ = grass_membership(psi((2, 1, 3, 5)))
    assert ok
    rng = random.Random(13)
    rows = [[Fraction(rng.randint(-9, 9)) for _ in range(7)] for _ in range(3)]
    p = GrassPoint(rows)
    if p.rank() == 3:
        ok, _ = grass_membership(p)
        assert not ok


def test_grass_membership_does_not_rank_a_known_plane(monkeypatch):
    # a surface's plane was ranked once, by surface_ideal; a rank-deficient
    # raw plane is refused by `heis7 grassmann` (tests/test_cli.py)
    S = surface_ideal((2, 1, 3, 5))
    assert S.rank == 3

    def no_rank(*args):
        raise AssertionError("the plane is ranked again")

    monkeypatch.setattr(moduli, "mat_rank", no_rank)
    assert grass_membership(S.plane)[0]


def test_alpha_family():
    a = alpha_t((1, 1, 1, 1))
    assert delta_criterion(a)
    assert alpha_compose_is_zero(alpha_compose(a))
    assert minor_span_pairing(a, psi((1, 1, 1, 1))) == "generator-list-order"
    with pytest.raises(DegenerateParameter):
        alpha_t((1, 0, 0, 0))


def test_grass_quadrics_are_the_curve():
    # under the generator-list enumeration the rows cut out twisted cubics
    from heis7.resolution import hilbert_burch

    q = psi((1, 1, 1, 1)).quadrics()
    mat = hilbert_burch(q)
    assert mat.nrows == 3 and mat.ncols == 2
    # under the display enumeration the same rows give a generic (complete
    # intersection) net: the detected transposition of the two mixed squares
    from heis7.moduli import L_BASIS_ORDER
    from heis7.resolution import NotHilbertBurch

    qd = psi((1, 1, 1, 1)).quadrics(L_BASIS_ORDER)
    with pytest.raises(NotHilbertBurch):
        hilbert_burch(qd)


def test_d_vector_values():
    d = d_vector()
    assert d[1] == parse_poly("x0*x1*x6", REG_X)
    assert d[3] == parse_poly("x2^2*x3+x5^2*x4", REG_X)
    assert d[6] == parse_poly("x1*x2*x4+x3*x5*x6-x0^3", REG_X)
    _assert_tau_invariant(d)


def _assert_tau_invariant(cubics):
    # tau's action keeps each cubic whole in phase 0, and the oracle's
    # substitution over Q(z7) fixes it
    tau = TAU.conj()
    images = substitution_images(*tau)
    for p in cubics:
        assert tau.act(p.terms) == [p.terms] + [{}] * 6
        q = p.map_coeffs(CYC.coerce, CYC)
        assert q.substitute(images) == q


@pytest.mark.parametrize("extra, status", [("x0*x1*x2", "fail"), ("x1*x2*x4", "pass")], ids=["weight-3", "weight-0"])
def test_invariant_cubics_check_tests_the_phase(extra, status, monkeypatch):
    # x0*x1*x6 plus a monomial, in d_vector and in the display alike, so
    # only the phase test can tell: x0*x1*x2 has weight 3 and must fail the
    # check, x1*x2*x4 has weight 0 and keeps it passing
    from heis7.checks import Context, RunConfig, check_d_vector

    real = moduli._poly

    def mutated(s, reg):
        p = real(s, reg)
        return p + real(extra, reg) if s == "x0*x1*x6" else p

    monkeypatch.setattr(moduli, "_poly", mutated)
    assert d_vector()[1] == parse_poly(f"x0*x1*x6+{extra}", REG_X)
    assert check_d_vector(Context(RunConfig())).status == status


def test_surface_ideal_at_ones():
    S = surface_ideal((1, 1, 1, 1))
    assert not S.degenerate
    assert len(S.basis) == 21
    _assert_tau_invariant(S.g)
    data = S.to_json()
    assert len(data["generators"]) == 21


@pytest.mark.parametrize("t", [(1, 1, 1, 1), (Fraction(-2, 3), 5, Fraction(1, 7), -4)], ids=["ones", "mixed"])
def test_surface_shifts_are_the_sigma_substitution(t):
    # each cubic is followed by its six shifts, each the oracle's sigma
    # substitution x_j -> x_{j-1} of the one before; a seventh closes up
    S = surface_ideal(t)
    sig = substitution_images(*SIGMA.inv())
    for i, g in enumerate(S.g):
        block = [p.map_coeffs(CYC.coerce, CYC) for p in S.basis[7 * i : 7 * i + 7]]
        assert S.basis[7 * i] == g
        assert [p.substitute(sig) for p in block] == block[1:] + block[:1]
    assert all(p.dom is QQ for p in S.basis)


def test_surface_character(g7):
    # the per-point route agrees with span_certificate at t = (1, 1, 1, 1)
    # and the first seed-42 point: the oracle finds the 21 cubics stable
    # under the generators, and its traces give 3 V4.  At the other points
    # the rank rule span_certificate proves covers it, with
    # test_degenerate_is_the_span_solver_refusal
    from heis7.checks import Context, RunConfig

    gens = [substitution_images(*g.conj()) for g in (SIGMA, TAU, IOTA)]
    classes = [substitution_images(*rep.matrix().conj()) for rep in g7.classes.reps]
    for S in Context(RunConfig(seed=42, sample_points=2)).surfaces():
        oracle = SpanSolverOracle(S.basis)
        assert all(oracle.is_stable_under(g) for g in gens), S.t
        chi = CycArray.from_values([oracle.trace(g) for g in classes])
        assert g7.decompose(chi) == {"V4": 3}, S.t


def test_span_certificate(g7):
    assert span_certificate(g7) == ""


@pytest.mark.parametrize(
    "cubic, mutant, why",
    [
        # same Heisenberg weight, but iota sends it to -(x5^2*x4 + 2 x2^2*x3)
        ("x2^2*x3+x5^2*x4", "x2^2*x3+2*x5^2*x4", "the 49 shifted invariant cubics: span is not stable"),
        # its sigma-shift: the same 49-dimensional span, but not tau-fixed
        ("x0*x3*x4", "x1*x4*x5", "tau does not fix"),
        # plus the first cubic: the same span, still tau-fixed and iota-negated,
        # but two shifted cubics share x0*x3*x4
        ("x2^2*x3+x5^2*x4", "x2^2*x3+x5^2*x4+x0*x3*x4", "the 49 shifted invariant cubics do not split"),
        # twice the first cubic: the same span over Q, but zero mod 2
        ("x0*x3*x4", "2*x0*x3*x4", "the 49 shifted invariant cubics do not split"),
    ],
    ids=["iota", "tau", "overlap", "scaled"],
)
def test_a_mutated_invariant_cubic_fails_the_span_certificate(cubic, mutant, why, g7, monkeypatch):
    from heis7.checks import Context, RunConfig, check_surface_stability

    real = moduli._poly
    monkeypatch.setattr(moduli, "_poly", lambda s, reg: real(mutant if s == cubic else s, reg))
    assert span_certificate(g7).startswith(why)
    res = check_surface_stability(Context(RunConfig(sample_points=2)))
    assert res.status == "fail" and res.details == span_certificate(g7), res.details


def test_degenerate_is_the_span_solver_refusal():
    # the old per-point route's refusal, a dependent set of 21 cubics, read
    # off the rank of their 21 x 84 coefficient matrix, as the oracle of
    # degenerate = rank psi(t) < 3, on a grid with t1 t2 t3 = 0 points
    from itertools import product

    monos = monomial_basis(REG_X, 3)
    degenerate = 0
    for t in product((0, 1, -1, 2), repeat=4):
        if any(t):
            S = surface_ideal(t)
            refused = rank(coefficient_rows(S.basis, monos), QQ) < 21
            assert S.degenerate == refused, t
            degenerate += refused
    assert degenerate == 51


def test_psi_minors_cut_out_only_t1_t2_t3_zero():
    # the 35 nonzero 3x3 minors of psi_matrix, all of degree 7, generate an
    # ideal J holding (t1 t2 t3)^3 but not its first or second power: so
    # psi(t) has rank 3 wherever t1 t2 t3 != 0
    from itertools import combinations

    from heis7.formmat import FormMatrix, det_form
    from heis7.groebner import GradedIdeal
    from heis7.poly import REG_T

    m = moduli.psi_matrix()
    minors = [det_form(FormMatrix([[row[c] for c in cols] for row in m.entries])) for cols in combinations(range(7), 3)]
    assert len(minors) == 35 and all(not p.is_zero() and p.degree() == 7 for p in minors)
    J = GradedIdeal(REG_T, QQ, minors)
    powers = [parse_poly(f"t1^{k}*t2^{k}*t3^{k}", REG_T) for k in (1, 2, 3)]
    assert [J.contains(p) for p in powers] == [False, False, True]
    sympy = pytest.importorskip("sympy")
    ts = sympy.symbols("t0:4")
    G = sympy.groebner([sympy.sympify(render_poly(p).replace("^", "**")) for p in minors], *ts, order="grevlex")
    assert [G.contains((ts[1] * ts[2] * ts[3]) ** k) for k in (1, 2, 3)] == [False, False, True]


def test_klein_quartic_suite():
    inv = klein_invariance_report()
    assert inv == {"mu": True, "nu": True, "delta": True}
    pa = pfaffian_apolarity_report()
    assert pa["annihilates"]
    assert pa["kernel_dim"] == 7
    assert pa["pfaffian_span_dim"] == 7
    assert pa["same_span"]
    assert pa["quotient_hf"] == [1, 3, 6, 3, 1, 0, 0]
    assert pa["gorenstein_symmetric"]


QUARTIC_MATRICES = {
    "mu": (lambda: restrict_to_span(MU.dense(), KLEIN_VBASIS), True),
    "nu": (lambda: restrict_to_span(NU.dense(), KLEIN_VBASIS), True),
    "delta": (lambda: restrict_to_span(delta_dense(), KLEIN_VBASIS), True),
    "diag(1,1,2)": (lambda: [[1, 0, 0], [0, 1, 0], [0, 0, 2]], False),
    "v1<->v2": (lambda: [[0, 1, 0], [1, 0, 0], [0, 0, 1]], False),
}


@pytest.mark.parametrize("name", QUARTIC_MATRICES)
def test_lattice_invariance_agrees_with_substitution(name):
    make, invariant = QUARTIC_MATRICES[name]
    x = make()
    assert len(set(QUARTIC_LATTICE)) == 15
    assert quartic_invariant_under(klein_quartic(), [x]) == [invariant]
    assert quartic_invariant_oracle(klein_quartic(), x) is invariant


def test_a_mutated_quartic_is_not_invariant(monkeypatch):
    mutated = parse_poly("v1^3*v2 + v2^3*v3 + 2*v3^3*v1", klein_quartic().reg)
    x = restrict_to_span(MU.dense(), KLEIN_VBASIS)
    assert not quartic_invariant_oracle(mutated, x)
    monkeypatch.setattr(moduli, "klein_quartic", lambda: mutated)
    assert klein_invariance_report()["mu"] is False


def test_net_discriminant():
    assert net_discriminant_ratio() == Fraction(-1, 16)
    det = net_discriminant()
    fy = klein_quartic().transport(det.reg)
    assert det == fy.scale(Fraction(-1, 16))
    # scaling the net by 3 scales the discriminant by 3^4
    from heis7.formmat import FormMatrix, det_form
    from heis7.poly import REG_Y

    ys = [Poly.var(REG_Y, n) for n in ("y1", "y2", "y3")]
    z = Poly.zero(REG_Y, QQ)
    entries = [[z] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            acc = z
            for k, m in enumerate(net_matrices()):
                if m[i][j]:
                    acc = acc + ys[k].scale(m[i][j] * 3)
            entries[i][j] = acc
    scaled = det_form(FormMatrix(entries))
    assert scaled == fy.scale(Fraction(-81, 16))


def test_epsilon_identity(monkeypatch):
    rep = epsilon_identity_report()
    assert rep == {
        "identity_holds": True,
        "eps0_part_vanishes": True,
        "single_term_ok": True,
    }
    # the tangent direction v_{i+2} gives 4 eps (v1^3 v3 + v2^3 v1 + v3^3 v2)
    monkeypatch.setattr(moduli, "TANGENT_STEP", 2)
    assert epsilon_identity_report()["identity_holds"] is False


def test_iota_stability_of_surface():
    S = surface_ideal((2, 1, 3, 5))
    oracle = SpanSolverOracle(S.basis)
    assert oracle.is_stable_under(substitution_images(*IOTA))
    assert oracle.is_stable_under(substitution_images(*SIGMA.inv()))


_SWAP_X1_X2 = MonoMat((0, 2, 1, 3, 4, 5, 6), (1,) * 7, (0,) * 7)


def _scale_one(j, sign, pw):
    """x_j -> sign z^pw x_j, the other variables fixed: its phase varies
    within a Heisenberg weight."""
    return MonoMat(tuple(range(7)), tuple(sign if k == j else 1 for k in range(7)), tuple(pw * (k == j) for k in range(7)))


@pytest.mark.parametrize("seed", [3, 11])
def test_span_solver_against_oracle(g7, seed):
    # the 49 sigma-shifts of the invariant cubics, the partitioned basis the
    # span certificate reads, and a seeded partitioned basis of the same
    # kind: stability verdicts and traces at every class
    from heis7.characters import SpanSolver, subspace_character

    rng = random.Random(seed)
    d = d_vector()
    shifts = moduli._sigma_shifts(d)

    def wide():
        # numerator and denominator in [2^64, 2^65], past machine words
        return Fraction(rng.choice((-1, 1)) * rng.randint(2**64 + 1, 2**65), rng.randint(2**64 + 1, 2**65))

    # three cubics over disjoint sets of the d_j, as psi(t) would combine
    # them if its rows had disjoint supports: their shifts are again a
    # partitioned basis, of a stable 3 V4; the first cubic takes wide
    # coefficients, the others small rational ones
    order = rng.sample(range(7), 7)
    cut = sorted(rng.sample(range(2, 7), 2))  # two or more d_j in the first
    groups = [order[: cut[0]], order[cut[0] : cut[1]], order[cut[1] :]]
    small = lambda: Fraction(rng.choice((-1, 1)) * rng.randint(1, 13), rng.randint(1, 13))
    cubics = [
        sum((d[j].scale(wide() if i == 0 else small()) for j in group), Poly.zero(REG_X))
        for i, group in enumerate(groups)
    ]
    mixed = moduli._sigma_shifts(cubics)
    rng.shuffle(mixed)
    maps = [
        SIGMA.inv(),
        IOTA,
        TAU.conj(),
        HElem(0, 0, 3, 0).matrix().conj(),
        MU.conj(),
        _SWAP_X1_X2,
        _scale_one(0, 1, 1),
        _scale_one(2, -1, 3),
    ]
    images = [substitution_images(*g) for g in maps]
    for basis in (shifts, mixed):
        solver, oracle = SpanSolver(basis), SpanSolverOracle(basis)
        assert [solver.is_stable_under(g) for g in maps] == [oracle.is_stable_under(im) for im in images]
        for rep in g7.classes.reps:
            g = rep.matrix().conj()
            assert solver.trace(g) == oracle.trace(substitution_images(*g))
    # the rows of the wide cubic's shifts hold integers past 64 bits
    assert max(abs(v) for G, L in solver.rows.values() for v in G.values()) > 2**64
    assert g7.decompose(subspace_character(mixed, g7)) == {"V4": 3}
    # 48 of the 49 shifts: each is a tau-eigenvector, but sigma moves the
    # last shift of the seventh cubic out of their span
    sub = shifts[:48]
    solver, oracle = SpanSolver(sub), SpanSolverOracle(sub)
    verdicts = [solver.is_stable_under(g) for g in maps]
    assert verdicts == [oracle.is_stable_under(im) for im in images]
    assert not verdicts[0]
    with pytest.raises(ValueError, match="not stable under generator"):
        subspace_character(sub, g7)
    # one weight-0 polynomial: x0 -> z x0 splits it into two phase parts,
    # and x1 -> -x1 (phase (-z)^7) flips the sign of one term
    one = [parse_poly("x0^2+x1*x6", REG_X)]
    ones = [*maps[-2:], _scale_one(1, -1, 0)]
    verdicts = [SpanSolver(one).is_stable_under(g) for g in ones]
    oracle = SpanSolverOracle(one)
    assert verdicts == [oracle.is_stable_under(substitution_images(*g)) for g in ones] == [False, True, False]


def test_span_solver_tests_every_phase_part():
    # V = <r1, r2>, r1 = x1^2*x3 + x0^2*x5 and r2 = x1^2*x4 + x0^2*x6, a
    # partitioned basis.  g swaps x3, x4 and x5, x6, with x3 -> -z^2 x4 and
    # x5 -> z^2 x6: it maps r2 to r1 at phase 0, inside V, and r1 to
    # z^2 (x0^2*x6 - x1^2*x4) at phase 2, which covers r2's support with the
    # wrong ratio, outside V.  The central twist z^c moves the parts to
    # phases 3c and 2 + 3c, so every phase is once the only one outside V,
    # and a test that skips any one phase part calls one of these maps
    # stable.  A test that reads only each row's first part is no fault on
    # a partitioned basis, so no basis here can show one: if each of the n
    # rows has a part in V, these n parts are sums of whole rows with
    # disjoint images, so they cover all n rows; g, one-to-one on
    # monomials, then leaves no monomial for a part outside V.
    from heis7.characters import SpanSolver

    basis = [parse_poly("x1^2*x3+x0^2*x5", REG_X), parse_poly("x1^2*x4+x0^2*x6", REG_X)]
    solver, oracle = SpanSolver(basis), SpanSolverOracle(basis)
    # the rows are the members themselves, as integer numerators G over L
    assert all(type(v) is int for G, L in solver.rows.values() for v in (*G.values(), L))
    assert [{e: Fraction(v, L) for e, v in G.items()} for G, L in solver.rows.values()] == [p.terms for p in basis]
    perm, sign, pw = (0, 1, 2, 4, 3, 6, 5), (1, 1, 1, -1, 1, 1, 1), (0, 0, 0, 2, 0, 2, 0)
    outside = set()
    for c in range(7):
        g = MonoMat(perm, sign, tuple((p + c) % 7 for p in pw))
        parts = [[m for m, u in enumerate(g.act(G)) if u] for G, _ in solver.rows.values()]
        assert parts == [[(2 + 3 * c) % 7], [3 * c % 7]]
        outside.add(parts[0][0])
        assert not solver.is_stable_under(g)
        assert not oracle.is_stable_under(substitution_images(*g))
    assert outside == set(range(7))


def test_bad_prime_point_is_certified_over_q(monkeypatch):
    # 31 divides a coefficient denominator at t = (1/31, 1, 1, 1): the
    # resolution runs over Q alone, and says so instead of crashing, while
    # the pipeline reads its quotient dimensions over Q and names no prime
    from heis7 import resolution
    from heis7.checks import Context, RunConfig, check_surface_betti, check_surface_pipeline

    t = (Fraction(1, 31), 1, 1, 1)
    S = surface_ideal(t)
    assert S.domain(fp(31)) == (QQ, "as 31 divides a denominator")
    f37 = fp(37)
    assert S.domain(f37) == (f37, "")
    assert S.domain(QQ) == (QQ, "")
    assert surface_ideal((Fraction(1, 31 * 37), 1, 1, 1)).domain(f37) == (QQ, "as 37 divides a denominator")
    ctx = Context(RunConfig(extra_t=t, sample_points=2))
    domains = []
    real = resolution.free_resolution
    monkeypatch.setattr(resolution, "free_resolution", lambda ideal, *a, **kw: domains.append(ideal.dom) or real(ideal, *a, **kw))
    res = check_surface_betti(ctx)
    assert res.status == "pass", res.details
    assert res.details.endswith("alternating sums match the Hilbert numerator (over Q, as 31 divides a denominator)")
    assert domains and set(domains) == {QQ}
    res = check_surface_pipeline(ctx)
    assert res.status == "pass" and "divides" not in res.details, res.details


def test_cubics_dependent_mod_p_move_the_prime():
    # at t = (6/5, -3/8, 6, 3) every cubic vanishes mod 3, though 3 divides
    # no denominator; 5 divides one; at either prime the resolution runs
    # over Q
    S = surface_ideal((Fraction(6, 5), Fraction(-3, 8), 6, 3))
    assert [S.bad_prime(q) for q in (3, 5, 11)] == [
        "as the cubics are dependent mod 3",
        "as 5 divides a denominator",
        "",
    ]
    assert S.domain(fp(3)) == (QQ, "as the cubics are dependent mod 3")
    assert S.domain(fp(5)) == (QQ, "as 5 divides a denominator")
    assert S.domain(fp(11)) == (fp(11), "")


@pytest.mark.parametrize(
    "t, q, why",
    [
        ((Fraction(6, 5), Fraction(-3, 8), 6, 3), 3, "over F3 at t = (6/5, -3/8, 6, 3), as the cubics are dependent mod 3"),
        ((Fraction(6, 5), Fraction(-3, 8), 6, 3), 5, "over F5 at t = (6/5, -3/8, 6, 3), as 5 divides a denominator"),
        ((Fraction(1, 31), 1, 1, 1), 31, "over F31 at t = (1/31, 1, 1, 1), as 31 divides a denominator"),
    ],
    ids=["F3", "F5", "F31"],
)
def test_surface_ideal_refuses_a_bad_prime(t, q, why):
    # the cubics mod a bad prime would cut out another ideal: F3 reduces
    # every cubic at (6/5, -3/8, 6, 3) to zero
    S = surface_ideal(t)
    with pytest.raises(ValueError) as exc:
        S.ideal(fp(q))
    assert str(exc.value) == f"no surface ideal {why}"
    assert len(S.ideal(fp(11)).gens) == 21


def test_bad_prime_on_the_plane_agrees_with_the_cubic_rank():
    # the oracle ranks the 21 x 84 coefficient matrix of the cubics mod q;
    # bad_prime ranks the 3 x 7 plane psi(t) mod q
    rng = random.Random(35)
    points = [(Fraction(6, 5), Fraction(-3, 8), 6, 3), (Fraction(1, 31), 1, 1, 1), (1, 0, 0, 0), (1, 3, 0, 5)]
    while len(points) < 40:
        points.append(tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 40)) for _ in range(4)))
    kinds = set()
    for t in points:
        S = surface_ideal(t)
        for q in (3, 5, 11, 13, 31):
            why = S.bad_prime(q)
            assert why == bad_prime_by_cubic_rank(S, q), (t, q)
            kinds.add((q, "divides" in why, "dependent" in why))
    # at every q the grid holds a good prime and both reasons
    assert len(kinds) == 15


@pytest.mark.parametrize("seed", [1, 4])
def test_surface_pipeline_needs_no_good_prime(seed):
    # under --coeff fp:3, seed 1 holds points whose cubics vanish mod 3 and
    # seed 4 points whose cubics are dependent mod 3; the quotient
    # dimensions are read over Q, so neither point is a failure
    from heis7.checks import Context, RunConfig, check_surface_pipeline

    res = check_surface_pipeline(Context(RunConfig(seed=seed, coeff="fp:3")))
    assert res.status == "pass", res.details


def test_surface_pipeline_reads_the_quotient_dimensions_of_the_basis(monkeypatch):
    # x0^3 in place of one basis cubic, with the solver of the true span
    # kept: only the ideal that the dimensions are read from changes
    from dataclasses import replace

    from heis7.checks import Context, RunConfig, check_surface_pipeline

    ctx = Context(RunConfig(sample_points=2))
    S = ctx.surfaces()[1]
    bad = replace(S, basis=[parse_poly("x0^3", REG_X), *S.basis[1:]])
    monkeypatch.setattr(ctx, "surfaces", lambda: [bad])
    res = check_surface_pipeline(ctx)
    assert res.status == "fail", res.details
    # points print as rationals, not as Python reprs
    t = ", ".join(str(x) for x in S.t)
    assert res.details.startswith(f"t=({t}): quotient dimensions ["), res.details


def test_degenerate_surface_fails_both_surface_checks(monkeypatch):
    # at t = (1, 0, 0, 0) psi(t) vanishes, so the 21 cubics are dependent
    from heis7.checks import Context, RunConfig, check_surface_pipeline, check_surface_stability

    S = surface_ideal((1, 0, 0, 0))
    assert S.degenerate and S.rank == 0
    ctx = Context(RunConfig(sample_points=2))
    monkeypatch.setattr(ctx, "surfaces", lambda: [S])
    res = check_surface_stability(ctx)
    assert (res.status, res.details) == ("fail", "t=(1, 0, 0, 0): basis is linearly dependent")
    res = check_surface_pipeline(ctx)
    assert res.status == "fail" and res.details.startswith("t=(1, 0, 0, 0): span dimension != 21")
