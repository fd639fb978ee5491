import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from heis7 import moduli
from heis7.field import CYC, QQ, fp
from heis7.heisenberg import IOTA, MU, SIGMA, TAU, MonoMat
from heis7.linalg import rank
from heis7.moduli import (
    AlphaMatrix,
    DegenerateParameter,
    Wedge3,
    alpha_compose,
    alpha_compose_is_zero,
    _lin_coeffs,
    alpha_t,
    composition_table_report,
    composition_tensor,
    compose_u,
    d_vector,
    delta_criterion,
    delta_ops,
    delta_values,
    epsilon_identity_report,
    equational_point,
    eta_klein,
    f_basis,
    grass_membership,
    klein_invariance_report,
    klein_quartic,
    minor_span_pairing,
    minors_and_independence,
    net_discriminant,
    net_discriminant_ratio,
    net_matrices,
    pfaffian_apolarity_report,
    printed_b_matrices,
    psi,
    surface_ideal,
    wedge_reps,
    GrassPoint,
)
from heis7.poly import REG_U, REG_X, DiffOp, Poly, monomial_basis, parse_poly, render_poly

from oracles import SpanSolverOracle, alpha_compose_forms, delta_criterion_forms, substitution_images


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
    a = alpha_t((1, 1, 1, 1))
    minors, indep, diag = minors_and_independence(a, l_coeffs=(1, 2, 3, 5))
    assert indep
    assert diag == [6, 6, 6, 6]
    dep = AlphaMatrix.from_coeffs(
        [[[1, 0, 0, 0], [0, 1, 0, 0]], [[1, 0, 0, 0], [0, 1, 0, 0]], [[0, 0, 0, 0], [0, 0, 0, 0]]]
    )
    _, indep2, _ = minors_and_independence(dep)
    assert not indep2


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


def _entries_of_composition(comp):
    return {
        (r, s) + key: Fraction(v, comp.den)
        for r in range(3)
        for s in range(3)
        for key, v in comp.blocks[r][s].items()
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
        assert all(isinstance(v, int) for row in comp.blocks for b in row for v in b.values())
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
        alpha = AlphaMatrix([[u0, u0], [u0, parse_poly(bad, REG_U)], [u0, u0]])
        for criterion in (alpha_compose, delta_criterion):
            with pytest.raises(ValueError, match="not a linear form"):
                criterion(alpha)


def test_alpha_entries_outside_q_are_refused():
    # over F31 all three minors vanish (16 * 2 - 1 = 31), while the same
    # residues read as integers do not compose to zero: refuse, do not guess
    f31 = fp(31)
    u1 = Poly.var(REG_U, "u1", f31)
    zero = Poly.zero(REG_U, f31)
    alpha = AlphaMatrix([[u1.scale(16), u1], [u1, u1.scale(2)], [zero, zero]])
    assert all(m.is_zero() for m in alpha.minors())
    for criterion in (alpha_compose, delta_criterion, delta_values):
        with pytest.raises(ValueError, match="is over F31, not Q"):
            criterion(alpha)


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


_E12 = 10**12
_NEAR_E12 = st.integers(_E12 - 100, _E12 + 100)


@seed(1718)
@settings(max_examples=8, deadline=None)
@given(st.lists(st.tuples(st.integers(-_E12, _E12).filter(bool), _NEAR_E12), min_size=4, max_size=4))
def test_delta_values_match_the_poly_oracle_on_wide_family_points(parts):
    alpha = alpha_t([Fraction(n, d) for n, d in parts])
    # denominators near 10^12 overflow int64, so the products are Python ints
    products, _ = moduli._coefficient_products(alpha, 1)
    assert products.dtype == object
    want = delta_criterion_forms(alpha)
    assert want == [[0] * 3] * 3
    assert delta_values(alpha) == want
    assert delta_criterion(alpha) and alpha_compose_is_zero(alpha_compose(alpha))


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
    fixture = alpha_t((1, 1, 1, 1))
    assert delta_criterion(fixture)
    pairing, _ = moduli._pairing()
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
        moduli._pairing.cache_clear()
        moved, _ = moduli._pairing()
        assert np.argwhere(moved != pairing).tolist() == [[10, 0]] and moved[10, 0] == -2
        assert not delta_criterion(fixture)
        # d1 = d0 d1 - d2^2 / 4 takes u2^2 to -1/2, which is refused
        monkeypatch.setattr(moduli, "delta_ops", with_d1_square(Fraction(-1, 4)))
        moduli._pairing.cache_clear()
        with pytest.raises(ValueError, match="not an integer constant"):
            delta_criterion(fixture)
        # a first-order term leaves a linear form, which is refused
        monkeypatch.setattr(
            moduli, "delta_ops", lambda: [DiffOp(REG_U, {(1, 0, 0, 0): 1}), *real()[1:]]
        )
        moduli._pairing.cache_clear()
        with pytest.raises(ValueError, match="not an integer constant"):
            delta_criterion(fixture)
    finally:
        moduli._pairing.cache_clear()


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
    degenerate = GrassPoint([[Fraction(0)] * 7 for _ in range(3)])
    with pytest.raises(ValueError):
        grass_membership(degenerate)


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
    from heis7.characters import subspace_character

    S = surface_ideal((1, 1, 1, 1))
    chi = subspace_character(S.basis, g7)
    assert g7.decompose(chi) == {"V4": 3}


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


def test_epsilon_identity():
    rep = epsilon_identity_report()
    assert rep == {
        "identity_holds": True,
        "eps0_part_vanishes": True,
        "single_term_ok": True,
    }


def test_iota_stability_of_surface():
    from heis7.characters import SpanSolver

    S = surface_ideal((2, 1, 3, 5))
    solver = SpanSolver(S.basis)
    assert solver.is_stable_under(IOTA)
    assert solver.is_stable_under(SIGMA.inv())


_SWAP_X1_X2 = MonoMat((0, 2, 1, 3, 4, 5, 6), (1,) * 7, (0,) * 7)


def _scale_one(j, sign, pw):
    """x_j -> sign z^pw x_j, the other variables fixed: its phase varies
    within a weight block."""
    return MonoMat(tuple(range(7)), tuple(sign if k == j else 1 for k in range(7)), tuple(pw * (k == j) for k in range(7)))


@pytest.mark.parametrize("seed", [3, 11])
def test_span_solver_against_oracle(g7, seed):
    from heis7.characters import SpanSolver, subspace_character

    rng = random.Random(seed)
    t = (1, 1, 1, 1)
    while t == (1, 1, 1, 1) or not all(t[1:]):
        t = tuple(Fraction(rng.randint(-13, 13), rng.randint(1, 13)) for _ in range(4))
    S = surface_ideal(t)
    assert not S.degenerate
    # a seeded invertible rational recombination: its members mix the weights
    while True:
        m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(21)] for _ in range(21)]
        if rank(m, QQ) == 21:
            break
    mixed = [sum((p.scale(c) for c, p in zip(row, S.basis)), Poly.zero(REG_X)) for row in m]
    assert all(len({sum(k * a for k, a in enumerate(e)) % 7 for e in p.terms}) > 1 for p in mixed)
    maps = [
        SIGMA.inv(),
        IOTA,
        TAU.conj(),
        (TAU * TAU * TAU).conj(),
        MU.conj(),
        _SWAP_X1_X2,
        _scale_one(0, 1, 1),
        _scale_one(2, -1, 3),
    ]
    images = [substitution_images(*g) for g in maps]
    classes = [rep.matrix().conj() for rep in g7.classes.reps]
    for basis in (S.basis, mixed):
        solver, oracle = SpanSolver(basis), SpanSolverOracle(basis)
        assert [solver.is_stable_under(g) for g in maps] == [oracle.is_stable_under(im) for im in images]
        for g in classes:
            assert solver.trace(g) == oracle.trace(substitution_images(*g))
    assert g7.decompose(subspace_character(mixed, g7)) == {"V4": 3}
    # a 20-cubic sub-span is tau-stable but not G7-stable
    sub = S.basis[:20]
    solver, oracle = SpanSolver(sub), SpanSolverOracle(sub)
    verdicts = [solver.is_stable_under(g) for g in maps]
    assert verdicts == [oracle.is_stable_under(im) for im in images]
    assert not verdicts[0]
    with pytest.raises(ValueError, match="not stable under generator"):
        subspace_character(sub, g7)
    # 20 mixed members span a space that is not tau-stable
    assert not SpanSolverOracle(mixed[:20]).is_stable_under(images[2])
    with pytest.raises(ValueError, match="not stable under tau"):
        SpanSolver(mixed[:20])
    with pytest.raises(ValueError, match="linearly dependent"):
        SpanSolver(mixed + [mixed[0] + mixed[1]])
    # one weight-0 polynomial: x0 -> z x0 splits it into two phase parts,
    # and x1 -> -x1 (phase (-z)^7) flips the sign of one term
    one = [parse_poly("x0^2+x1*x6", REG_X)]
    ones = [*maps[-2:], _scale_one(1, -1, 0)]
    verdicts = [SpanSolver(one).is_stable_under(g) for g in ones]
    oracle = SpanSolverOracle(one)
    assert verdicts == [oracle.is_stable_under(substitution_images(*g)) for g in ones] == [False, True, False]


def test_span_solver_tests_every_phase_part():
    # g relabels x0 -> x1 -> x2 -> x5 -> x3 -> x6 -> x4 -> x0, with x5 ->
    # z^2 x3 and x6 -> z^2 x4.  It maps x0*x3*x4 and x1*x2*x4 to x0*x1*x6
    # and x0*x2*x5 at phase 0, so each row's phase-0 part is +-(r1 + r2),
    # inside V = <r1, r2>; each row's phase-2 part, the image of its pivot,
    # is one monomial, outside V.  The central twist z^c moves the parts to
    # phases 3c and 2 + 3c, so every phase is once the only one outside V,
    # and a test that skips any one phase part, or reads only each row's
    # first part, calls one of these maps stable.
    from heis7.characters import SpanSolver

    basis = [parse_poly("x0*x1*x6+x0*x3*x4+x1*x2*x4", REG_X), parse_poly("x0*x2*x5-x0*x3*x4-x1*x2*x4", REG_X)]
    solver, oracle = SpanSolver(basis), SpanSolverOracle(basis)
    pivots = [(1, 1, 0, 0, 0, 0, 1), (1, 0, 1, 0, 0, 1, 0)]  # x0*x1*x6, x0*x2*x5
    assert [solver.rows[e] for e in pivots] == [p.terms for p in basis]  # r1, r2 are the reduced rows
    for c in range(7):
        g = MonoMat((1, 2, 5, 6, 0, 3, 4), (1,) * 7, tuple((p + c) % 7 for p in (0, 0, 0, 0, 0, 2, 2)))
        assert not solver.is_stable_under(g)
        assert not oracle.is_stable_under(substitution_images(*g))


def test_bad_prime_point_is_certified_over_the_next_prime():
    # 31 divides a coefficient denominator at t = (1/31, 1, 1, 1): the F31
    # resolution moves to F37 and says so instead of crashing, while the
    # pipeline reads its quotient dimensions over Q and moves no prime
    from heis7.checks import Context, RunConfig, check_surface_betti, check_surface_pipeline
    from heis7.field import fp

    t = (Fraction(1, 31), 1, 1, 1)
    S = surface_ideal(t)
    assert S.coefficient_domain(fp(31)) == fp(37)
    f37 = fp(37)
    assert S.coefficient_domain(f37) is f37
    assert S.coefficient_domain(QQ) is QQ
    assert surface_ideal((Fraction(1, 31 * 37), 1, 1, 1)).coefficient_domain(fp(31)) == fp(41)
    ctx = Context(RunConfig(extra_t=t, sample_points=2))
    res = check_surface_betti(ctx)
    assert res.status == "pass", res.details
    assert "over F37, as 31 divides a denominator" in res.details
    res = check_surface_pipeline(ctx)
    assert res.status == "pass" and "divides" not in res.details, res.details


def test_cubics_dependent_mod_p_move_the_prime():
    # at t = (6/5, -3/8, 6, 3) every cubic vanishes mod 3, though 3 divides
    # no denominator; 5 divides one, so the resolution prime is 11
    from heis7.field import fp

    S = surface_ideal((Fraction(6, 5), Fraction(-3, 8), 6, 3))
    assert [S.bad_prime(q) for q in (3, 5, 11)] == [
        "as the cubics are dependent mod 3",
        "as 5 divides a denominator",
        "",
    ]
    assert S.coefficient_domain(fp(3)) == fp(11)


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
    # at t = (1, 0, 0, 0) the 21 cubics are dependent: the point has no solver
    from heis7.checks import Context, RunConfig, check_surface_pipeline, check_surface_stability

    S = surface_ideal((1, 0, 0, 0))
    assert S.degenerate and S.solver is None
    ctx = Context(RunConfig(sample_points=2))
    monkeypatch.setattr(ctx, "surfaces", lambda: [S])
    res = check_surface_stability(ctx)
    assert (res.status, res.details) == ("fail", "t=(1, 0, 0, 0): basis is linearly dependent")
    res = check_surface_pipeline(ctx)
    assert res.status == "fail" and res.details.startswith("t=(1, 0, 0, 0): span dimension != 21")
