import random
from fractions import Fraction
from operator import add, mul, sub

import pytest
from hypothesis import example, given, seed, settings, strategies as st

from heis7.field import QQ, fp, zeta
from heis7.moduli import delta_ops
from heis7.poly import (
    Poly,
    REG_TU,
    REG_U,
    REG_X,
    REG_Y,
    VarRegistry,
    grevlex_key,
    kernel_of_operators,
    linear_form,
    monomial_basis,
    parse_poly,
    render_poly,
)
from oracles import CYC


@pytest.mark.parametrize("dom", [QQ, fp(31)], ids=["QQ", "F31"])
def test_linear_form_is_the_sum_of_its_monomials(dom):
    # zero coefficients (0, and 31 over F31) leave no term
    coeffs = [0, Fraction(3, 4), -2, 31]
    want = Poly.zero(REG_U, dom)
    for i, c in enumerate(coeffs):
        e = [0] * 4
        e[i] = 1
        want = want + Poly.monomial(REG_U, e, c, dom)
    got = linear_form(REG_U, coeffs, dom)
    assert got == want and got.terms == want.terms and got.dom == dom
    assert len(got.terms) == (3 if dom is QQ else 2)
    assert linear_form(REG_U, [Fraction(0)] * 4, dom).is_zero()
    # the domain's inverse is exact: over Q a Fraction, never a float
    assert dom.mul(dom.inv(dom.coerce(3)), dom.coerce(3)) == dom.one
    assert QQ.inv(3) == Fraction(1, 3) and type(QQ.inv(3)) is Fraction


def rand_poly(rng, reg, deg, terms=4):
    out = Poly.zero(reg, QQ)
    for _ in range(terms):
        e = [0] * reg.n
        for _ in range(deg):
            e[rng.randrange(reg.n)] += 1
        out = out + Poly.monomial(reg, e, Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
    return out


def test_grevlex_order():
    # x0^2 > x0 x1 > x1^2 > x0 x2 in three variables
    r = VarRegistry(["x0", "x1", "x2"])
    ms = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1)]
    assert sorted(ms, key=grevlex_key, reverse=True) == ms


def test_substitution_examples():
    sig = [Poly.var(REG_X, f"x{(j - 1) % 7}") for j in range(7)]
    assert parse_poly("x0*x1*x2", REG_X).substitute(sig) == parse_poly("x6*x0*x1", REG_X)
    ident = [Poly.var(REG_X, f"x{j}") for j in range(7)]
    f = rand_poly(random.Random(1), REG_X, 3)
    assert f.substitute(ident) == f
    # the images alpha_t passes: constants for the t-variables, one of them
    # zero, and the u-variables of another registry
    t = [Fraction(2), Fraction(0), Fraction(-1, 3), Fraction(5)]
    images = [Poly.const(REG_U, x) for x in t] + [Poly.var(REG_U, f"u{i}") for i in range(4)]
    f = rand_poly(random.Random(3), REG_TU, 3, terms=12) + parse_poly("t1*u0^2 + t0^2*u3 - 4*u1*u2^2", REG_TU)
    want = {}
    for e, c in f.terms.items():
        for x, a in zip(t, e[:4]):
            c *= x**a
        want[e[4:]] = want.get(e[4:], 0) + c
    got = f.substitute(images)
    assert got.reg == REG_U and got.terms == {e: c for e, c in want.items() if c}
    assert any(e[1] for e in f.terms)  # some term meets the zero image


def test_substitution_composition_law():
    rng = random.Random(17)
    # images compose by substituting the inner map into the outer images
    g = [linear_form(REG_X, [Fraction(rng.randint(-3, 3)) for _ in range(7)]) for _ in range(7)]
    h = [linear_form(REG_X, [Fraction(rng.randint(-3, 3)) for _ in range(7)]) for _ in range(7)]
    gh = [hi.substitute(g) for hi in h]
    f = rand_poly(rng, REG_X, 2)
    assert f.substitute(gh) == f.substitute(h).substitute(g)


def test_substitution_respects_products():
    rng = random.Random(7)
    sig = [Poly.var(REG_X, f"x{(j - 1) % 7}") for j in range(7)]
    for _ in range(30):
        a, b = rand_poly(rng, REG_X, 2), rand_poly(rng, REG_X, 3)
        assert (a * b).substitute(sig) == a.substitute(sig) * b.substitute(sig)


def test_diffop_examples():
    d1, d2, d3 = delta_ops()
    u = lambda s: parse_poly(s, REG_U)
    assert d1.apply(u("u0*u1")) == Poly.const(REG_U, 1)
    assert d3.apply(u("u1^2+u0*u3")).is_zero()
    assert d1.apply(u("u2^2")) == Poly.const(REG_U, -1)


def test_diffop_bilinear_and_enumerated():
    d1, _, _ = delta_ops()
    rng = random.Random(23)
    f, g = rand_poly(rng, REG_U, 3), rand_poly(rng, REG_U, 3)
    assert d1.apply(f + g) == d1.apply(f) + d1.apply(g)
    assert d1.apply(f.scale(Fraction(3, 2))) == d1.apply(f).scale(Fraction(3, 2))
    # against brute-force monomial enumeration for all monomials of degree <= 4
    for d in range(5):
        for e in monomial_basis(REG_U, d):
            m = Poly.monomial(REG_U, e, 1)
            # d1 = d/du0 d/du1 - 1/2 d^2/du2^2 evaluated by hand
            manual = m.diff(0).diff(1) - m.diff(2, 2).scale(Fraction(1, 2))
            assert d1.apply(m) == manual


def test_kernel_dimensions():
    ops = delta_ops()
    assert len(kernel_of_operators(ops, 2)) == 7
    assert len(kernel_of_operators(ops, 1)) == 4
    assert len(kernel_of_operators([], 2, REG_U)) == 10


def test_homogeneity_preserved():
    rng = random.Random(4)
    a, b = rand_poly(rng, REG_X, 2), rand_poly(rng, REG_X, 3)
    if not a.is_zero() and not b.is_zero():
        assert (a * b).is_homogeneous()
        assert (a * b).degree() == 5


def test_parse_render():
    f = parse_poly("3*x0^2*x1 - x2*x3*x6 + 1/2*x4^3", REG_X)
    assert parse_poly(render_poly(f), REG_X) == f
    g = parse_poly("(z^2)*x4 - x0", REG_X, CYC)
    assert parse_poly(render_poly(g), REG_X, CYC) == g
    with pytest.raises(ValueError):
        parse_poly("(z + r2)*x4", REG_X, CYC)
    with pytest.raises(ValueError):
        parse_poly("x9", REG_X)
    # an unclosed parenthesis, a zero denominator and a coefficient outside Q
    for bad in ["(1", "x0*(2", "2/0*x0", "(z)*x0"]:
        with pytest.raises(ValueError):
            parse_poly(bad, REG_X)
    # seeded round trips with negative, fractional and irrational
    # coefficients and a constant term
    rng = random.Random(20)
    for dom in (QQ, fp(31), CYC):
        texts = []
        for _ in range(20):
            terms = {(0,) * 7: dom.coerce(rng.randint(1, 9))}
            for _ in range(rng.randint(1, 5)):
                c = dom.coerce(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                if dom is CYC:
                    c = c + zeta(rng.randrange(1, 7)) * rng.randint(-2, 2)
                terms[tuple(rng.choice((0, 0, 1, 2)) for _ in range(7))] = c
            p = Poly(REG_X, dom, terms)
            texts.append(render_poly(p))
            assert parse_poly(texts[-1], REG_X, dom) == p, texts[-1]
        assert any(t[-1].isdigit() for t in texts)
        if dom is QQ:
            assert any(" - " in t for t in texts) and any("/" in t for t in texts)
        if dom is CYC:
            assert any("(" in t for t in texts)


def test_registry_mismatch():
    f = parse_poly("u0*u1", REG_U)
    g = parse_poly("x0", REG_X)
    with pytest.raises(ValueError):
        _ = f + g


_IN_U = r"in \('u0', 'u1', 'u2', 'u3'\)"


@pytest.mark.parametrize("op", [add, sub, mul], ids=["add", "sub", "mul"])
def test_arithmetic_refuses_a_form_of_another_ring(op):
    q = parse_poly("u0 + 1/2*u1", REG_U)
    f = parse_poly("u0 + 3*u2", REG_U, fp(5))
    with pytest.raises(ValueError, match=rf"form over F5 {_IN_U} for arithmetic with a form over Q {_IN_U}"):
        op(q, f)
    with pytest.raises(ValueError, match=rf"form over Q {_IN_U} for arithmetic with a form over F5 {_IN_U}"):
        op(f, q)


def test_forms_of_two_rings_are_never_equal():
    # the constant 2 over Q and over F5 hold equal coefficients
    q, f = Poly.const(REG_U, 2), Poly.const(REG_U, 2, fp(5))
    assert q.terms == f.terms
    assert q != f and f != q and not q == f
    assert Poly.const(REG_U, 2, fp(5)) == f == 2 and q == 2


def test_form_matrix_refuses_an_entry_of_another_ring():
    from heis7.formmat import FormMatrix

    q = parse_poly("u0 + 1/2*u1", REG_U)
    f = parse_poly("u0 + u2", REG_U, fp(5))
    with pytest.raises(ValueError, match=rf"entry over F5 {_IN_U} for a form matrix over Q {_IN_U}"):
        FormMatrix([[q, f]])
    with pytest.raises(ValueError, match=rf"entry over Q {_IN_U} for a form matrix over F5 {_IN_U}"):
        FormMatrix([[f], [q]])


def test_form_matrix_refuses_empty_and_ragged_shapes():
    from heis7.formmat import FormMatrix, det_form

    u0, u1, u2 = (Poly.var(REG_U, f"u{i}") for i in range(3))
    for entries in ([], [[]]):
        with pytest.raises(ValueError, match="^form matrix is empty$"):
            FormMatrix(entries)
    with pytest.raises(ValueError, match=r"^form matrix is ragged: row lengths \[1, 2\]$"):
        FormMatrix([[u0], [u1, u2]])
    with pytest.raises(ValueError, match=r"^form matrix is ragged: row lengths \[2, 1\]$"):
        det_form(FormMatrix([[u0, u1], [u2]]))


def _det_cases(rng):
    """Seeded square matrices of integer coefficient triples (linear forms
    in y1, y2, y3), sizes 1-6, with zero entries, a zero row and repeated
    rows."""
    for size in range(1, 7):
        for _ in range(3):
            # about one entry in four is the zero form
            entry = lambda: [0, 0, 0] if rng.random() < 0.25 else [rng.randint(-3, 3) for _ in range(3)]
            yield [[entry() for _ in range(size)] for _ in range(size)]
        rows = [[[rng.randint(-3, 3) for _ in range(3)] for _ in range(size)] for _ in range(size)]
        yield rows[:-1] + [[[0, 0, 0]] * size]
        if size > 1:
            yield rows[:-1] + [rows[0]]


def test_det_form_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    from heis7.formmat import FormMatrix, det_form
    from heis7.poly import REG_Y

    ring = sympy.ZZ[sympy.symbols("y1 y2 y3")]
    rng = random.Random(91)
    for case in _det_cases(rng):
        m = FormMatrix([[linear_form(REG_Y, c) for c in row] for row in case])
        forms = [[sum((a * y for a, y in zip(c, ring.gens)), ring.zero) for c in row] for row in case]
        want = DomainMatrix(forms, (len(case), len(case)), ring).det()
        got = det_form(m)
        assert got.terms == {e: Fraction(int(c)) for e, c in want.terms() if c != 0}, case
    with pytest.raises(ValueError, match="non-square"):
        det_form(FormMatrix([[linear_form(REG_Y, [1, 0, 0]), linear_form(REG_Y, [0, 1, 0])]]))


def _generic_alternating(size):
    """The generic alternating matrix of the given size: one variable a_ij
    per entry above the diagonal, -a_ij below it."""
    from heis7.formmat import FormMatrix

    pairs = [(i, j) for i in range(size) for j in range(i + 1, size)]
    reg = VarRegistry([f"a{i}{j}" for i, j in pairs])
    var = {ij: linear_form(reg, [int(k == n) for k in range(len(pairs))]) for n, ij in enumerate(pairs)}
    zero = Poly.zero(reg, QQ)
    rows = [[var[(i, j)] if i < j else -var[(j, i)] if i > j else zero for j in range(size)] for i in range(size)]
    return FormMatrix(rows, skew=True)


@pytest.mark.parametrize("size", [2, 4, 6])
def test_pfaffian_squares_to_the_determinant_generically(size):
    # pfaffian and det_form expand by ring operations only, so they commute
    # with substitution: the identity on the generic alternating matrix
    # gives Pf(A)^2 = det(A) for every alternating matrix over a commutative
    # Q-algebra
    from heis7.formmat import det_form, pfaffian

    m = _generic_alternating(size)
    pf = pfaffian(m)
    assert not pf.is_zero() and pf * pf == det_form(m)


def test_pfaffian_of_size_four_against_sympy():
    # sympy factors the generic 4 x 4 determinant as the square of a
    # quadric; the Pfaffian is that quadric, with the sign that makes the
    # standard block [[0, 1], [-1, 0]] + [[0, 1], [-1, 0]] have Pfaffian 1
    sympy = pytest.importorskip("sympy")
    from heis7.formmat import pfaffian

    m = _generic_alternating(4)
    a = sympy.symbols(m.reg.names)
    entry = dict(zip([(i, j) for i in range(4) for j in range(i + 1, 4)], a))
    mat = sympy.Matrix(4, 4, lambda i, j: entry[(i, j)] if i < j else -entry[(j, i)] if i > j else 0)
    _, factors = sympy.factor_list(mat.det())
    (base, power), = factors
    quadric = sympy.Poly(base, *a)
    if quadric.coeff_monomial(entry[(0, 1)] * entry[(2, 3)]) < 0:
        quadric = -quadric
    assert power == 2
    assert pfaffian(m).terms == {e: Fraction(int(c)) for e, c in quadric.terms()}


# Q polynomials in y1, y2, y3 with exponents below 2: eight monomials, so
# products of two of them meet often and can cancel; coefficients carry
# denominators, and the empty dict is the zero polynomial
_q_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 1)] * 3),
    st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool),
    max_size=6,
).map(lambda terms: Poly(REG_Y, QQ, terms))


def _termwise_product(a, b):
    """a * b term by term on Fractions, dropping a term whose partial sum
    vanishes, as the loop over the domain's mul and add does."""
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            c = out.get(e, Fraction(0)) + c1 * c2
            if c:
                out[e] = c
            else:
                out.pop(e, None)
    return out


@seed(4101)
@settings(max_examples=150, deadline=None)
@given(_q_polys, _q_polys)
# (y1 + y2)(y1 - y2): the mixed terms cancel; (y1/2 - y2/3)(y1/2 + y2/3)
# over denominators; a factor zero
@example(parse_poly("y1 + y2", REG_Y), parse_poly("y1 - y2", REG_Y))
@example(parse_poly("1/2*y1 - 1/3*y2", REG_Y), parse_poly("1/2*y1 + 1/3*y2", REG_Y))
@example(parse_poly("2/3*y1*y2 + 5", REG_Y), Poly.zero(REG_Y, QQ))
def test_q_products_equal_the_termwise_and_sympy_products(a, b):
    sympy = pytest.importorskip("sympy")
    got = a * b
    # the same terms in the same order, each one nonzero Fraction
    assert list(got.terms.items()) == list(_termwise_product(a, b).items())
    assert all(type(c) is Fraction and c for c in got.terms.values())
    ys = sympy.symbols("y1 y2 y3")

    def expr(p):
        return sum(
            (sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(y**k for y, k in zip(ys, e))) for e, c in p.terms.items()),
            sympy.Integer(0),
        )

    want = sympy.Poly(sympy.expand(expr(a) * expr(b)), *ys)
    assert got.terms == {e: Fraction(int(c.p), int(c.q)) for e, c in want.terms() if c != 0}


@seed(4102)
@settings(max_examples=100, deadline=None)
@given(_q_polys, _q_polys)
def test_same_ring_arithmetic_and_equality_hold(a, b):
    # over Q: sums and differences term by term, == exactly on equal terms
    keys = a.terms | b.terms
    assert (a + b).terms == {e: c for e in keys if (c := a.coeff(e) + b.coeff(e))}
    assert (a - b).terms == {e: c for e in keys if (c := a.coeff(e) - b.coeff(e))}
    assert (a * b).terms == _termwise_product(a, b)
    assert (a == b) == (a.terms == b.terms) and a == Poly(REG_Y, QQ, dict(a.terms))
    # two fp(31) built apart are one ring: the operands may come from either,
    # and each result is the Q result reduced mod 31
    F, G = fp(31), fp(31)
    a31, b31 = a.map_coeffs(F.coerce, F), b.map_coeffs(G.coerce, G)
    for got, want in ((a31 + b31, a + b), (a31 - b31, a - b), (a31 * b31, a * b), (b31 * a31, b * a)):
        assert got == want.map_coeffs(G.coerce, G) and got.terms == want.map_coeffs(F.coerce, F).terms
    assert (a31 == b31) == (a - b).map_coeffs(F.coerce, F).is_zero()
    assert a31 == a.map_coeffs(G.coerce, G) and a31 != a
