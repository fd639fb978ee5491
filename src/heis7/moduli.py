"""Wedge calculus, the quadric-net criterion, the Klein quartic models, and
the explicit rational family of Heisenberg-invariant abelian surface ideals.

Conventions fixed here (each one is verified by tests, not assumed):

* Lambda^6 V is identified with the dual of V by sending a wedge of six
  distinct basis vectors e_{i1} ^ ... ^ e_{i6} to sgn(pi) x_k, where k is the
  missing index and pi sorts (i1 .. i6 k) into (0 .. 6).  This calibration
  reproduces the three displayed composition matrices entry for entry.
* Seven-vectors over the net-kernel quadrics come in two classical
  enumerations differing by a transposition of the two mixed-square
  quadrics: the display order (f3, f1, f2, f4, f5, f6, f0), which the
  invariant-cubic pairing of the surface family uses, and the
  generator-list order (f3, f1, f2, f4, f6, f5, f0), under which the rows
  of the 3x7 parametrization cut out twisted cubics and match the minor
  span of the universal family matrix.  The tests detect, rather than
  assume, which identity holds in which enumeration.
* The plane-quartic variables are v1 = e1 - e6, v2 = e2 - e5, v3 = e4 - e3
  (the eigenbasis order that makes v1^3 v2 + v2^3 v3 + v3^3 v1 invariant);
  y1, y2, y3 are the dual coordinates, acting on v-polynomials as partial
  derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, reduce
from math import lcm
from operator import add, mul
from typing import NamedTuple

import numpy as np

from .field import _WIDE, _float_route, _imatmul, _ints, QQ, CycArray, FpDomain, fp
from .formmat import FormMatrix, det_form, pfaffian_vector
from .groebner import GradedIdeal
from .heisenberg import IOTA, SIGMA, TAU
from .linalg import rank as mat_rank
from .poly import (
    DiffOp,
    Poly,
    VarRegistry,
    REG_T,
    REG_TU,
    REG_U,
    REG_V,
    REG_X,
    REG_Y,
    coefficient_rows,
    linear_form,
    monomial_basis,
    parse_poly,
    render_poly,
)

# ---------------------------------------------------------------------------
# wedge representatives in Lambda^3 V


def _sort_triple(t):
    a, b, c = t
    sign = 1
    if a > b:
        a, b = b, a
        sign = -sign
    if b > c:
        b, c = c, b
        sign = -sign
    if a > b:
        a, b = b, a
        sign = -sign
    if a == b or b == c:
        return None, 0
    return (a, b, c), sign


class Wedge3(dict):
    """Element of Lambda^3 V: sorted index triples -> integer coefficients."""

    @staticmethod
    def term(a, b, c, coeff=1):
        key, sign = _sort_triple(((a % 7), (b % 7), (c % 7)))
        w = Wedge3()
        if key is not None and coeff:
            w[key] = sign * coeff
        return w

    def __add__(self, other):
        out = Wedge3(self)
        for k, v in other.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return out

    def __neg__(self):
        return Wedge3({k: -v for k, v in self.items()})

    def shift(self):
        out = Wedge3()
        for (a, b, c), v in self.items():
            out = out + Wedge3.term(a + 1, b + 1, c + 1, v)
        return out


@cache
def _perm_sign(seq: tuple) -> int:
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def wedge_pair_to_dual(w1: Wedge3, w2: Wedge3) -> Poly:
    """Wedge product Lambda^3 x Lambda^3 -> Lambda^6 = V-dual, as a linear
    form in the x-variables."""
    out = Poly.zero(REG_X, QQ)
    for t1, c1 in w1.items():
        for t2, c2 in w2.items():
            if set(t1) & set(t2):
                continue
            missing = (set(range(7)) - set(t1) - set(t2)).pop()
            sign = _perm_sign(t1 + t2 + (missing,))
            e = [0] * 7
            e[missing] = 1
            out = out + Poly.monomial(REG_X, tuple(e), Fraction(sign * c1 * c2))
    return out


@dataclass
class WedgeRep:
    """sigma-equivariant 7-vector of Lambda^3 V elements."""

    entries: list  # seven Wedge3 values, index k is the sigma^k shift

    def check_shift_consistency(self) -> bool:
        return all(self.entries[(k + 1) % 7] == self.entries[k].shift() for k in range(7))


def wedge_reps():
    """The four equivariant wedge vectors plus the invariant complement line."""
    seeds = {
        0: Wedge3.term(1, 4, 2) + (-Wedge3.term(6, 3, 5)),
        1: Wedge3.term(0, 1, 6),
        2: Wedge3.term(0, 2, 5),
        3: Wedge3.term(0, 4, 3),
    }
    reps = {}
    for lab, seed in seeds.items():
        entries = [seed]
        for _ in range(6):
            entries.append(entries[-1].shift())
        reps[lab] = WedgeRep(entries)
    complement = Wedge3.term(1, 4, 2) + Wedge3.term(6, 3, 5)
    comp_vec = [complement]
    for _ in range(6):
        comp_vec.append(comp_vec[-1].shift())
    return reps, comp_vec


@cache
def _compose_table() -> dict:
    """compose_u of all 16 pairs, from one set of wedge vectors."""
    reps, _ = wedge_reps()
    return {
        (i, j): FormMatrix([[wedge_pair_to_dual(ui.entries[r], uj.entries[s]) for s in range(7)] for r in range(7)])
        for i, ui in reps.items()
        for j, uj in reps.items()
    }


def compose_u(i: int, j: int) -> FormMatrix:
    """The 7x7 matrix of linear forms of the composition of wedge vectors."""
    return _compose_table()[i, j]


def _b_from_pattern(pattern):
    """pattern: list of (row, col, var_index, sign) for the nonzero entries."""
    z = Poly.zero(REG_X, QQ)
    rows = [[z] * 7 for _ in range(7)]
    for r, c, v, s in pattern:
        e = [0] * 7
        e[v] = 1
        rows[r][c] = Poly.monomial(REG_X, tuple(e), Fraction(s))
    return FormMatrix(rows)


def printed_b_matrices():
    """The three displayed composition matrices, as fixtures."""
    b1 = _b_from_pattern(
        [(0, 1, 4, 1), (0, 6, 3, -1), (1, 0, 4, -1), (1, 2, 5, 1), (2, 1, 5, -1),
         (2, 3, 6, 1), (3, 2, 6, -1), (3, 4, 0, 1), (4, 3, 0, -1), (4, 5, 1, 1),
         (5, 4, 1, -1), (5, 6, 2, 1), (6, 0, 3, 1), (6, 5, 2, -1)]
    )
    b2 = _b_from_pattern(
        [(0, 2, 1, 1), (0, 5, 6, -1), (1, 3, 2, 1), (1, 6, 0, -1), (2, 0, 1, -1),
         (2, 4, 3, 1), (3, 1, 2, -1), (3, 5, 4, 1), (4, 2, 3, -1), (4, 6, 5, 1),
         (5, 0, 6, 1), (5, 3, 4, -1), (6, 1, 0, 1), (6, 4, 5, -1)]
    )
    b3 = _b_from_pattern(
        [(0, 3, 5, -1), (0, 4, 2, 1), (1, 4, 6, -1), (1, 5, 3, 1), (2, 5, 0, -1),
         (2, 6, 4, 1), (3, 0, 5, 1), (3, 6, 1, -1), (4, 0, 2, -1), (4, 1, 6, 1),
         (5, 1, 3, -1), (5, 2, 0, 1), (6, 2, 4, -1), (6, 3, 1, 1)]
    )
    return b1, b2, b3


def composition_table_report():
    """Verify the full 4x4 composition table against the displayed matrices."""
    b1, b2, b3 = printed_b_matrices()
    expected = {
        (0, 1): b1, (1, 0): b1, (2, 2): -b1,
        (0, 2): b2, (2, 0): b2, (3, 3): -b2,
        (0, 3): b3, (3, 0): b3, (1, 1): -b3,
    }
    failures = []
    for i in range(4):
        for j in range(4):
            got = compose_u(i, j)
            want = expected.get((i, j))
            if want is None:
                if not got.is_zero():
                    failures.append(f"u{i}u{j} expected 0")
            elif got != want:
                failures.append(f"u{i}u{j} does not match the displayed matrix")
    # commutativity across all pairs
    for i in range(4):
        for j in range(i + 1, 4):
            if compose_u(i, j) != compose_u(j, i):
                failures.append(f"u{i}u{j} != u{j}u{i}")
    return failures


# ---------------------------------------------------------------------------
# the quadric net and its kernel


def delta_ops():
    h = Fraction(-1, 2)
    d1 = DiffOp(REG_U, {(1, 1, 0, 0): 1, (0, 0, 2, 0): h})
    d2 = DiffOp(REG_U, {(1, 0, 1, 0): 1, (0, 0, 0, 2): h})
    d3 = DiffOp(REG_U, {(1, 0, 0, 1): 1, (0, 2, 0, 0): h})
    return [d1, d2, d3]


def net_matrices():
    """Symmetric 4x4 coefficient matrices of the net (1/2 on off-diagonals)."""
    h = Fraction(1, 2)
    m1 = [[0, h, 0, 0], [h, 0, 0, 0], [0, 0, -h, 0], [0, 0, 0, 0]]
    m2 = [[0, 0, h, 0], [0, 0, 0, 0], [h, 0, 0, 0], [0, 0, 0, -h]]
    m3 = [[0, 0, 0, h], [0, -h, 0, 0], [0, 0, 0, 0], [h, 0, 0, 0]]
    return [
        [[Fraction(x) for x in row] for row in m]
        for m in (m1, m2, m3)
    ]


@cache
def _parsed(s: str, reg) -> tuple:
    """The terms of a constant table entry, parsed once and kept as an
    immutable tuple of (exponent, coefficient) pairs."""
    return tuple(parse_poly(s, reg).terms.items())


def _poly(s: str, reg) -> Poly:
    """A constant table entry as a Poly of its own, so that no caller can
    change the parsed table."""
    return Poly(reg, QQ, dict(_parsed(s, reg)), _clean=True)


def f_basis():
    """f0..f6: the V22-net quadrics, plus the complementary triple v1..v3."""
    f = ["u0^2", "u2*u3", "u3*u1", "u1*u2", "u0*u3+u1^2", "u0*u1+u2^2", "u0*u2+u3^2"]
    v = {3: "u0*u3-u1^2", 2: "u0*u1-u2^2", 1: "u0*u2-u3^2"}
    return {i: _poly(s, REG_U) for i, s in enumerate(f)}, {i: _poly(s, REG_U) for i, s in v.items()}


L_BASIS_ORDER = (3, 1, 2, 4, 5, 6, 0)  # the fixed ordering (f3,f1,f2,f4,f5,f6,f0)
# the net-kernel generator list enumerates the two mixed-square quadrics the
# other way around; the family-matrix span identity holds in this order
L_GENLIST_ORDER = (3, 1, 2, 4, 6, 5, 0)


def j_ideal() -> GradedIdeal:
    f, _ = f_basis()
    return GradedIdeal(REG_U, QQ, [f[i] for i in range(7)])


# ---------------------------------------------------------------------------
# alpha matrices and the annihilation criterion


@dataclass(frozen=True)
class AlphaMatrix:
    """3x2 matrix of linear forms in the u-variables, held as its integer
    coefficient lift: entry (r, c) is sum_k nums[8r + 4c + k] u_k / den,
    where den is the least common denominator of the 24 rational
    coefficients (1 for the zero matrix).

    Both constructors lift once, so no criterion reads a Poly: `from_coeffs`
    from the rationals themselves, `from_entries` from six Poly linear
    forms.  Equal matrices have equal lifts.  `entries` is the Poly view of
    the lift, built on first use for minors() and the test oracles.  Frozen,
    so that the lift is never rebound under the cached `contraction`, from
    which alpha_compose, delta_criterion and minor_rows all read.
    """

    nums: tuple  # 24 ints, coefficient k of entry (r, c) at 8r + 4c + k
    den: int

    @cached_property
    def entries(self):
        """The 3x2 Poly linear forms over REG_U that the lift stands for."""
        q = [Fraction(n, self.den) for n in self.nums]
        return [[linear_form(REG_U, q[8 * r + 4 * c : 8 * r + 4 * c + 4]) for c in range(2)] for r in range(3)]

    def minors(self):
        e = self.entries
        out = []
        for r, s in ((0, 1), (0, 2), (1, 2)):
            out.append(e[r][0] * e[s][1] - e[r][1] * e[s][0])
        return out

    @cached_property
    def contraction(self):
        """(N, den): the read-only integer contraction of `_contract_alpha`,
        formed on first use and read by every criterion of this matrix."""
        return _contract_alpha(self)

    @staticmethod
    def from_coeffs(coeffs):
        """coeffs[r][c][k] is coefficient k of entry (r, c), any value that
        QQ.coerce takes; nested lists, tuples or arrays of any shape but
        3x2x4 are refused."""
        _require_shape(coeffs, (3, 2, 4))
        return _lift([QQ.coerce(c) for row in coeffs for entry in row for c in entry])

    @staticmethod
    def from_entries(entries):
        """entries[r][c] is a linear form over Q in the u-variables; an entry
        over another domain or of another degree is refused."""
        return _lift([c for row in entries for p in row for c in _lin_coeffs(p)])


_NESTING = (list, tuple, np.ndarray)


def _nested_shape(x):
    """The shape of x as nested lists, tuples or arrays, read the way numpy
    reads one, or None when the nesting is ragged."""
    shape, level = [], [x]
    while level and all(isinstance(v, _NESTING) for v in level):
        sizes = {len(v) for v in level}
        if len(sizes) > 1:
            return None
        shape.append(sizes.pop())
        level = [w for v in level for w in v]
    if any(isinstance(v, _NESTING) for v in level):
        return None
    return tuple(shape)


def _require_shape(x, want: tuple):
    """Refuse alpha coefficients x unless their nested shape is want."""
    shape = _nested_shape(x)
    if shape != want:
        got = "a ragged shape" if shape is None else f"shape {shape}"
        raise ValueError(f"alpha coefficients have {got}, not shape {want}")


def _lift(coeffs) -> AlphaMatrix:
    """The AlphaMatrix of 24 Fractions in (r, c, k) order, cleared to
    Python ints by their least common denominator (a Fraction read from a
    numpy integer keeps it as its numerator, whose int64 arithmetic wraps)."""
    ratios = [(int(p), int(q)) for p, q in (c.as_integer_ratio() for c in coeffs)]
    d = lcm(*[q for _, q in ratios])
    return AlphaMatrix(tuple(p * (d // q) for p, q in ratios), d)


_UNIT = {tuple(int(i == k) for i in range(4)): k for k in range(4)}  # e_k -> k


def _lin_coeffs(p: Poly):
    if p.dom is not QQ:
        raise ValueError(f"alpha entry {render_poly(p)} is over {p.dom.name}, not Q")
    out = [QQ.zero] * 4
    for e, c in p.terms.items():
        k = _UNIT.get(e)
        if k is None:
            raise ValueError(f"alpha entry {render_poly(p)} is not a linear form")
        out[k] = c
    return out


@cache
def composition_tensor():
    """The composition table as a sparse integer 4x4x7x7x7 tensor.

    A tuple of ((k, l), (((row, col, var), coeff), ...)) over the nonzero
    compose_u(k, l), read once from those matrices: compose_u(k, l)[row, col]
    is the sum of coeff * x_var over its entries.
    """
    table = []
    for k in range(4):
        for l in range(4):
            m = compose_u(k, l)
            entries = []
            for row in range(7):
                for col in range(7):
                    for e, c in m[row, col].terms.items():
                        if sum(e) != 1 or Fraction(c).denominator != 1:
                            raise ValueError(
                                f"compose_u({k}, {l}) entry ({row}, {col}) is "
                                "not an integer linear form"
                            )
                        entries.append(((row, col, e.index(1)), int(c)))
            if entries:
                table.append(((k, l), tuple(entries)))
    return tuple(table)


def _composition_columns():
    """(T, keys): composition_tensor() as a dense 16 x m int64 matrix.

    T[4k + l, i] is the coefficient of x_var at (row, col) = keys[i][:2] of
    compose_u(k, l), var = keys[i][2], over the m positions that some
    compose_u(k, l) uses.
    """
    tensor = composition_tensor()
    keys = sorted({key for _, entries in tensor for key, _ in entries})
    index = {key: i for i, key in enumerate(keys)}
    t = np.zeros((16, len(keys)), dtype=np.int64)
    for (k, l), entries in tensor:
        for key, v in entries:
            t[4 * k + l, index[key]] = v
    return t, keys


def _pairing():
    """The 16 x 3 int64 matrix P[4k + l, j] = d_j(u_k u_l) of the three net
    operators on the quadratic monomials, read from delta_ops() through
    DiffOp.apply.  A value that is not an integer constant is refused."""
    ops = delta_ops()
    p = np.zeros((16, 3), dtype=np.int64)
    for k in range(4):
        for l in range(4):
            e = [0] * 4
            e[k] += 1
            e[l] += 1
            for j, op in enumerate(ops):
                value = op.apply(Poly.monomial(REG_U, e, 1))
                for e_val, c in value.terms.items():
                    if any(e_val) or Fraction(c).denominator != 1:
                        raise ValueError(
                            f"{op!r} takes u{k}*u{l} to {render_poly(value)}, "
                            "not an integer constant"
                        )
                    p[4 * k + l, j] = int(c)
    return p


def _monomial_fold():
    """The 16 x 10 0/1 matrix F taking position 4k + l of u_k u_l to its
    quadratic monomial, in monomial_basis(REG_U, 2) order."""
    index = {e: i for i, e in enumerate(monomial_basis(REG_U, 2))}
    f = np.zeros((16, len(index)), dtype=np.int64)
    for k in range(4):
        for l in range(4):
            e = [0] * 4
            e[k] += 1
            e[l] += 1
            f[4 * k + l, index[tuple(e)]] = 1
    return f


# the column blocks of the joined table [T | P | F]
_COMPOSE = slice(None, -13)
_PAIR = slice(-13, -10)
_FOLD = slice(-10, None)


@cache
def _joined_table():
    """(J, keys, norm, S, S_float): the 16 x (m + 13) int64 matrix
    [T | P | F] of the composition columns, the net pairing and the
    monomial fold, built once; keys are T's column keys, norm is J's largest
    absolute column sum, and S = [J; -J] is the 32-row stacked table that
    _contract_alpha multiplies, with its float64 copy S_float."""
    t, keys = _composition_columns()
    j = np.hstack([t, _pairing(), _monomial_fold()])
    stacked = np.vstack([j, -j])
    return j, keys, int(np.abs(j).sum(axis=0).max()), stacked, stacked.astype(np.float64)


def _product_indices():
    """(L, R): indices into an alpha lift a (a[8r + 4c + k] is coefficient
    k of entry (r, c)) with a[L] a[R] at row 3r + s, column 16h + 4k + l
    equal to a_r0[k] a_s1[l] for h = 0 and a_r1[k] a_s0[l] for h = 1, the
    two products of the minor a_r0 a_s1 - a_r1 a_s0."""
    r, s, h, k, l = np.indices((3, 3, 2, 4, 4)).reshape(5, 9, 32)
    return 8 * r + 4 * h + k, 8 * s + 4 * (1 - h) + l


_LEFT, _RIGHT = _product_indices()


def _contract_alpha(alpha: AlphaMatrix):
    """(N, den): alpha's coefficient products contracted once with the
    joined table [T | P | F], as a read-only 9 x (m + 13) integer array over
    one denominator.

    Read off alpha's stored lift a (integers over D): the 9 x 32 matrix
    X = [A | B] = a[L] a[R] of _product_indices holds
    A[3r + s, 4k + l] = a_r0[k] a_s1[l] and B[3r + s, 4k + l] =
    a_r1[k] a_s0[l], and N = X @ [J; -J] = (A - B) @ J over den = D^2, so
    that row 3r + s pairs the table with the minor
    a_r0 a_s1 - a_r1 a_s0 = sum_kl (A - B)[3r + s, 4k + l] u_k u_l / den.
    Every entry of X is at most top^2 in absolute value (top the largest
    |a_rc[k]|), and each output sums 32 terms whose table entries are those
    of one column of J twice, so every partial sum is at most 2 top^2 norm:
    that bound, known before X is formed, routes the product through
    field._imatmul, float64 below 2^53 (the products are then formed in
    float64, against the cached float64 table), int64 below 2^62, and Python
    ints beyond.
    """
    _, _, norm, stacked, stacked_float = _joined_table()
    top = max(map(abs, alpha.nums))
    bound = 2 * top * top * norm
    a = _float_route(np.array(alpha.nums, dtype=np.int64 if bound < _WIDE else object), bound)
    table = stacked_float if a.dtype == np.float64 else stacked
    n = _ints(_imatmul(a[_LEFT] * a[_RIGHT], table, bound))
    n.flags.writeable = False
    return n, alpha.den * alpha.den


class Composition(NamedTuple):
    """alpha alpha' as an integer array over one common denominator.

    nums[3r + s, i] / den is the coefficient of x_var at (row, col) of block
    (r, s), where (row, col, var) = keys[i]; nums is int64 or, past the
    int64 bound, Python ints.
    """

    nums: np.ndarray
    keys: list
    den: int


def alpha_compose(alpha: AlphaMatrix) -> Composition:
    """The 3x3 blocks of alpha alpha', read off alpha's cached contraction.

    Block (r, s) is the composition attached to the quadric
    a_r0 a_s1 - a_r1 a_s0, i.e. sum_kl c_kl compose_u(k, l), where c_kl is
    row 3r + s of alpha's coefficient products C.  So the blocks are
    nums = C @ T with T the dense composition table: the first m columns of
    `contraction`, every numerator exact over den = D^2 (any rational t
    stays exact).
    """
    n, den = alpha.contraction
    return Composition(n[:, _COMPOSE], _joined_table()[1], den)


def alpha_compose_is_zero(comp: Composition) -> bool:
    return not comp.nums.any()


_MINOR_ROWS = [1, 2, 5]  # rows (r, s) = (0, 1), (0, 2), (1, 2) of C and its contraction


def delta_criterion(alpha: AlphaMatrix) -> bool:
    """Whether the three net operators annihilate the three minors of alpha.

    Decided on the same cached contraction as alpha_compose, by its pairing
    columns over all nine rows at once.  That is exact: P[4k + l, j] =
    d_j(u_k u_l) is symmetric in (k, l), while row (s, r) of C is minus the
    (k, l)-transpose of row (r, s), so pairing row (s, r) is minus row
    (r, s) and row (r, r) is zero.  All nine are zero exactly when the
    three minor rows are, i.e. when alpha is annihilated.
    """
    return not alpha.contraction[0][:, _PAIR].any()


def minor_rows(alpha: AlphaMatrix) -> list:
    """The coefficient rows of alpha's three minors over
    monomial_basis(REG_U, 2), all scaled by den: the fold columns of alpha's
    cached contraction, with no Poly product."""
    return alpha.contraction[0][_MINOR_ROWS, _FOLD].tolist()


PROBE_POINT = [Fraction(k) for k in range(1, 8)]


@cache
def _probe_blocks():
    """B1, B2, B3 evaluated at the probe point, scaled by one common
    positive integer to integer object arrays."""
    blocks = [b.evaluate(PROBE_POINT) for b in printed_b_matrices()]
    d = lcm(*(Fraction(x).denominator for b in blocks for row in b for x in row))
    return tuple(np.array([[int(x * d) for x in row] for row in b], dtype=object) for b in blocks)


def block_ranks(l_coeffs) -> list:
    """The ranks of the four block combinations
    l1 B1 + l2 B2 + l3 B3 | l0 B1 - l1 B3 | l0 B2 - l2 B1 | l0 B3 - l3 B2
    at the probe point (1, 2, ..., 7).  Evaluation is linear, so each is
    the same scalar combination of the evaluated blocks; a zero
    combination has rank 0.  A nonzero scale leaves a rank unchanged, so
    the combinations are formed on integers: the blocks scaled as
    _probe_blocks gives them, and l by the lcm of its denominators."""
    b1, b2, b3 = _probe_blocks()
    l = [Fraction(x) for x in l_coeffs]
    d = lcm(*(x.denominator for x in l))
    l0, l1, l2, l3 = [int(x * d) for x in l]
    combos = [
        l1 * b1 + l2 * b2 + l3 * b3,
        l0 * b1 - l1 * b3,
        l0 * b2 - l2 * b1,
        l0 * b3 - l3 * b2,
    ]
    return [mat_rank(m.tolist(), QQ) for m in combos]


# ---------------------------------------------------------------------------
# the explicit parametrization


def psi_matrix() -> FormMatrix:
    rows = [
        ["-t0*t3", "t0*t1+t2^2", "-t3^2", "0", "t1*t3", "-t2*t3", "0"],
        ["t1^2+t0*t3", "-t2^2", "-t0*t2", "-t1*t2", "0", "t2*t3", "0"],
        [
            "t0*t1^2+t1*t2^2+t0^2*t3",
            "t2*t3^2",
            "t1^2*t3+t0*t3^2",
            "0",
            "0",
            "t0*t2*t3",
            "t1*t2*t3",
        ],
    ]
    return FormMatrix([[_poly(s, REG_T) for s in row] for row in rows])


@dataclass
class GrassPoint:
    """3x7 coordinate matrix over the fixed quadric basis (f3,f1,...,f0)."""

    rows: list  # 3x7 rationals
    t: tuple = None

    def rank(self) -> int:
        return mat_rank(self.rows, QQ)

    def quadrics(self, order=L_GENLIST_ORDER):
        """The three quadrics spanned by the rows.

        The default enumeration is the net-kernel generator list; under it
        the rows of the explicit parametrization cut out twisted cubics (the
        display enumeration transposes the two mixed-square quadrics and
        would turn the same rows into complete-intersection nets).
        """
        f, _ = f_basis()
        out = []
        for row in self.rows:
            q = Poly.zero(REG_U, QQ)
            for c, i in zip(row, order):
                q = q + f[i].scale(c)
            out.append(q)
        return out


def psi(t) -> GrassPoint:
    t = [Fraction(x) for x in t]
    if all(x == 0 for x in t):
        raise ValueError("t must be a point of projective 3-space")
    m = psi_matrix().evaluate(t)
    return GrassPoint(m, tuple(t))


def eta_klein() -> FormMatrix:
    rows = [
        ["0", "0", "0", "0", "0", "-y2", "y1"],
        ["0", "0", "0", "0", "-y3", "0", "y2"],
        ["0", "0", "0", "-y1", "0", "0", "y3"],
        ["0", "0", "y1", "0", "y2", "-y3", "0"],
        ["0", "y3", "0", "-y2", "0", "y1", "0"],
        ["y2", "0", "0", "y3", "-y1", "0", "0"],
        ["-y1", "-y2", "-y3", "0", "0", "0", "0"],
    ]
    return FormMatrix([[_poly(s, REG_Y) for s in row] for row in rows], skew=True)


def eta_coefficient_matrices():
    """N1, N2, N3 with eta = y1 N1 + y2 N2 + y3 N3 (skew, entries in {0,1,-1})."""
    eta = eta_klein()
    out = []
    for v in range(3):
        e = [0, 0, 0]
        e[v] = 1
        exp = tuple(e)
        out.append(
            [[eta[i, j].coeff(exp) for j in range(7)] for i in range(7)]
        )
    return out


def grass_membership(point: GrassPoint):
    """Containment of the second wedge of the row span in the net kernel.

    Returns (bool, nine contraction values): rows a < b against each of the
    three alternating coefficient matrices, on a plane of rank 3 (its caller
    decides that with SurfaceIdeal.rank, or GrassPoint.rank()).
    """
    rows, ns = point.rows, eta_coefficient_matrices()
    values = [
        sum(rows[a][i] * n[i][j] * rows[b][j] for i in range(7) for j in range(7) if n[i][j])
        for a, b in ((0, 1), (0, 2), (1, 2))
        for n in ns
    ]
    return not any(values), values


def equational_point() -> GrassPoint:
    rows = [[Fraction(1 if j == i else 0) for j in range(7)] for i in range(3)]
    return GrassPoint(rows, None)


def alpha_family() -> FormMatrix:
    """The universal 4x3 matrix over the product of t- and u-variables."""
    rows = [
        ["t0*u1+t2*u2", "-t2*u0", "-t1*u1"],
        ["t2*u2", "-t0*u2-t3*u3", "t3*u0"],
        ["u1", "u2", "u3"],
        ["t1", "t2", "t3"],
    ]
    return FormMatrix([[_poly(s, REG_TU) for s in row] for row in rows])


class DegenerateParameter(ValueError):
    pass


def alpha_t(t):
    """Evaluate the family at t and reduce to the minimal 3x2 matrix.

    Raises DegenerateParameter at (1:0:0:0), where the u-cubic minor becomes
    dependent and no 3x2 reduction exists.
    """
    t = [Fraction(x) for x in t]
    fam = alpha_family()
    # substitute the t-variables, keep the u-variables
    images = [Poly.const(REG_U, x) for x in t] + [
        Poly.var(REG_U, f"u{i}") for i in range(4)
    ]
    ev = [[fam[i, j].substitute(images) for j in range(3)] for i in range(4)]
    tail = [t[1], t[2], t[3]]
    piv = next((c for c in range(3) if tail[c] != 0), None)
    if piv is None:
        raise DegenerateParameter("parameter (1:0:0:0) degenerates the family")
    cols = []
    for c in range(3):
        if c == piv:
            continue
        f = tail[c] / tail[piv]
        cols.append([ev[r][c] - ev[r][piv].scale(f) for r in range(3)])
    entries = [[cols[0][r], cols[1][r]] for r in range(3)]
    return AlphaMatrix.from_entries(entries)


# ---------------------------------------------------------------------------
# the cubic family and surface ideals


def minor_span_pairing(alpha: AlphaMatrix, point: GrassPoint):
    """Which quadric-basis enumeration matches the minor span of alpha.

    Returns 'display-order', 'generator-list-order', or None.  The two
    candidate enumerations differ by transposing the two mixed-square
    quadrics; the tests record which one the explicit family satisfies.
    """
    monos = monomial_basis(REG_U, 2)
    mrows = minor_rows(alpha)
    if mat_rank(mrows, QQ) != 3:
        return None
    for name, order in (("display-order", L_BASIS_ORDER), ("generator-list-order", L_GENLIST_ORDER)):
        qs = point.quadrics(order)
        if mat_rank(mrows + coefficient_rows(qs, monos), QQ) == 3:
            return name
    return None


def d_vector():
    """Seven invariant cubics pairing with the quadric basis order."""
    cubics = ["x0*x3*x4", "x0*x1*x6", "x0*x2*x5", "x2^2*x3+x5^2*x4", "x1^2*x5+x6^2*x2", "x4^2*x6+x3^2*x1",
              "x1*x2*x4+x3*x5*x6-x0^3"]
    return [_poly(s, REG_X) for s in cubics]


@dataclass
class SurfaceIdeal:
    """One surface point: its plane psi(t), the cubics
    g_i = sum_j psi_ij(t) d_j and their sigma-shifts.  By span_certificate
    the 21 shifts are independent over Q, or over F_q, exactly when the plane
    has rank 3 there, and then span a stable 3 V4."""

    plane: GrassPoint  # psi(t), evaluated once
    g: list  # three tau-invariant cubics
    basis: list  # 21 shifted cubics
    rank: int  # rank psi(t); the span has dimension 7 * rank

    @property
    def t(self) -> tuple:
        return self.plane.t

    @property
    def degenerate(self) -> bool:
        return self.rank < 3

    def ideal(self, dom=QQ) -> GradedIdeal:
        """The ideal of the 21 cubics over dom; ValueError at a bad prime."""
        if dom is QQ:
            return GradedIdeal(REG_X, QQ, self.basis)
        why = self.bad_prime(dom.p)
        if why:
            point = ", ".join(map(str, self.t))
            raise ValueError(f"no surface ideal over {dom.name} at t = ({point}), {why}")
        gens = [p.map_coeffs(dom.coerce, dom) for p in self.basis]
        return GradedIdeal(REG_X, dom, gens)

    def bad_prime(self, q) -> str:
        """Why F_q cannot stand in for Q at this point, or "": q divides a
        denominator of psi(t), or rank(psi(t) mod q) < 3, which by
        span_certificate makes the 21 cubics dependent mod q."""
        rows = self.plane.rows
        if any(c.denominator % q == 0 for row in rows for c in row):
            return f"as {q} divides a denominator"
        f = fp(q)
        if mat_rank([[f.coerce(c) for c in row] for row in rows], f) < 3:
            return f"as the cubics are dependent mod {q}"
        return ""

    def domain(self, dom):
        """(dom, "") unless dom is F_p at a bad prime p: then (Q, why)."""
        why = self.bad_prime(dom.p) if isinstance(dom, FpDomain) else ""
        return (QQ, why) if why else (dom, "")

    def to_json(self):
        return {
            "t": [str(x) for x in self.t],
            "generators": [render_poly(p) for p in self.basis],
        }


def _sigma_shifts(cubics) -> list:
    """Each cubic, then its six shifts by sigma's pullback x_j -> x_{j-1} (no phase)."""
    shift = SIGMA.inv()
    out = []
    for cur in cubics:
        for _ in range(7):
            out.append(cur)
            cur = Poly(REG_X, QQ, shift.act(cur.terms)[0], _clean=True)
    return out


def span_certificate(table) -> str:
    """Why rank psi(t) might not decide every surface's span, or "" when it
    does; g acts by the substitution g.conj(), as in subspace_character.

    Let s be the shift of _sigma_shifts and D the span of the 49 cubics
    s^k d_j.  Say D has character 7 V4 (so the s^k d_j are independent and D
    is stable), tau fixes each d_j and iota negates it.  As tau commutes
    with sigma up to a power of z and iota inverts sigma, each g of G7 then
    sends s^k d_j to sum_l r(g)_lk s^l d_j, with r(g) independent of j.  So
    D = Q^7 (x) R, G7 acting on R alone, and chi(R) = V4.  The basis at t is
    s^k g_i with g_i = sum_j psi_ij(t) d_j, so it spans W (x) R, W the row
    space of psi(t): for every t, the 21 cubics are independent exactly when
    rank psi(t) = 3, and their span is then stable with character 3 V4.

    Say also that the supports of the 49 cubics split the 84 cubic monomials,
    each coefficient +-1.  Then s^k g_i has coefficients +-psi_ij(t) on
    columns that no other k meets, so the 21 cubics have rank
    7 rank(psi(t) mod q) over every F_q holding psi(t): the rank rule extends
    to every F_q (SurfaceIdeal.bad_prime).
    """
    from .characters import subspace_character

    d = d_vector()
    shifts = _sigma_shifts(d)
    split = "the 49 shifted invariant cubics do not split the 84 cubic monomials with coefficients +-1"
    # the split first: subspace_character reads a partitioned basis only
    if sorted(e for p in shifts for e in p.terms) != sorted(monomial_basis(REG_X, 3)):
        return split
    try:
        dec = table.decompose(subspace_character(shifts, table))
    except ValueError as exc:
        dec = str(exc)
    if dec != {"V4": 7}:
        return f"the 49 shifted invariant cubics: {dec}"
    if not all(g.conj().act(q.terms) == [p.terms] + [{}] * 6 for p in d for g, q in ((TAU, p), (IOTA, -p))):
        return "tau does not fix, or iota does not negate, every invariant cubic"
    if not all(abs(c) == 1 for p in shifts for c in p.terms.values()):
        return split
    return ""


def surface_ideal(t) -> SurfaceIdeal:
    """The surface system at t.  The 35 nonzero 3x3 minors of psi_matrix()
    generate an ideal holding (t1 t2 t3)^3, so every admissible t
    (t1 t2 t3 != 0) has rank psi(t) = 3 and is non-degenerate."""
    q = psi(t)
    d = d_vector()
    g = [reduce(add, (d[j].scale(c) for j, c in enumerate(row) if c), Poly.zero(REG_X, QQ)) for row in q.rows]
    return SurfaceIdeal(q, g, _sigma_shifts(g), q.rank())


# ---------------------------------------------------------------------------
# the plane quartic and its three appearances


def klein_quartic() -> Poly:
    return _poly("v1^3*v2+v2^3*v3+v3^3*v1", REG_V)


KLEIN_VBASIS = [
    (0, 1, 0, 0, 0, 0, -1),  # v1 = e1 - e6
    (0, 0, 1, 0, 0, -1, 0),  # v2 = e2 - e5
    (0, 0, 0, -1, 1, 0, 0),  # v3 = e4 - e3
]


# the principal lattice of degree 4: a in Z>=0^3 with a1 + a2 + a3 = 4
QUARTIC_LATTICE = [(i, j, 4 - i - j) for i in range(5) for j in range(5 - i)]


def _values_at(f: Poly, points: CycArray) -> CycArray:
    """The form f (of positive degree) at each row of an (n, 3) batch."""
    cols = [points[:, i] for i in range(3)]
    terms = (reduce(mul, [cols[i] for i, a in enumerate(e) for _ in range(a)]) * c for e, c in f.terms.items())
    return reduce(add, terms)


def quartic_invariant_under(f: Poly, mats) -> list:
    """For each 3x3 matrix X over Q(zeta7) (nested lists), whether
    f(X^T v) = f(v) for the ternary quartic f, decided at the 15 points of
    QUARTIC_LATTICE.

    This is exact.  g = f(X^T v) - f(v) is a quartic form; if it vanishes at
    the lattice, then on the plane a1 + a2 + a3 = 4 it is a bivariate
    polynomial of degree <= 4 vanishing on the principal lattice, which is
    unisolvent for that degree (Chung and Yao, SIAM J. Numer. Anal. 14
    (1977)), so g vanishes on the plane, hence by homogeneity on the dense
    set a1 + a2 + a3 != 0, hence g = 0.
    """
    xs = [CycArray.from_values(c for row in x for c in row).reshape(3, 3) for x in mats]
    # row a of an image block is a^T X = (X^T a)^T: one integer matmul
    images = CycArray.stack([x.lincomb(QUARTIC_LATTICE) for x in xs])
    n = len(QUARTIC_LATTICE)
    values = _values_at(f, images.reshape(len(mats) * n, 3)).reshape(len(mats), n)
    want = _values_at(f, CycArray.from_ints(QUARTIC_LATTICE))
    return [values[k] == want for k in range(len(mats))]


def klein_invariance_report():
    """Invariance of the quartic under the three generators restricted to the
    plane-quartic eigenbasis (quartic_invariant_under, exact over
    Q(zeta7))."""
    from .heisenberg import MU, NU, delta_dense, restrict_to_span

    gens = {"mu": MU.dense(), "nu": NU.dense(), "delta": delta_dense()}
    restricted = [restrict_to_span(m, KLEIN_VBASIS) for m in gens.values()]
    return dict(zip(gens, quartic_invariant_under(klein_quartic(), restricted)))


def pfaffian_cubics():
    """The seven signed principal sub-Pfaffians of the alternating net."""
    return pfaffian_vector(eta_klein())


def apply_y_operator(op_y: Poly, f_v: Poly) -> Poly:
    """Apply a y-polynomial as a constant-coefficient operator on v-variables."""
    d = DiffOp(REG_V, {e: c for e, c in op_y.terms.items()})
    return d.apply(f_v)


def pfaffian_apolarity_report():
    f = klein_quartic()
    pf = pfaffian_cubics()
    annihilates = all(apply_y_operator(p, f).is_zero() for p in pf)
    # degree-3 kernel of the catalecticant pairing: the map takes the ten
    # cubic operators to linear forms, so its matrix is 3 x 10
    monos3 = monomial_basis(REG_Y, 3)
    cat = [[QQ.zero] * len(monos3) for _ in range(3)]
    for col, e in enumerate(monos3):
        img = apply_y_operator(Poly.monomial(REG_Y, e, 1), f)
        for j in range(3):
            cat[j][col] = img.coeff(tuple(1 if i == j else 0 for i in range(3)))
    from .linalg import nullspace

    kernel = nullspace(cat, QQ)
    # span comparison: pfaffian cubics vs the kernel
    pf_rows = coefficient_rows(pf, monos3)
    same_span = (
        mat_rank(pf_rows, QQ) == len(kernel)
        and mat_rank(pf_rows + kernel, QQ) == len(kernel)
    )
    ideal = GradedIdeal(REG_Y, QQ, pf)
    hf = ideal.hilbert().hf_range(0, 6)
    gorenstein_symmetric = hf[:5] == hf[:5][::-1] and all(v == 0 for v in hf[5:])
    return {
        "annihilates": annihilates,
        "kernel_dim": len(kernel),
        "pfaffian_span_dim": mat_rank(pf_rows, QQ),
        "same_span": same_span,
        "quotient_hf": hf,
        "gorenstein_symmetric": gorenstein_symmetric,
    }


def net_discriminant() -> Poly:
    ms = net_matrices()
    ys = [Poly.var(REG_Y, n) for n in ("y1", "y2", "y3")]
    z = Poly.zero(REG_Y, QQ)
    entries = [[z] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(4):
            acc = z
            for k in range(3):
                if ms[k][i][j]:
                    acc = acc + ys[k].scale(ms[k][i][j])
            entries[i][j] = acc
    return det_form(FormMatrix(entries))


def net_discriminant_ratio():
    """The scalar c with det = c * (y1^3 y2 + y2^3 y3 + y3^3 y1), or None."""
    det = net_discriminant()
    fy = klein_quartic().transport(REG_Y)
    if det.is_zero():
        return None
    lead = next(iter(fy.terms))
    c = det.coeff(lead)
    if c == 0 or det != fy.scale(c):
        return None
    return c


REG_V_EPS = VarRegistry(REG_V.names + ("eps",))
TANGENT_STEP = 1  # the tangent direction at v_i is v_{i + TANGENT_STEP}


def epsilon_identity_report():
    """(v1 + eps v2)^4 - v1^4 + (cyclic) = 4 eps f, over Q[eps]/(eps^2).

    Computed in Q[v1, v2, v3, eps] with every term of eps-degree >= 2
    dropped, which is Q[eps]/(eps^2) written out."""
    v = [Poly.var(REG_V_EPS, n) for n in REG_V.names]
    eps = Poly.var(REG_V_EPS, "eps")

    def mod_eps2(p):
        return Poly(REG_V_EPS, QQ, {e: c for e, c in p.terms.items() if e[3] < 2}, _clean=True)

    singles = [mod_eps2((v[i] + eps * v[(i + TANGENT_STEP) % 3]) ** 4 - v[i] ** 4) for i in range(3)]
    total = sum(singles[1:], singles[0])
    four_eps_f = {e + (1,): 4 * c for e, c in klein_quartic().terms.items()}
    return {
        "identity_holds": total == Poly(REG_V_EPS, QQ, four_eps_f, _clean=True),
        "eps0_part_vanishes": all(e[3] for e in total.terms),
        "single_term_ok": singles[0] == Poly.monomial(REG_V_EPS, (3, 1, 0, 1), 4),
    }
