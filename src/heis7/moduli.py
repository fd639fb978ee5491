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

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from math import lcm
from typing import NamedTuple

import numpy as np

from .field import _WIDE, _top, _wide, CYC, QQ, DualDomain, DualNum, FpDomain, fp
from .formmat import FormMatrix, det_form, pfaffian_vector
from .groebner import GradedIdeal
from .characters import SpanSolver
from .heisenberg import SIGMA
from .linalg import rank as mat_rank
from .poly import (
    DiffOp,
    Poly,
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

    def shift(self, s=1):
        out = Wedge3()
        for (a, b, c), v in self.items():
            out = out + Wedge3.term(a + s, b + s, c + s, v)
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

    label: int
    entries: list  # seven Wedge3 values, index k is the sigma^k shift

    def check_shift_consistency(self) -> bool:
        return all(self.entries[(k + 1) % 7] == self.entries[k].shift(1) for k in range(7))


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
            entries.append(entries[-1].shift(1))
        reps[lab] = WedgeRep(lab, entries)
    complement = Wedge3.term(1, 4, 2) + Wedge3.term(6, 3, 5)
    comp_vec = [complement]
    for _ in range(6):
        comp_vec.append(comp_vec[-1].shift(1))
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


def l_basis(order=L_BASIS_ORDER):
    f, _ = f_basis()
    return [f[i] for i in order]


def j_ideal() -> GradedIdeal:
    f, _ = f_basis()
    return GradedIdeal(REG_U, QQ, [f[i] for i in range(7)])


# ---------------------------------------------------------------------------
# alpha matrices and the annihilation criterion


@dataclass(frozen=True)
class AlphaMatrix:
    """3x2 matrix of linear forms in the u-variables.

    Frozen, so that `entries` is never rebound under the cached `products`.
    """

    entries: list  # 3x2 of Poly over REG_U

    def minors(self):
        e = self.entries
        out = []
        for r, s in ((0, 1), (0, 2), (1, 2)):
            out.append(e[r][0] * e[s][1] - e[r][1] * e[s][0])
        return out

    @cached_property
    def products(self):
        """(C, den): the coefficient products of `_coefficient_products`,
        formed on first use and shared by every contraction of this matrix.
        A refused entry raises on every call, as nothing is cached then."""
        return _coefficient_products(self)

    @staticmethod
    def from_coeffs(coeffs):
        """coeffs[r][c] is a length-4 rational coefficient vector."""
        return AlphaMatrix(
            [[linear_form(REG_U, coeffs[r][c]) for c in range(2)] for r in range(3)]
        )


def _lin_coeffs(p: Poly):
    if p.dom is not QQ:
        raise ValueError(f"alpha entry {render_poly(p)} is over {p.dom.name}, not Q")
    out = [QQ.zero] * 4
    for e, c in p.terms.items():
        if sum(e) != 1:
            raise ValueError(f"alpha entry {render_poly(p)} is not a linear form")
        out[e.index(1)] = c
    return out


def _coefficient_products(alpha: AlphaMatrix):
    """(C, den): the products of alpha's coefficients that both criteria
    contract, as a 9 x 16 integer array over one denominator.

    The 24 coefficients are cleared to integers a_rc[k] by their lcm D, and
    C[3r + s, 4k + l] = a_r0[k] a_s1[l] - a_r1[k] a_s0[l] over den = D^2, so
    that a_r0 a_s1 - a_r1 a_s0 = sum_kl C[3r + s, 4k + l] u_k u_l / den.  C
    is int64 while its entries stay below 2^62, and Python ints otherwise;
    `_contract` widens an int64 C whenever a contraction could pass 2^62.
    """
    coeffs = [_lin_coeffs(p) for row in alpha.entries for p in row]
    d = lcm(*(c.denominator for v in coeffs for c in v))
    ints = [c.numerator * (d // c.denominator) for v in coeffs for c in v]
    top = max(map(abs, ints))
    a = np.array(ints, dtype=np.int64 if 2 * top * top < _WIDE else object)
    x, y = a.reshape(3, 2, 4).transpose(1, 0, 2)
    c = x[:, None, :, None] * y[None, :, None, :] - y[:, None, :, None] * x[None, :, None, :]
    return c.reshape(9, 16), d * d


def _contract(c, table, norm: int):
    """c @ table, exact: an int64 c is taken as Python ints when the
    contraction with `table`, whose columns have absolute sums at most
    `norm`, could reach 2^62."""
    if c.dtype != object:
        (c,) = _wide(_top(c) * norm, c)
    return c @ table


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


@cache
def _composition_columns():
    """(T, keys, norm): composition_tensor() as a dense 16 x m int64 matrix.

    T[4k + l, i] is the coefficient of x_var at (row, col) = keys[i][:2] of
    compose_u(k, l), var = keys[i][2], over the m positions that some
    compose_u(k, l) uses; norm is T's largest absolute column sum.
    """
    tensor = composition_tensor()
    keys = sorted({key for _, entries in tensor for key, _ in entries})
    index = {key: i for i, key in enumerate(keys)}
    t = np.zeros((16, len(keys)), dtype=np.int64)
    for (k, l), entries in tensor:
        for key, v in entries:
            t[4 * k + l, index[key]] = v
    return t, keys, int(np.abs(t).sum(axis=0).max())


class Composition(NamedTuple):
    """alpha alpha' as an integer array over one common denominator.

    nums[3r + s, i] / den is the coefficient of x_var at (row, col) of block
    (r, s), where (row, col, var) = keys[i]; nums is int64 or, past the
    int64 bound, Python ints.
    """

    nums: np.ndarray
    keys: list
    den: int

    @property
    def blocks(self) -> list:
        """blocks[r][s]: block (r, s) as a dict {(row, col, var): numerator}
        of Python ints, with no zero values."""
        rows = [{k: v for k, v in zip(self.keys, row) if v} for row in self.nums.tolist()]
        return [rows[3 * r : 3 * r + 3] for r in range(3)]


def alpha_compose(alpha: AlphaMatrix) -> Composition:
    """The 3x3 blocks of alpha alpha', by one integer contraction.

    Block (r, s) is the composition attached to the quadric
    a_r0 a_s1 - a_r1 a_s0, i.e. sum_kl c_kl compose_u(k, l), where c_kl is
    row 3r + s of alpha's cached coefficient products C (`products`).  So
    the blocks are nums = C @ T with T the dense composition table, every
    numerator exact over den = D^2 (any rational t stays exact).
    """
    table, keys, norm = _composition_columns()
    c, den = alpha.products
    return Composition(_contract(c, table, norm), keys, den)


def alpha_compose_is_zero(comp: Composition) -> bool:
    return not comp.nums.any()


@cache
def _pairing():
    """(P, norm): the 16 x 3 int64 matrix P[4k + l, j] = d_j(u_k u_l) of the
    three net operators on the quadratic monomials, read once from
    delta_ops() through DiffOp.apply; norm is its largest absolute column
    sum.  A value that is not an integer constant is refused."""
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
    return p, int(np.abs(p).sum(axis=0).max())


_MINOR_ROWS = [1, 2, 5]  # rows (r, s) = (0, 1), (0, 2), (1, 2) of C


def _delta_numerators(alpha: AlphaMatrix):
    pairing, norm = _pairing()
    c, den = alpha.products
    return _contract(c[_MINOR_ROWS], pairing, norm), den


def delta_values(alpha: AlphaMatrix) -> list:
    """values[m][j] = d_j applied to minor m of alpha, a rational constant.

    The minors are taken over the row pairs (0, 1), (0, 2), (1, 2), and
    d_j(minor) is the contraction of its coefficient products with column j
    of the pairing P[4k + l, j] = d_j(u_k u_l), so no minor is formed.
    """
    nums, den = _delta_numerators(alpha)
    return [[Fraction(v, den) for v in row] for row in nums.tolist()]


def delta_criterion(alpha: AlphaMatrix) -> bool:
    """Whether the three net operators annihilate the three minors of alpha.

    Decided on the same cached coefficient products as alpha_compose: the
    nine values d_j(minor) are one integer contraction (`delta_values`),
    all zero exactly when alpha is annihilated.
    """
    return not _delta_numerators(alpha)[0].any()


@cache
def _monomial_fold():
    """(F, norm): the 16 x 10 0/1 matrix taking position 4k + l of u_k u_l
    to its quadratic monomial, in monomial_basis(REG_U, 2) order."""
    index = {e: i for i, e in enumerate(monomial_basis(REG_U, 2))}
    f = np.zeros((16, len(index)), dtype=np.int64)
    for k in range(4):
        for l in range(4):
            e = [0] * 4
            e[k] += 1
            e[l] += 1
            f[4 * k + l, index[tuple(e)]] = 1
    return f, int(f.sum(axis=0).max())


def minor_rows(alpha: AlphaMatrix) -> list:
    """The coefficient rows of alpha's three minors over
    monomial_basis(REG_U, 2), all scaled by den: the cached coefficient
    products folded into the quadratic monomials, with no Poly product."""
    fold, norm = _monomial_fold()
    c, _ = alpha.products
    return _contract(c[_MINOR_ROWS], fold, norm).tolist()


PROBE_POINT = [Fraction(k) for k in range(1, 8)]


@cache
def _probe_blocks():
    """B1, B2, B3 evaluated at the probe point, as object arrays."""
    return tuple(np.array(b.evaluate(PROBE_POINT), dtype=object) for b in printed_b_matrices())


def block_ranks(l_coeffs) -> list:
    """The ranks of the four block combinations
    l1 B1 + l2 B2 + l3 B3 | l0 B1 - l1 B3 | l0 B2 - l2 B1 | l0 B3 - l3 B2
    at the probe point (1, 2, ..., 7).  Evaluation is linear, so each is
    the same scalar combination of the evaluated blocks; a zero
    combination has rank 0."""
    b1, b2, b3 = _probe_blocks()
    l0, l1, l2, l3 = [Fraction(x) for x in l_coeffs]
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

    def quadrics(self, order=None):
        """The three quadrics spanned by the rows.

        The default enumeration is the net-kernel generator list; under it
        the rows of the explicit parametrization cut out twisted cubics (the
        display enumeration transposes the two mixed-square quadrics and
        would turn the same rows into complete-intersection nets).
        """
        basis = l_basis(order if order is not None else L_GENLIST_ORDER)
        out = []
        for row in self.rows:
            q = Poly.zero(REG_U, QQ)
            for c, f in zip(row, basis):
                q = q + f.scale(c)
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
    three alternating coefficient matrices.
    """
    if point.rank() != 3:
        raise ValueError("not a genuine point: coordinate matrix has rank < 3")
    ns = eta_coefficient_matrices()
    values = []
    ok = True
    for a in range(3):
        for b in range(a + 1, 3):
            ra, rb = point.rows[a], point.rows[b]
            for n in ns:
                v = sum(
                    ra[i] * n[i][j] * rb[j]
                    for i in range(7)
                    for j in range(7)
                    if n[i][j]
                )
                values.append(v)
                if v:
                    ok = False
    return ok, values


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
    return AlphaMatrix(entries)


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


# primes for the surface checks over F_p, in order; 2 and 7 divide |G7|
SURFACE_PRIMES = (3, 5, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


@dataclass
class SurfaceIdeal:
    """The 21-dimensional invariant cubic system at a parameter point, with
    the SpanSolver of its span that every surface check reads."""

    t: tuple
    g: list  # three tau-invariant cubics
    basis: list  # 21 shifted cubics
    # their weight blocks, or None when the cubics are dependent
    solver: SpanSolver | None = field(compare=False, repr=False)

    @property
    def degenerate(self) -> bool:
        return self.solver is None

    def ideal(self, dom=QQ) -> GradedIdeal:
        if dom is QQ:
            return GradedIdeal(REG_X, QQ, self.basis)
        gens = [p.map_coeffs(dom.coerce, dom) for p in self.basis]
        return GradedIdeal(REG_X, dom, gens)

    def bad_prime(self, q) -> str:
        """Why F_q cannot stand in for Q at this point, or "": q divides a
        coefficient denominator, or the 21 cubics are dependent mod q (every
        wrong Hilbert numerator seen over a surface prime was such a drop)."""
        if any(c.denominator % q == 0 for p in self.basis for c in p.terms.values()):
            return f"as {q} divides a denominator"
        rows = coefficient_rows(self.ideal(fp(q)).gens, monomial_basis(REG_X, 3))
        return "" if mat_rank(rows, fp(q)) == 21 else f"as the cubics are dependent mod {q}"

    def coefficient_domain(self, dom):
        """dom, unless dom is F_p for a bad prime p (bad_prime): then F_q for
        the next good q of SURFACE_PRIMES, else Q."""
        if not isinstance(dom, FpDomain) or not self.bad_prime(dom.p):
            return dom
        return next((fp(q) for q in SURFACE_PRIMES if q > dom.p and not self.bad_prime(q)), QQ)

    def to_json(self):
        return {
            "t": [str(x) for x in self.t],
            "generators": [render_poly(p) for p in self.basis],
        }


def surface_cubics(t):
    """The three tau-invariant cubics of the family at t."""
    t = [Fraction(x) for x in t]
    rows = psi_matrix().evaluate(t)
    d = d_vector()
    out = []
    for i in range(3):
        g = Poly.zero(REG_X, QQ)
        for j in range(7):
            if rows[i][j]:
                g = g + d[j].scale(rows[i][j])
        out.append(g)
    return out


def surface_ideal(t) -> SurfaceIdeal:
    t = tuple(Fraction(x) for x in t)
    if all(x == 0 for x in t):
        raise ValueError("t must be a point of projective 3-space")
    g = surface_cubics(t)
    # each cubic, then its shifts by sigma's pullback x_j -> x_{j-1} (no phase)
    shift = SIGMA.inv()
    basis = []
    for cur in g:
        for _ in range(7):
            basis.append(cur)
            cur = Poly(REG_X, QQ, shift.act(cur.terms)[0], _clean=True)
    # every basis cubic has a single Heisenberg weight, so the span is
    # tau-stable and the solver refuses it only when the cubics are dependent
    try:
        solver = SpanSolver(basis)
    except ValueError:
        solver = None
    return SurfaceIdeal(t, g, basis, solver)


# ---------------------------------------------------------------------------
# the plane quartic and its three appearances


def klein_quartic() -> Poly:
    return _poly("v1^3*v2+v2^3*v3+v3^3*v1", REG_V)


KLEIN_VBASIS = [
    (0, 1, 0, 0, 0, 0, -1),  # v1 = e1 - e6
    (0, 0, 1, 0, 0, -1, 0),  # v2 = e2 - e5
    (0, 0, 0, -1, 1, 0, 0),  # v3 = e4 - e3
]


def klein_invariance_report():
    """Invariance of the quartic under the three generators restricted to the
    plane-quartic eigenbasis.  Exact substitution over Q(zeta7)."""
    from .heisenberg import MU, NU, delta_dense, restrict_to_span
    from .poly import substitution_for

    f = klein_quartic().map_coeffs(CYC.coerce, CYC)
    results = {}
    for name, mat in (("mu", MU.dense()), ("nu", NU.dense()), ("delta", delta_dense())):
        images = substitution_for(REG_V, restrict_to_span(mat, KLEIN_VBASIS), CYC)
        results[name] = f.substitute(images) == f
    return results


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


def epsilon_identity_report():
    """(v1 + eps v2)^4 - v1^4 + (cyclic) = 4 eps f, over Q[eps]/(eps^2)."""
    dd = DualDomain(QQ)
    eps = dd.eps()
    names = ["v1", "v2", "v3"]

    def var(i):
        return Poly.var(REG_V, names[i % 3], dd)

    total = Poly.zero(REG_V, dd)
    singles = []
    for i in range(3):
        s = (var(i) + var(i + 1).scale(eps)) ** 4 - var(i) ** 4
        singles.append(s)
        total = total + s
    f_dual = klein_quartic().map_coeffs(lambda c: DualNum(QQ.zero, c * 4), dd)
    return {
        "identity_holds": total == f_dual,
        "eps0_part_vanishes": all(
            dd.base.is_zero(c.a) for c in total.terms.values()
        ),
        "single_term_ok": singles[0]
        == Poly.monomial(REG_V, (3, 1, 0), DualNum(QQ.zero, Fraction(4)), dd),
    }
