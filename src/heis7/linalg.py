"""Exact dense linear algebra over Q and F_p, plus fast numpy F_p paths.

Matrices are plain lists of lists of domain values: Fractions over QQ, ints
in [0, p) over fp(p).  Elimination runs on the integer kernel of the
Groebner engines (groebner.Coeffs), which refuses any other domain with
ValueError.  Inside rref a row is a dict {-column: integer numerator} over
one positive denominator, so max(row) is its first nonzero column; over
F_p every numerator is reduced by an inline % p and the denominator stays 1.
A row is cleared by a pivot row fraction-free, as the engines reduce a
vector (groebner module docstring), and every value equals the plain
Fraction value, so zero tests are those of exact arithmetic.

Everything is deterministic: the pivot for a column is the first remaining
row, in the order that row swaps leave, that is nonzero there, so echelon
forms (and hence kernel bases) are canonical for a fixed input.

The numpy helpers at the bottom operate on int64 arrays modulo a prime for
groebner.ideal_hf_oracle and the test oracles; no check calls them.  They
form products of two residues, so they take only p < 2^31; np_rank falls
back to rank over fp(p) above that.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .field import QQ, fp
from .groebner import Coeffs


def rref(rows, dom=QQ, width=None):
    """Reduced row echelon form.  Returns (rref rows, pivot column list).

    Only the first `width` columns (default all) take pivots.
    """
    kern = Coeffs(dom)
    ncols = len(rows[0]) if rows else 0
    w = ncols if width is None else width
    m = []
    for row in rows:
        F, D = kern.lift({-c: x for c, x in enumerate(row) if x})
        m.append([{t: v for t, v in F.items() if v}, D])  # x % p may vanish
    pivots = []
    r = 0
    while r < len(m):
        # the first column below w met by a remaining row, and its first row
        c, i = w, None
        for k in range(r, len(m)):
            F = m[k][0]
            if F and -max(F) < c:
                c, i = -max(F), k
        if i is None:
            break
        m[r], m[i] = m[i], m[r]
        elem = kern.element(m[r][0], None)
        m[r] = [elem[0], elem[2]]
        for k, row in enumerate(m):
            a = row[0].get(-c)
            if a and k != r:
                row[1] = kern.step(row[1], a, elem, 0, 0, row[0])
        pivots.append(c)
        r += 1
    if kern.p:
        red = [[F.get(-c, 0) for c in range(ncols)] for F, _ in m[:r]]
    else:
        red = [[Fraction(F.get(-c, 0), D) for c in range(ncols)] for F, D in m[:r]]
    return red, pivots


def rank(rows, dom=QQ):
    return len(rref(rows, dom)[1])


def nullspace(rows, dom=QQ, width=None):
    """Echelonized kernel basis (as row vectors) of the matrix `rows`;
    `width` gives the column count of a matrix with no rows."""
    w = width if width is not None else len(rows[0]) if rows else 0
    red, pivots = rref(rows, dom, w)
    pivset = set(pivots)
    basis = []
    for fc in range(w):
        if fc in pivset:
            continue
        v = [dom.zero] * w
        v[fc] = dom.one
        for r, pc in enumerate(pivots):
            v[pc] = dom.neg(red[r][fc])
        basis.append(v)
    return basis


def inverse(a, dom=QQ):
    n = len(a)
    aug = [list(a[i]) + [dom.one if j == i else dom.zero for j in range(n)] for i in range(n)]
    red, pivots = rref(aug, dom, n)
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]


# ---------------------------------------------------------------------------
# numpy mod-p helpers (int64 entries, p small)

# residues below 2^31 keep every product of two of them inside int64
NP_MAX_PRIME = 2**31


def np_mod(a, p):
    return np.mod(a, p).astype(np.int64)


def np_rref(a, p):
    """Row-reduce an int64 array mod p.  Returns (reduced array, pivot cols)."""
    if p >= NP_MAX_PRIME:
        raise OverflowError(f"p = {p} overflows the int64 mod-p path (needs p < 2^31)")
    m = np_mod(np.array(a, dtype=np.int64, copy=True), p)
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = (m[r] * inv) % p
        col = m[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            m[mask] = (m[mask] - np.outer(col[mask], m[r])) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def np_rank(a, p):
    if p >= NP_MAX_PRIME:
        return rank([[int(x) for x in row] for row in a], fp(p))
    arr = np.array(a, dtype=np.int64)
    if arr.size == 0:
        return 0
    return len(np_rref(arr, p)[1])

