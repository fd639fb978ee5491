"""Exact dense linear algebra over a coefficient domain, plus fast F_p paths.

Matrices are plain lists of lists of domain elements.  Everything is
deterministic: pivots are chosen as the first nonzero entry in column order,
so echelon forms (and hence kernel bases) are canonical for a fixed input.

The numpy helpers at the bottom operate on int64 arrays modulo a prime and
are used where exact prime-field ranks of large matrices are needed.  They
form products of two residues, so they take only p < 2^31; np_rank and
np_nullspace fall back to the generic path over fp(p) above that.
"""

from __future__ import annotations

import numpy as np

from .field import QQ, fp


def mat_mul(a, b, dom=QQ):
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    out = [[dom.zero] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if dom.is_zero(c):
                continue
            bt = b[t]
            for j in range(m):
                if not dom.is_zero(bt[j]):
                    oi[j] = dom.add(oi[j], dom.mul(c, bt[j]))
    return out

def identity(n, dom=QQ):
    return [[dom.one if i == j else dom.zero for j in range(n)] for i in range(n)]

def mat_eq(a, b, dom=QQ):
    if len(a) != len(b) or (a and len(a[0]) != len(b[0])):
        return False
    return all(
        dom.is_zero(dom.sub(a[i][j], b[i][j]))
        for i in range(len(a))
        for j in range(len(a[0]) if a else 0)
    )

def transpose(a):
    return [list(r) for r in zip(*a)] if a else []


def rref(rows, dom=QQ, width=None):
    """Reduced row echelon form.  Returns (rref rows, pivot column list)."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    w = width if width is not None else len(m[0])
    pivots = []
    r = 0
    for c in range(w):
        piv = None
        for i in range(r, len(m)):
            if not dom.is_zero(m[i][c]):
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = dom.inv(m[r][c])
        m[r] = [dom.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and not dom.is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [dom.sub(x, dom.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows, dom=QQ):
    return len(rref(rows, dom)[1])


def nullspace(rows, dom=QQ, width=None):
    """Echelonized kernel basis (as row vectors) of the matrix `rows`."""
    if not rows:
        return []
    w = width if width is not None else len(rows[0])
    red, pivots = rref(rows, dom, w)
    pivset = set(pivots)
    free = [c for c in range(w) if c not in pivset]
    basis = []
    for fc in free:
        v = [dom.zero] * w
        v[fc] = dom.one
        for r, pc in enumerate(pivots):
            v[pc] = dom.neg(red[r][fc])
        basis.append(v)
    return basis


def solve(a, b, dom=QQ):
    """Solve a x = b exactly; raises ValueError if inconsistent.

    b may be a vector or a matrix of column right-hand sides.
    """
    vec = not isinstance(b[0], list)
    rhs = [[x] for x in b] if vec else b
    n = len(a)
    w = len(a[0])
    aug = [list(a[i]) + list(rhs[i]) for i in range(n)]
    red, pivots = rref(aug, dom, w)
    # inconsistency: a nonzero row with zero coefficient part
    full, _ = rref(aug, dom, w + len(rhs[0]))
    if len(full) > len(red):
        raise ValueError("inconsistent linear system")
    cols = len(rhs[0])
    out = [[dom.zero] * cols for _ in range(w)]
    for r, pc in enumerate(pivots):
        for j in range(cols):
            out[pc][j] = red[r][w + j]
    return [row[0] for row in out] if vec else out


def inverse(a, dom=QQ):
    n = len(a)
    aug = [list(a[i]) + identity(n, dom)[i] for i in range(n)]
    red, pivots = rref(aug, dom, n)
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    return [red[i][n:] for i in range(n)]


def det(a, dom=QQ):
    """Determinant by fraction-free-ish Gaussian elimination over a field."""
    n = len(a)
    m = [list(r) for r in a]
    sign = False
    acc = dom.one
    for c in range(n):
        piv = None
        for i in range(c, n):
            if not dom.is_zero(m[i][c]):
                piv = i
                break
        if piv is None:
            return dom.zero
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = not sign
        acc = dom.mul(acc, m[c][c])
        inv = dom.inv(m[c][c])
        for i in range(c + 1, n):
            if not dom.is_zero(m[i][c]):
                f = dom.mul(m[i][c], inv)
                m[i] = [dom.sub(x, dom.mul(f, y)) for x, y in zip(m[i], m[c])]
    return dom.neg(acc) if sign else acc


def trace(a, dom=QQ):
    t = dom.zero
    for i in range(len(a)):
        t = dom.add(t, a[i][i])
    return t


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


def np_nullspace(a, p):
    if p >= NP_MAX_PRIME:
        rows = [[int(x) for x in row] for row in a]
        width = len(rows[0]) if rows else 0
        return np.array(nullspace(rows, fp(p)), dtype=object).reshape(-1, width)
    arr = np.array(a, dtype=np.int64)
    if arr.size == 0:
        return np.zeros((0, 0), dtype=np.int64)
    red, pivots = np_rref(arr, p)
    cols = arr.shape[1]
    pivset = set(pivots)
    free = [c for c in range(cols) if c not in pivset]
    out = np.zeros((len(free), cols), dtype=np.int64)
    for k, fc in enumerate(free):
        out[k, fc] = 1
        for r, pc in enumerate(pivots):
            out[k, pc] = (-int(red[r, fc])) % p
    return out
