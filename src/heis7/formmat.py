"""Matrices with homogeneous-form entries: determinants and Pfaffians.

Sign conventions
----------------
* Pf of the standard block [[0,1],[-1,0]] (+ orthogonal sum thereof) is +1,
  via the first-row expansion Pf(A) = sum_j (-1)^j a_{0j} Pf(A del {0,j}).
* The principal Pfaffian vector of an odd-size alternating matrix carries the
  sign (-1)^k on the entry obtained by deleting row/column k.
"""

from __future__ import annotations

from .poly import Poly, ring_of


class FormMatrix:
    """rows x cols of homogeneous Poly entries in one ring, the first
    entry's (poly.ring_of); an entry of another ring is a ValueError naming
    both rings.  An empty matrix, or one whose rows differ in length, is a
    ValueError too."""

    __slots__ = ("entries", "reg", "dom")

    def __init__(self, entries, skew=False):
        self.entries = [list(r) for r in entries]
        lengths = {len(r) for r in self.entries}
        if lengths <= {0}:
            raise ValueError("form matrix is empty")
        if len(lengths) > 1:
            raise ValueError(f"form matrix is ragged: row lengths {[len(r) for r in self.entries]}")
        forms = [p for row in self.entries for p in row]
        self.reg, self.dom = ring_of(forms, None, "entry", "a form matrix")
        if not all(p.is_homogeneous() for p in forms):
            raise ValueError("form matrix entries must be homogeneous")
        if skew and not self.is_skew():
            raise ValueError("matrix is not alternating")

    @property
    def nrows(self):
        return len(self.entries)

    @property
    def ncols(self):
        return len(self.entries[0])

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def is_skew(self) -> bool:
        if self.nrows != self.ncols:
            return False
        for i in range(self.nrows):
            if not self.entries[i][i].is_zero():
                return False
            for j in range(i + 1, self.ncols):
                if self.entries[i][j] != -self.entries[j][i]:
                    return False
        return True

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.entries for p in row)

    def __add__(self, other):
        return FormMatrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        )

    def __sub__(self, other):
        return FormMatrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)]
        )

    def __neg__(self):
        return FormMatrix([[-p for p in row] for row in self.entries])

    def scale(self, c):
        return FormMatrix([[p.scale(c) for p in row] for row in self.entries])

    def __eq__(self, other):
        return isinstance(other, FormMatrix) and self.entries == other.entries

    def evaluate(self, point):
        """Evaluate every entry; returns a scalar matrix (list of lists)."""
        return [[p.evaluate(point) for p in row] for row in self.entries]

    def __repr__(self):
        return f"FormMatrix({self.nrows}x{self.ncols} over {self.reg.names})"


def det_form(m: FormMatrix) -> Poly:
    """Symbolic determinant by cofactor expansion along the first row, each
    minor memoised on its column tuple: the minor on columns `cols` always
    takes the last len(cols) rows, so an n x n matrix forms at most 2^n
    minors instead of n! expansions.  Terms with a zero entry are skipped."""
    n = m.nrows
    if n != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    return _minor(m, tuple(range(n)), {})


def _minor(m: FormMatrix, cols: tuple, memo: dict) -> Poly:
    if cols in memo:
        return memo[cols]
    row = m.entries[m.nrows - len(cols)]
    if len(cols) == 1:
        return row[cols[0]]
    total = None
    for k, c in enumerate(cols):
        p = row[c]
        if p.is_zero():
            continue
        sub = _minor(m, cols[:k] + cols[k + 1 :], memo)
        term = p * sub if k % 2 == 0 else -(p * sub)
        total = term if total is None else total + term
    memo[cols] = Poly.zero(m.reg, m.dom) if total is None else total
    return memo[cols]


def pfaffian(m: FormMatrix, subset=None) -> Poly:
    """Pfaffian of an alternating matrix on an even-size index subset."""
    if not m.is_skew():
        raise ValueError("Pfaffian needs an alternating matrix")
    idx = list(subset) if subset is not None else list(range(m.nrows))
    if len(idx) % 2 != 0:
        raise ValueError("Pfaffian needs an even number of indices")
    return _pf_rec(m.entries, idx)


def _pf_rec(e, idx):
    if not idx:
        raise ValueError("empty index set")
    if len(idx) == 2:
        return e[idx[0]][idx[1]]
    total = None
    i0 = idx[0]
    for k in range(1, len(idx)):
        p = e[i0][idx[k]]
        if p.is_zero():
            continue
        rest = idx[1:k] + idx[k + 1 :]
        sub = _pf_rec(e, rest)
        term = p * sub if k % 2 == 1 else -(p * sub)
        total = term if total is None else total + term
    if total is None:
        r = e[i0][idx[1]]
        return Poly.zero(r.reg, r.dom)
    return total


def pfaffian_vector(m: FormMatrix):
    """Principal Pfaffians of an odd-size alternating matrix, signed (-1)^k."""
    n = m.nrows
    if n % 2 == 0:
        raise ValueError("principal Pfaffian vector needs odd size")
    out = []
    for k in range(n):
        idx = [i for i in range(n) if i != k]
        p = pfaffian(m, idx)
        out.append(p if k % 2 == 0 else -p)
    return out
