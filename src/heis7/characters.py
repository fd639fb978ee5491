"""Character tables, decompositions and power formulas for G7 and SL2(F7).

Row conventions for the extended Heisenberg group G7:

* V0..V5 are the Galois twists of the 7-dimensional matrix representation
  generated by sigma, tau, iota; their character values at the involution
  coset are -theta^i(alpha) because the trace of iota on V is -1.  The
  classical table display attaches +theta^i(alpha) to the unsharped rows;
  with the explicit matrices that sign belongs to the sharped rows, and the
  verification report records the swap.  Every decomposition formula below
  is verified in the matrix-model convention.
* Vi# = Vi tensor S, where S is the sign character of the involution coset.
* Z(s,t) are the 24 two-dimensional characters pulled back from the quotient
  by the center; Z denotes their sum when all multiplicities agree.

A Character stores its values as one field.CycArray: integer numerators
over one common denominator, int64 while every numerator stays below 2^62
and Python ints beyond (each operation checks its bound first).  Products,
sums, power maps (row gathers), pairings with all rows at once, the
reconstruction check (an integer matmul), both orthogonality relations
(Gram matrices) and the Newton recursion run on these arrays; the Cyc7 or
FieldElem values are built only when `Character.values` is read.

CharTable.decompose, sym_power/sym_powers and ext_power also take a batch
of characters, a CycArray of batch shape (n, classes) or a list of
Characters, and one Character runs as a batch of one.  A batch takes one
Newton recursion to the highest degree asked for, and one contraction
against all rows; its multiplicities are decided on the integer numerators
of that contraction, without a Fraction per label: a pairing is rational
iff its coordinates other than the rational one are zero, and a
non-negative integer iff its numerator is >= 0 and divisible by den |G|.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from operator import mul

import numpy as np

from .field import (
    QQ,
    Cyc7,
    CycArray,
    FieldElem,
    alpha_minus,
    alpha_plus,
)
from .heisenberg import (
    ClassData,
    HElem,
    IOTA,
    SIGMA,
    TAU,
    conjugacy_classes_g7,
    conjugacy_classes_sl2,
    differs,
    scalar_mono,
    sl2_inv,
    sl2_mul,
)
from .linalg import rref

_C0 = Cyc7.from_int(0)
_C1 = Cyc7.from_int(1)


class Character:
    """Class function: one value per conjugacy class of a ClassData.

    The values are one CycArray `arr` of batch shape (classes,): Q(zeta7)
    for G7, the sqrt2 tower for SL2(F7), the only place sqrt2 appears.
    Mixed arithmetic lifts to the tower.
    """

    __slots__ = ("classes", "arr")

    def __init__(self, classes: ClassData, values):
        arr = values if isinstance(values, CycArray) else CycArray.from_values(values)
        if arr.shape != (classes.count,):
            raise ValueError("one value per conjugacy class required")
        self.classes = classes
        self.arr = arr

    @property
    def values(self) -> tuple:
        """The values as Cyc7 (FieldElem in the tower), built on each access."""
        return tuple(self.arr.tolist())

    def __mul__(self, other):
        if isinstance(other, Character):
            other = other.arr
        return Character(self.classes, self.arr * other)

    def __add__(self, other):
        return Character(self.classes, self.arr + other.arr)

    def __sub__(self, other):
        return Character(self.classes, self.arr - other.arr)

    def __eq__(self, other):
        return isinstance(other, Character) and self.arr == other.arr

    def __hash__(self):
        return hash(self.values)


def newton(power_sums: CycArray, alternating: bool = False) -> list:
    """h_0..h_k from power sums p_1..p_k stacked on the first batch axis:
    k h_k = sum_j p_j h_{k-j}, or with alternating=True the elementary
    e_0..e_k, k e_k = sum_j (-1)^(j-1) p_j e_{k-j}.  With p_j = chi(g^j)
    these are the characters of S^k and of the k-th exterior power at g."""
    k = power_sums.shape[0]
    rest = power_sums.shape[1:]
    if alternating:
        signs = np.array([1 if j % 2 else -1 for j in range(1, k + 1)])
        power_sums = power_sums * CycArray.from_ints(signs.reshape(k, *[1] * len(rest)))
    out = [CycArray.from_ints(np.ones(rest, dtype=np.int64))]
    for kk in range(1, k + 1):
        # p_1..p_kk against h_(kk-1)..h_0
        out.append((power_sums[:kk] * CycArray.stack(out[::-1])).sum(0) * Fraction(1, kk))
    return out


class CharTable:
    """Irreducible characters indexed by label, plus power/inverse maps.
    A Character passed in gives Characters (one Decomposition) back, a batch
    gives CycArray batches (a list of Decompositions)."""

    def __init__(self, classes: ClassData, rows, power_fn, identity_class: int):
        self.classes = classes
        self.labels = [lb for lb, _ in rows]
        self.rows = {lb: Character(classes, vals) for lb, vals in rows}
        self._index = {lb: i for i, lb in enumerate(self.labels)}
        # all rows as one (labels, classes) batch, for the reconstruction
        # check and the orthogonality relations
        self._table = CycArray.stack([self.rows[lb].arr for lb in self.labels])
        self._sizes = CycArray.from_ints(classes.sizes)
        self.identity_class = identity_class
        # power_map[j][c] = class index of rep(c)^j
        self._power_fn = power_fn
        self._power_cache = {1: list(range(classes.count))}

    def power_classes(self, j: int):
        if j not in self._power_cache:
            self._power_cache[j] = [self._power_fn(c, j) for c in range(self.classes.count)]
        return self._power_cache[j]

    @cached_property
    def _paired(self) -> CycArray:
        """|c| conj(row(c)) as a (classes, labels) batch: chis @ _paired is
        |G| <chi, row> for every item and row at once."""
        return self._weighted_conj(self._table).swapaxes(0, 1)

    def stack(self, labels) -> CycArray:
        """The rows with these labels as one (len(labels), classes) batch."""
        return self._table[[self._index[lb] for lb in labels]]

    def dual(self, chi: Character) -> Character:
        return Character(self.classes, chi.arr[self.power_classes(-1)])

    def _batch(self, chi):
        """(batch, single): chi as a (n, classes) CycArray, single when chi is
        one Character."""
        if isinstance(chi, Character):
            return chi.arr[None], True
        arr = chi if isinstance(chi, CycArray) else CycArray.stack([c.arr for c in chi])
        if len(arr.shape) != 2 or arr.shape[1] != self.classes.count:
            raise ValueError("a batch of characters has batch shape (n, classes)")
        return arr, False

    def inner(self, a: Character, b: Character) -> Fraction:
        """Exact inner product (1/|G|) sum |c| a(c) conj(b(c))."""
        num, den, irrational = self._pairings(a.arr[None], self._weighted_conj(b.arr)[:, None])
        if irrational[0, 0]:
            raise ValueError("inner product is not rational")
        return Fraction(int(num[0, 0]), den)

    def _weighted_conj(self, arr: CycArray) -> CycArray:
        return arr.conj() * self._sizes

    def _pairings(self, rows: CycArray, weighted: CycArray):
        """(1/|G|) rows @ weighted in one contraction, as (num, den,
        irrational): a value is num / den where it is rational, i.e. where its
        coordinates other than the rational one (z^1..z^5, sqrt2) are zero."""
        p = rows @ weighted
        flat = p.num.reshape(*p.shape, -1)
        den = p.den * self.classes.group_order()
        # int64 numerators meet den in numpy only while den fits in int64
        num = flat[..., 0] if den < 1 << 62 else flat[..., 0].astype(object)
        return num, den, (flat[..., 1:] != 0).any(axis=-1)

    def decompose(self, chi):
        """Multiplicities of chi (one Character or a batch) in the rows.

        A multiplicity is a non-negative integer iff its numerator is >= 0
        and divisible by den |G|, and the multiplicities must reconstruct
        each item exactly (one integer matmul with the table).  A batch
        raises ValueError for its first item that is not a character, with
        the message that item alone would give.
        """
        arr, single = self._batch(chi)
        num, den, irrational = self._pairings(arr, self._paired)
        bad = irrational | (num < 0) | (num % den != 0)
        mults = np.where(bad, 0, num // den)
        wrong = bad.any(axis=1) | (self._table.lincomb(mults) - arr).nonzero().any(axis=1)
        if wrong.any():
            i = int(np.argmax(wrong))
            if not bad[i].any():
                raise ValueError("decomposition does not reconstruct the character")
            j = int(np.argmax(bad[i]))
            if irrational[i, j]:
                raise ValueError("inner product is not rational")
            m = Fraction(int(num[i, j]), den)
            raise ValueError(f"not a character: multiplicity of {self.labels[j]} is {m}")
        decs = [Decomposition(dict(zip(self.labels, row))) for row in mults.tolist()]
        return decs[0] if single else decs

    def sym_power(self, chi, k):
        """S^k of chi by the Newton recursion k h_k = sum_j chi(g^j) h_{k-j}.
        For a sequence of degrees k, one recursion to max(k) gives the list
        of those powers."""
        return self._powers(chi, k, alternating=False)

    def sym_powers(self, chi, k: int) -> list:
        """The symmetric powers S^0 .. S^k of chi, from one Newton recursion."""
        return self.sym_power(chi, range(k + 1))

    def ext_power(self, chi, k):
        """Exterior powers by the alternating Newton recursion; k as in
        sym_power."""
        return self._powers(chi, k, alternating=True)

    def _powers(self, chi, k, alternating: bool):
        degrees = [k] if isinstance(k, int) else list(k)
        if not degrees or min(degrees) < 0:
            raise ValueError("power degrees must be non-negative")
        arr, single = self._batch(chi)
        top = max(degrees)
        # chi(g^j) for j = 1..top, one power-map gather, on the first axis
        gather = np.array([self.power_classes(j) for j in range(1, top + 1)], dtype=np.intp)
        series = newton(arr[:, gather.reshape(top, self.classes.count)].swapaxes(0, 1), alternating)
        out = [Character(self.classes, series[j][0]) if single else series[j] for j in degrees]
        return out[0] if isinstance(k, int) else out

    def to_json(self):
        """Class labels, sizes, and rows of field-element strings."""
        return {
            "classes": [str(lb) for lb in self.classes.labels],
            "sizes": list(self.classes.sizes),
            "rows": {
                lb: [str(v) for v in self.rows[lb].values]
                for lb in self.labels
            },
        }

    def orthogonality_report(self):
        """First and second orthogonality, each checked exactly as one Gram
        matrix; a failure names the first failing pair of each relation."""
        order = self.classes.group_order()
        rows = self._table
        bad = []
        gram = rows @ self._paired
        off = (gram - CycArray.from_ints(order * np.eye(len(self.labels), dtype=np.int64))).nonzero()
        if np.triu(off).any():
            i, j = np.argwhere(np.triu(off))[0]
            v = (gram[i, j] * Fraction(1, order)).tolist()
            bad.append(f"row orthogonality fails at ({self.labels[i]}, {self.labels[j]}): {v}")
        cols = rows.swapaxes(0, 1) @ rows.conj()
        off = (cols - CycArray.from_ints(np.diag([order // s for s in self.classes.sizes]))).nonzero()
        if np.triu(off).any():
            c1, c2 = np.argwhere(np.triu(off))[0]
            bad.append(f"column orthogonality fails at ({c1}, {c2})")
        if bad:
            return False, "; ".join(bad)
        return True, "both orthogonality relations hold exactly"


class Decomposition:
    """Multiplicities by irreducible label, with Z-aggregation for G7."""

    def __init__(self, mults):
        self.mults = {k: int(v) for k, v in mults.items() if v}

    def aggregated(self):
        """Collapse the 24 Z(s,t) labels into 'Z' when multiplicities agree."""
        zs = {k: v for k, v in self.mults.items() if k.startswith("Z(")}
        if len(zs) == 24 and len(set(zs.values())) == 1:
            out = {k: v for k, v in self.mults.items() if not k.startswith("Z(")}
            out["Z"] = next(iter(zs.values()))
            return out
        return dict(self.mults)

    def __eq__(self, other):
        if isinstance(other, Decomposition):
            return self.mults == other.mults
        if isinstance(other, dict):
            return self.aggregated() == {k: v for k, v in other.items() if v}
        return NotImplemented

    def __repr__(self):
        agg = self.aggregated()
        if not agg:
            return "0"
        return " + ".join(f"{v}*{k}" if v != 1 else k for k, v in sorted(agg.items()))


# ---------------------------------------------------------------------------
# G7 table


def _g7_power_fn(classes: ClassData):
    def fn(c: int, j: int) -> int:
        rep = classes.reps[c]
        if j < 0:
            rep_j = rep.inv()
            for _ in range(-j - 1):
                rep_j = rep_j * rep.inv()
        else:
            rep_j = HElem(0, 0, 0, 0)
            for _ in range(j):
                rep_j = rep_j * rep
        return classes.index_of[rep_j]

    return fn


@cache
def g7_table() -> CharTable:
    classes = conjugacy_classes_g7()
    n = classes.count
    identity_class = classes.index_of[HElem(0, 0, 0, 0)]

    one = [_C1] * n
    sign = [_C1 if classes.reps[c].b == 0 else -_C1 for c in range(n)]
    rows = [("I", one), ("S", sign)]

    base_traces = [classes.reps[c].matrix().trace() for c in range(n)]
    v_rows = []
    for i in range(6):
        vals = [t.galois(i) for t in base_traces]
        v_rows.append((f"V{i}", vals))
    rows.extend(v_rows)
    for i in range(6):
        vals = [a * b for a, b in zip(v_rows[i][1], sign)]
        rows.append((f"V{i}#", vals))

    # canonical (s,t) labels for the 2-dimensional characters
    zlabels = []
    seen = set()
    for s in range(7):
        for t in range(7):
            if (s, t) == (0, 0) or (s, t) in seen:
                continue
            seen.add((s, t))
            seen.add(((-s) % 7, (-t) % 7))
            zlabels.append((s, t))
    assert len(zlabels) == 24
    two = Cyc7.from_int(2)
    z_pairs = [Cyc7.zeta(e) + Cyc7.zeta(-e) for e in range(7)]  # z^e + z^-e
    for s, t in zlabels:
        vals = []
        for c in range(n):
            lb = classes.labels[c]
            if lb[0] == "central":
                vals.append(two)
            elif lb[0] == "C":
                vals.append(z_pairs[(s * lb[1] + t * lb[2]) % 7])
            else:
                vals.append(_C0)
        rows.append((f"Z({s},{t})", vals))

    return CharTable(classes, rows, _g7_power_fn(classes), identity_class)


def g7_v_character(i: int = 0) -> Character:
    return g7_table().rows[f"V{i % 6}"]


# ---------------------------------------------------------------------------
# SL2(F7) table


def _sl2_power_fn(classes: ClassData):
    def fn(c: int, j: int) -> int:
        rep = classes.reps[c]
        if j < 0:
            rep = sl2_inv(rep)
            j = -j
        acc = (1, 0, 0, 1)
        for _ in range(j):
            acc = sl2_mul(acc, rep)
        return classes.index_of[acc]

    return fn


@cache
def sl2_table() -> CharTable:
    classes = conjugacy_classes_sl2()
    ap = FieldElem(alpha_plus(), 0)
    am = FieldElem(alpha_minus(), 0)
    r2 = FieldElem.sqrt2()

    def fe(n):
        return FieldElem(n, 0)

    # columns: id, iota, mu, iota*mu, nu, nu^3, iota*nu^3, iota*nu, delta, r8a, r8b
    rows = [
        ("I", [fe(1)] * 11),
        ("M1", [fe(8), fe(-8), fe(-1), fe(1), fe(1), fe(1), fe(-1), fe(-1), fe(0), fe(0), fe(0)]),
        ("M2", [fe(8), fe(8), fe(-1), fe(-1), fe(1), fe(1), fe(1), fe(1), fe(0), fe(0), fe(0)]),
        ("L", [fe(7), fe(7), fe(1), fe(1), fe(0), fe(0), fe(0), fe(0), fe(-1), fe(-1), fe(-1)]),
        ("U", [fe(4), fe(-4), fe(1), fe(-1), am, ap, -ap, -am, fe(0), fe(0), fe(0)]),
        ("U'", [fe(4), fe(-4), fe(1), fe(-1), ap, am, -am, -ap, fe(0), fe(0), fe(0)]),
        ("T1", [fe(6), fe(-6), fe(0), fe(0), fe(-1), fe(-1), fe(1), fe(1), fe(0), r2, -r2]),
        ("T2", [fe(6), fe(-6), fe(0), fe(0), fe(-1), fe(-1), fe(1), fe(1), fe(0), -r2, r2]),
        ("T", [fe(6), fe(6), fe(0), fe(0), fe(-1), fe(-1), fe(-1), fe(-1), fe(2), fe(0), fe(0)]),
        ("W", [fe(3), fe(3), fe(0), fe(0), -ap, -am, -am, -ap, fe(-1), fe(1), fe(1)]),
        ("W'", [fe(3), fe(3), fe(0), fe(0), -am, -ap, -ap, -am, fe(-1), fe(1), fe(1)]),
    ]
    return CharTable(classes, rows, _sl2_power_fn(classes), 0)


# ---------------------------------------------------------------------------
# characters from explicit generator images


class RepError(Exception):
    pass


def char_of_rep(sigma_img, tau_img, iota_img, table: CharTable = None) -> Character:
    """Character of the G7 representation with the given generator images.

    The images must be dense 7x7 CycArray matrices over Q(zeta7).  The
    defining relations are verified first, on stacked products.  The
    central image eps is recovered from the commutator c of the sigma and
    tau images: [sigma, tau] = eps^6 with eps of order 7, so c has order 7
    and eps = c^6.
    """
    table = table or g7_table()
    s, t, io = sigma_img, tau_img, iota_img
    idm = scalar_mono(0).dense()

    def powers(m):
        """m^1 .. m^7 of a batch of matrices, along a new first axis; once
        m^7 = 1 is checked, m^k sits at k - 1 for every k = 0..7."""
        out = [m]
        while len(out) < 7:
            out.append(out[-1] @ m)
        return CycArray.stack(out)

    g_pows = powers(CycArray.stack([s, t]))
    if differs(g_pows[6], idm).any():
        raise RepError("generator of order != 7")
    s_pows, t_pows = g_pows[:, 0], g_pows[:, 1]
    s_inv, t_inv = s_pows[5], t_pows[5]
    # io io, io s, io t, s t, s^-1 t^-1; then io s io, io t io and c
    ab = CycArray.stack([io, io, io, s, s_inv]) @ CycArray.stack([io, s, t, t, t_inv])
    abc = ab[1:4] @ CycArray.stack([io, io, ab[4]])
    bad = differs(CycArray.stack([ab[0], abc[0], abc[1]]), CycArray.stack([idm, s_inv, t_inv]))
    for fails, reason in zip(
        bad.tolist(), ("involution image has order != 2", "iota sigma iota != sigma^-1", "iota tau iota != tau^-1")
    ):
        if fails:
            raise RepError(reason)
    c_pows = powers(abc[2])
    if differs(c_pows[6], idm):
        raise RepError("central scalar has order != 7")
    # eps must commute with everything (scalar by Schur for irreducibles;
    # here just verify centrality)
    eps, gens = c_pows[5], CycArray.stack([s, t, io])
    if differs(eps @ gens, gens @ eps).any():
        raise RepError("central image does not commute")

    # the class representatives' images, one batch: eps^k = c^(7 - k)
    a, m, n, b = (np.array(col) for col in zip(*table.classes.reps))
    acc = c_pows[6 - (a + 4 * m * n) % 7] @ s_pows[m - 1]
    acc = acc @ t_pows[n - 1] @ CycArray.stack([idm, io])[b]
    return Character(table.classes, acc.trace())


# ---------------------------------------------------------------------------
# cohomology-style virtual characters


def omega3_sections_char(k):
    """Sections of three-forms twisted by O(k) on P(V), as a G7 character.

    Computed as the alternating truncated-Koszul combination of exterior and
    symmetric powers of the dual representation, with S^j = 0 for j < 0;
    valid (all multiplicities nonnegative) for k >= 1.  Returns
    (Decomposition, flagged) where flagged reports negative virtual
    multiplicities.  For a sequence of k it returns the list of those pairs,
    from one exterior recursion to degree 3, one symmetric recursion to the
    largest k and one decomposition of the batch.
    """
    ks = np.array([k] if isinstance(k, int) else list(k))
    table = g7_table()
    vd = table.dual(g7_v_character(0))
    ext = table.ext_power(vd, range(4))
    # S^(j-3) at row j: three zero rows ahead of S^0 .. S^max(k)
    zero = CycArray.from_ints(np.zeros(table.classes.count, dtype=np.int64))
    sym = CycArray.stack([zero] * 3 + [s.arr for s in table.sym_powers(vd, max(ks.max(), 0))])
    t = [sym[np.maximum(ks + i, 0)] * ext[3 - i].arr for i in range(4)]
    chis = t[0] - t[1] + t[2] - t[3]
    try:
        out = [(dec, False) for dec in table.decompose(chis)]
    except ValueError:
        # outside the validity range: item by item, with the virtual
        # multiplicities of an item that is no character
        out = [_sections_or_virtual(table, Character(table.classes, chis[i])) for i in range(len(ks))]
    return out[0] if isinstance(k, int) else out


def _sections_or_virtual(table: CharTable, chi: Character):
    try:
        return table.decompose(chi), False
    except ValueError:
        return {lb: m for lb in table.labels if (m := table.inner(chi, table.rows[lb]))}, True


def h0_oa_decomposition(k: int) -> Decomposition:
    """Sections of the k-th power of the polarization on the surface.

    For 7 not dividing k this is a*Vi + b*Vi# with a + b = k^2, the twist
    index i fixed by the central character (3^i = -k mod 7), and b - a equal
    to the involution trace (-1 for odd k, 4 for even k).  For k divisible
    by 7 the I/S/Z split is not determined by these invariants; callers
    check the printed rows for dimension and involution trace instead.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if k % 7 == 0:
        raise ValueError("twist index undefined for k divisible by 7")
    i = next(j for j in range(6) if pow(3, j, 7) == (-k) % 7)
    tr = -1 if k % 2 else 4
    a = (k * k - tr) // 2
    b = (k * k + tr) // 2
    return Decomposition({f"V{i}": a, f"V{i}#": b})


# ---------------------------------------------------------------------------
# characters of polynomial subspaces


def weight_blocks(basis):
    """{pivot monomial: row dict}: the reduced rows spanning the P_w(V),
    each weight block row-reduced on its own over Q.

    TAU scales x^e by z^w(e), w(e) = sum k*e_k mod 7, so TAU.act(p.terms)[w]
    is the weight-w part of p: it projects V onto a tau-eigenspace without
    field arithmetic.  The row count, dim sum_w P_w(V), is >= dim V, with
    equality exactly when V is tau-stable.
    """
    parts = [TAU.act(p.terms) for p in basis]
    rows = {}
    for w in range(7):
        monos = sorted({e for part in parts for e in part[w]}, reverse=True)
        if monos:
            red, pivots = rref([[part[w].get(e, 0) for e in monos] for part in parts])
            rows.update((monos[c], {monos[j]: x for j, x in enumerate(row) if x}) for row, c in zip(red, pivots))
    return rows


class SpanSolver:
    """Traces and stability of a signed zeta-monomial substitution, a MonoMat
    read as x_i -> sign[i] z^pw[i] x_perm[i] (the heisenberg module docstring
    fixes this action), on a tau-stable span over Q, from its reduced
    weight-block rows (the surface span has seven 3x12 blocks, which sigma
    permutes).  Such a map sends each monomial to one relabelled monomial
    times a phase (-z)^k, so all work is over Q: a row's image splits into
    seven rational phase parts (g.act), and the trace into seven rational
    phase buckets (read with g.phases()).  A basis not over Q and a
    dependent or non-tau-stable basis are a ValueError.
    """

    def __init__(self, basis):
        if not basis:
            raise ValueError("empty basis")
        for p in basis:
            if p.dom is not QQ:  # the phases live in Q(z7), never reduced mod p
                raise ValueError(f"span basis is over {p.dom.name}, not Q")
        # each row has coefficient 1 at its pivot and 0 at every other pivot
        self.rows = weight_blocks(basis)
        rank = len(self.rows)
        if rank < len(basis):
            raise ValueError("basis is linearly dependent")
        if rank > len(basis):
            raise ValueError(f"span is not stable under tau: its weight parts span {rank} > {len(basis)} dimensions")

    def _remainder(self, v):
        """v, a {monomial: Fraction} dict, reduced modulo the span in place:
        every pivot cleared with its row, which touches no other pivot."""
        for piv in [e for e in v if e in self.rows]:
            a = v[piv]
            for e, c in self.rows[piv].items():
                v[e] = v.get(e, 0) - a * c
        return {e: c for e, c in v.items() if c}

    def is_stable_under(self, g) -> bool:
        """Whether g keeps the span V: the image of a row v is sum_m z^m u_m
        with rational phase parts u_m, and g keeps V iff every part of every
        row lies in V.

        "If" is plain.  For "only if", write g = P S sum_m z^m E_m, with P
        relabelling monomials, S their signs and E_m the projection onto the
        monomials of phase m.  If g keeps V(z) = V tensor Q(z), then, V being
        defined over Q, so does each Galois conjugate g_a (z -> z^a,
        a = 1..6), and so does g_a g_b^-1 = sum_m z^(cm) Q_m, with c = a - b
        and Q_m = P E_m P^-1.  Every c mod 7 occurs, and the sum over c with
        weights z^(-ck) is 7 Q_k, so Q_k keeps V(z).  Then Q_k g v =
        z^k P S E_k v = z^k u_k lies in V(z), and u_k, being rational, lies
        in V.  So the parts are tested one by one, up to the first one
        outside the span.
        """
        return not any(self._remainder(u) for row in self.rows.values() for u in g.act(row) if u)

    def trace(self, g) -> Cyc7:
        """Trace of g on the span, assuming it is stable: the image of each
        row at its own pivot, summed into seven rational phase buckets q_m,
        then sum_m z^m q_m."""
        ks = g.phases()
        buckets = [0] * 7
        for piv, row in self.rows.items():
            e = tuple(piv[p] for p in g.perm)
            if e in row:
                k = sum(map(mul, e, ks)) % 14
                buckets[k % 7] += -row[e] if k % 2 else row[e]
        return sum((Cyc7.zeta(m) * q for m, q in enumerate(buckets) if q), _C0)


def subspace_character(span, table: CharTable = None) -> Character:
    """G7-character of a stable polynomial span under the contragredient
    coordinate action, g acting by the substitution g.conj() (see the
    heisenberg module docstring).

    `span` is a basis over Q or its SpanSolver, which reads each class
    representative's trace off the weight blocks.  Building the solver
    certifies tau-stability; stability is then certified on sigma and iota,
    which generate the group together with tau, so traces on all class
    representatives are well defined.
    """
    table = table or g7_table()
    solver = span if isinstance(span, SpanSolver) else SpanSolver(span)
    for g in (SIGMA, IOTA):
        if not solver.is_stable_under(g.conj()):
            raise ValueError(f"span is not stable under generator {g}")
    vals = [solver.trace(rep.matrix().conj()) for rep in table.classes.reps]
    return Character(table.classes, vals)
