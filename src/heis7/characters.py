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

A class function is a field.CycArray whose last batch axis runs over the
classes: a row of batch shape (classes,), or a batch (n, classes) of n of
them.  Its values are integer numerators over one common denominator,
int64 while every numerator stays below 2^62 and Python ints beyond (each
operation checks its bound first): Q(zeta7) for G7, and the sqrt2 tower
for SL2(F7), the only place sqrt2 appears.  Products, sums, power maps
(class gathers), pairings with all rows at once, the reconstruction check
(an integer matmul), both orthogonality relations (Gram matrices) and the
Newton recursion run on these arrays; Cyc7 values (FieldElem only where a
sqrt2 part is nonzero) are built only by CycArray.tolist.

A table is built as one (labels, classes) batch: g7_table from the traces
of one dense batch of the class representatives, their Galois twists, the
sign row and one gather for the Z rows, sl2_table from its printed rows.
CharTable.rows[lb] is row lb of it.  decompose, sym_power, ext_power,
dual and inner take a row or a batch alike.  A batch takes one
Newton recursion to the highest degree asked for, and one contraction
against all rows; its multiplicities are decided on the integer numerators
of that contraction, without a Fraction per label: a pairing is rational
iff its coordinates other than the rational one are zero, and a
non-negative integer iff its numerator is >= 0 and divisible by den |G|.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from math import lcm
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
    MONO_ID,
    SIGMA,
    TAU,
    conjugacy_classes_g7,
    conjugacy_classes_sl2,
    differs,
    mono_dense,
    sl2_inv,
    sl2_mul,
)
from .poly import Poly, render_poly


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
    """Irreducible characters indexed by label, plus power maps.

    The table is one CycArray of batch shape (labels, classes), refused in
    any other shape, and rows maps each label to its row, of batch shape
    (classes,).  Every method that takes a class function takes such
    a row or a batch (n, classes) and answers in kind: a power of a row is
    a row and of a batch a batch, and decompose gives one Decomposition
    for a row and a list of n for a batch.  Any other shape is refused.
    """

    def __init__(self, classes: ClassData, labels, table: CycArray, power_fn, identity_class: int):
        if table.shape != (len(labels), classes.count):
            raise ValueError("one value per conjugacy class required")
        self.classes = classes
        self.labels = list(labels)
        self._table = table
        self._index = {lb: i for i, lb in enumerate(self.labels)}
        self.rows = {lb: self._table[i] for lb, i in self._index.items()}
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

    def _as_batch(self, chi: CycArray) -> CycArray:
        """A row or a batch of class functions as a (n, classes) batch."""
        if len(chi.shape) not in (1, 2) or chi.shape[-1] != self.classes.count:
            raise ValueError(f"a class function has batch shape ({self.classes.count},) or (n, {self.classes.count})")
        return chi.reshape(-1, self.classes.count)

    def dual(self, chi: CycArray) -> CycArray:
        return self._as_batch(chi)[:, self.power_classes(-1)].reshape(*chi.shape)

    def inner(self, a: CycArray, b: CycArray):
        """Exact inner product (1/|G|) sum |c| a(c) conj(b(c)): a Fraction
        for two rows, the list of them for a batch against a row or two
        batches of one shape."""
        p = self._as_batch(a) * self._weighted_conj(self._as_batch(b))
        num, den, irrational = self._pairings(p.sum(1))
        if irrational.any():
            raise ValueError("inner product is not rational")
        out = [Fraction(x, den) for x in num.tolist()]
        return out if max(len(a.shape), len(b.shape)) == 2 else out[0]

    def _weighted_conj(self, arr: CycArray) -> CycArray:
        return arr.conj() * self._sizes

    def _pairings(self, p: CycArray):
        """p / |G|, for a contraction p against weighted conjugates, as (num,
        den, irrational): a value is num / den where it is rational, i.e.
        where its coordinates other than the rational one (z^1..z^5, sqrt2)
        are zero."""
        flat = p.num.reshape(*p.shape, -1)
        den = p.den * self.classes.group_order()
        # int64 numerators meet den in numpy only while den fits in int64
        num = flat[..., 0] if den < 1 << 62 else flat[..., 0].astype(object)
        return num, den, (flat[..., 1:] != 0).any(axis=-1)

    def decompose(self, chi: CycArray):
        """Multiplicities of chi in the rows: one Decomposition for a row, the
        list of them for a batch.

        A multiplicity is a non-negative integer iff its numerator is >= 0
        and divisible by den |G|, and the multiplicities must reconstruct
        each item exactly (one integer matmul with the table).  A batch
        raises ValueError for its first item that is not a character, with
        the message that item alone would give.
        """
        arr = self._as_batch(chi)
        num, den, irrational = self._pairings(arr @ self._paired)
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
        return decs if len(chi.shape) == 2 else decs[0]

    def sym_power(self, chi: CycArray, k):
        """S^k of chi by the Newton recursion k h_k = sum_j chi(g^j) h_{k-j}.
        For a sequence of degrees k, one recursion to max(k) gives the list
        of those powers."""
        return self._powers(chi, k, alternating=False)

    def ext_power(self, chi: CycArray, k):
        """Exterior powers by the alternating Newton recursion; k as in
        sym_power."""
        return self._powers(chi, k, alternating=True)

    def _powers(self, chi, k, alternating: bool):
        degrees = [k] if isinstance(k, int) else list(k)
        if not degrees or min(degrees) < 0:
            raise ValueError("power degrees must be non-negative")
        arr = self._as_batch(chi)
        top = max(degrees)
        # chi(g^j) for j = 1..top, one power-map gather, on the first axis
        gather = np.array([self.power_classes(j) for j in range(1, top + 1)], dtype=np.intp)
        series = newton(arr[:, gather.reshape(top, self.classes.count)].swapaxes(0, 1), alternating)
        out = [series[j].reshape(*chi.shape) for j in degrees]
        return out[0] if isinstance(k, int) else out

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
        rep_j = HElem(0, 0, 0, 0)
        for _ in range(j % 14):  # G7 has exponent 14
            rep_j = rep_j * rep
        return classes.index_of[rep_j]

    return fn


@cache
def g7_table() -> CharTable:
    """I, S, V0..V5, V0#..V5# and the 24 Z(s,t), as one (38, 38) batch: the
    V rows are Galois twists of the traces of one dense batch of the class
    representatives, and the Z rows are one gather."""
    classes = conjugacy_classes_g7()
    _, m, n, b = (np.array(col) for col in zip(*classes.reps))
    one, sign = CycArray.from_ints(np.ones_like(b)), CycArray.from_ints(1 - 2 * b)
    base = mono_dense(*zip(*(rep.matrix() for rep in classes.reps))).trace()
    twists = [base.galois(i) for i in range(6)]
    # (s,t) ranges over one of each pair +/-(s,t) != 0, the lesser
    zlabels = [(s, t) for s in range(7) for t in range(7) if (0, 0) < (s, t) < (-s % 7, -t % 7)]
    st = np.array(zlabels)
    # z^e + z^-e at e = s m + t n (2 at the center), 0 on the involution coset
    pairs = CycArray.from_values([Cyc7.zeta(e) + Cyc7.zeta(-e) for e in range(7)] + [0])
    z = pairs[np.where(b, 7, st @ np.stack([m, n]) % 7)]
    labels = ["I", "S", *(f"V{i}" for i in range(6)), *(f"V{i}#" for i in range(6))]
    labels += [f"Z({s},{t})" for s, t in zlabels]
    table = CycArray.stack([one, sign, *twists, *(v * sign for v in twists), *(z[k] for k in range(len(st)))])
    return CharTable(classes, labels, table, _g7_power_fn(classes), classes.index_of[HElem(0, 0, 0, 0)])


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
    ap, am, r2 = alpha_plus(), alpha_minus(), FieldElem.sqrt2()
    # columns: id, iota, mu, iota*mu, nu, nu^3, iota*nu^3, iota*nu, delta, r8a, r8b
    rows = {
        "I": [1] * 11,
        "M1": [8, -8, -1, 1, 1, 1, -1, -1, 0, 0, 0],
        "M2": [8, 8, -1, -1, 1, 1, 1, 1, 0, 0, 0],
        "L": [7, 7, 1, 1, 0, 0, 0, 0, -1, -1, -1],
        "U": [4, -4, 1, -1, am, ap, -ap, -am, 0, 0, 0],
        "U'": [4, -4, 1, -1, ap, am, -am, -ap, 0, 0, 0],
        "T1": [6, -6, 0, 0, -1, -1, 1, 1, 0, r2, -r2],
        "T2": [6, -6, 0, 0, -1, -1, 1, 1, 0, -r2, r2],
        "T": [6, 6, 0, 0, -1, -1, -1, -1, 2, 0, 0],
        "W": [3, 3, 0, 0, -ap, -am, -am, -ap, -1, 1, 1],
        "W'": [3, 3, 0, 0, -am, -ap, -ap, -am, -1, 1, 1],
    }
    table = CycArray.stack([CycArray.from_values(vals) for vals in rows.values()])
    return CharTable(classes, list(rows), table, _sl2_power_fn(classes), 0)


# ---------------------------------------------------------------------------
# characters from explicit generator images


class RepError(Exception):
    pass


def char_of_rep(sigma_img, tau_img, iota_img, table: CharTable) -> CycArray:
    """Character row of the G7 representation with the given generator images.

    The images must be dense 7x7 CycArray matrices over Q(zeta7).  The
    defining relations are verified first, on stacked products.  The
    central image eps is recovered from the commutator c of the sigma and
    tau images: [sigma, tau] = eps^6 with eps of order 7, so c has order 7
    and eps = c^6.
    """
    s, t, io = sigma_img, tau_img, iota_img
    idm = MONO_ID.dense()

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
    return acc.trace()


# ---------------------------------------------------------------------------
# cohomology-style virtual characters


def omega3_sections_char(ks):
    """Sections of three-forms twisted by O(k) on P(V), as G7 characters,
    one (Decomposition, flagged) pair for each k of the sequence ks.

    Computed as the alternating truncated-Koszul combination of exterior and
    symmetric powers of the dual representation, with S^j = 0 for j < 0;
    valid (all multiplicities nonnegative) for k >= 1.  flagged reports
    negative virtual multiplicities.  All pairs come from one exterior
    recursion to degree 3, one symmetric recursion to the largest k and
    one decomposition of the batch.
    """
    ks = np.array(list(ks))
    table = g7_table()
    vd = table.dual(table.rows["V0"])
    ext = table.ext_power(vd, range(4))
    # S^(j-3) at row j: three zero rows ahead of S^0 .. S^max(k)
    zero = CycArray.from_ints(np.zeros(table.classes.count, dtype=np.int64))
    sym = CycArray.stack([zero] * 3 + table.sym_power(vd, range(max(ks.max(), 0) + 1)))
    t = [sym[np.maximum(ks + i, 0)] * ext[3 - i] for i in range(4)]
    chis = t[0] - t[1] + t[2] - t[3]
    try:
        out = [(dec, False) for dec in table.decompose(chis)]
    except ValueError:
        # outside the validity range: item by item, with the virtual
        # multiplicities of an item that is no character
        out = [_sections_or_virtual(table, chis[i]) for i in range(len(ks))]
    return out


def _sections_or_virtual(table: CharTable, chi: CycArray):
    try:
        return table.decompose(chi), False
    except ValueError:
        return {lb: m for lb, m in zip(table.labels, table.inner(chi, table._table)) if m}, True


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


class SpanSolver:
    """Traces and stability of a signed zeta-monomial substitution, a MonoMat
    read as x_i -> sign[i] z^pw[i] x_perm[i] (the heisenberg module docstring
    fixes this action), on the span over Q of a partitioned basis in the 7
    coordinates.  Its members have pairwise disjoint supports, so they are
    their own reduced echelon rows: rows maps each member's leading monomial
    (its pivot) to the member over 1 there, integer numerators G over L > 0,
    and owner maps each monomial to its row's pivot.  Refused with
    ValueError: an empty basis, a zero member, two members sharing a
    monomial, a basis not over Q or not in 7 variables, a span that is not
    tau-stable.
    """

    def __init__(self, basis):
        if not basis:
            raise ValueError("empty basis")
        self.rows, self.owner = {}, {}
        for p in basis:
            if p.dom is not QQ:  # the phases live in Q(z7), never reduced mod p
                raise ValueError(f"span basis is over {p.dom.name}, not Q")
            if p.reg.n != 7:  # a MonoMat acts on the 7 coordinates
                raise ValueError(f"span basis is in {p.reg.n} variables, not 7")
            if not p.terms:
                raise ValueError("span basis has a zero member")
            if shared := [e for e in p.terms if e in self.owner]:
                raise ValueError(f"two span basis members share the monomial {render_poly(Poly.monomial(p.reg, shared[0], 1))}")
            piv = max(p.terms)
            L = lcm(*((c / p.terms[piv]).denominator for c in p.terms.values()))
            self.rows[piv] = ({e: int(c / p.terms[piv] * L) for e, c in p.terms.items()}, L)
            self.owner.update(dict.fromkeys(p.terms, piv))
        if not self.is_stable_under(TAU):
            raise ValueError("span is not stable under tau")

    def _contains(self, u) -> bool:
        """Whether the span holds u, a {monomial: int} dict: each monomial of
        u is in a row's support, and u is c/a times each row G it meets
        (c = u[e], a = G[e] at one monomial e) over G's whole support."""
        met = {}
        for e, c in u.items():
            piv = self.owner.get(e)
            if piv is None:
                return False
            met.setdefault(piv, (c, self.rows[piv][0][e]))
        return all(u.get(f, 0) * a == c * v for piv, (c, a) in met.items() for f, v in self.rows[piv][0].items())

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
        in V.  So the parts are tested one by one, on their numerators, up to
        the first one outside the span.
        """
        return all(self._contains(u) for G, _ in self.rows.values() for u in g.act(G) if u)

    def trace(self, g) -> Cyc7:
        """Trace of g on the span, assuming it is stable: the image of each
        row at its own pivot, summed into seven integer phase buckets q_m
        over the rows' common denominator, then sum_m z^m q_m with
        z^6 = -(1 + z + ... + z^5)."""
        ks = g.phases()
        den = lcm(*(L for _, L in self.rows.values()))
        buckets = [0] * 7
        for piv, (G, L) in self.rows.items():
            e = tuple(piv[p] for p in g.perm)
            if e in G:
                k = sum(map(mul, e, ks)) % 14
                buckets[k % 7] += (-G[e] if k % 2 else G[e]) * (den // L)
        return Cyc7(tuple(q - buckets[6] for q in buckets[:6]), den)


def subspace_character(basis, table: CharTable) -> CycArray:
    """G7-character row of the span of a partitioned basis over Q (SpanSolver),
    stable under the contragredient coordinate action, g acting by the
    substitution g.conj() (see the heisenberg module docstring).

    The members are independent, and each class representative's trace is
    read off them.  Building the solver certifies tau-stability; stability
    is then certified on sigma and iota, which generate the group together
    with tau, so traces on all class representatives are well defined.
    """
    solver = SpanSolver(basis)
    for g in (SIGMA, IOTA):
        if not solver.is_stable_under(g.conj()):
            raise ValueError(f"span is not stable under generator {g}")
    vals = [solver.trace(rep.matrix().conj()) for rep in table.classes.reps]
    return CycArray.from_values(vals)
