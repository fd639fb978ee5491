"""The level-7 Heisenberg group, its involution extension, and SL2(F7).

Matrix model (on V = C^7 with basis e_0..e_6, indices mod 7):

    sigma: e_j -> e_{j+1}          tau:   e_j -> z^j e_j
    iota:  e_j -> -e_{-j}          mu:    e_j -> e_{2j}
    nu:    e_j -> z^{j^2} e_j      delta: e_j -> (i/sqrt7) sum_k z^{kj} e_k

with z = zeta7 and i*sqrt7 realized as the Gauss sum.  All of these except
delta are signed monomial matrices, stored compactly as a MonoMat
(permutation, signs, zeta-powers); delta is kept as a dense matrix over
Q(zeta7).  A MonoMat has no arithmetic of its own: it acts on coordinates
(act, phases), inverts, conjugates and expands to a dense matrix.  An
element of G7 gets its compact matrix from HElem.matrix(); products of
compact matrices are composed on column codes (build_heisenberg); every
other product, trace, determinant, comparison and Galois twist is on
dense matrices, a CycArray of batch shape (..., 7, 7) with its operators
(@, ==, .trace(), .galois()) and dense_det, and relations over many
matrices are decided on stacked products.

The coordinate action is written once, here.  A MonoMat g is also the
substitution x_i -> sign[i] z^pw[i] x_perm[i] of the coordinate functions
x_0..x_6 of the dual basis; MonoMat.act applies it to a polynomial's
terms by relabelling exponents and splitting the image into seven rational
phase parts, with no field arithmetic.  The pullback p -> p o g of a
polynomial is the substitution of g's transpose, g.inv().conj(); the
contragredient p -> p o g^-1, which makes the x_j a copy of the dual
representation, is the substitution of g.conj(), since for these unitary
matrices the entrywise conjugate is the inverse transpose.  So sigma and
iota pull x_j back to x_{j-1} and -x_{-j} (SIGMA.inv() and IOTA), and tau
acts contragrediently by x_j -> z^{-j} x_j (TAU.conj()).

Direction conventions are forced empirically: with sigma raising the index,
all eight conjugation relations for mu, nu, iota, delta hold verbatim, and
elements (a, m, n, b) = z^a * Phi(m,n) * iota^b with
Phi(m,n) = z^{4mn} sigma^m tau^n multiply with the antisymmetric cocycle
z^{3(m n' - m' n)}.  (Under the opposite shift one gets sigma tau =
z tau sigma but a non-antisymmetric cocycle and broken mu/nu relations;
the verification report records which reading holds.)  Consequently
tau sigma = z sigma tau here.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from operator import mul
from typing import NamedTuple

import numpy as np

from .field import QQ, Cyc7, CycArray, gauss_sum
from .linalg import inverse

_ZETA_NUM = np.array([Cyc7.zeta(k).num for k in range(7)], dtype=np.int64)


class MonoMat(NamedTuple):
    """Signed zeta-monomial 7x7 matrix: e_l -> sign[l] * z^pw[l] * e_{perm[l]}."""

    perm: tuple
    sign: tuple
    pw: tuple

    def inv(self) -> "MonoMat":
        perm = [0] * 7
        sign = [1] * 7
        pw = [0] * 7
        for l in range(7):
            t = self.perm[l]
            perm[t] = l
            sign[t] = self.sign[l]
            pw[t] = (-self.pw[l]) % 7
        return MonoMat(tuple(perm), tuple(sign), tuple(pw))

    def conj(self) -> "MonoMat":
        """The entrywise complex conjugate: z^pw -> z^-pw."""
        return MonoMat(self.perm, self.sign, tuple(-p % 7 for p in self.pw))

    def phases(self) -> list:
        """The phase exponents k_i mod 14 with sign[i] z^pw[i] = (-z)^k_i:
        the phases of a monomial's image compose by adding them."""
        return [p + 7 * ((p + (sg < 0)) % 2) for sg, p in zip(self.sign, self.pw)]

    def act(self, terms) -> list:
        """The image sum_m z^m u_m of the polynomial {e: rational c_e} under
        x_i -> sign[i] z^pw[i] x_perm[i], as its seven phase parts u_m: x^e
        goes to x^f, f[perm[i]] = e[i], times (-z)^k, k = sum k_i e_i."""
        ks, inv = _substitution(self)
        parts = [{} for _ in range(7)]
        for e, c in terms.items():
            k = sum(map(mul, e, ks)) % 14
            parts[k % 7][tuple(map(e.__getitem__, inv))] = -c if k % 2 else c
        return parts

    def dense(self) -> CycArray:
        """Expand to a 7x7 matrix over Q(zeta7) (rows x cols, column-action)."""
        return mono_dense(self.perm, self.sign, self.pw)


@cache
def _substitution(g: MonoMat) -> tuple:
    """(g.phases(), the inverse permutation of g.perm): what g.act reads,
    formed once per map."""
    return tuple(g.phases()), tuple(sorted(range(7), key=g.perm.__getitem__))


def mono_dense(perm, sign, pw) -> CycArray:
    """Dense matrices of signed zeta-monomial matrices given as (..., 7)
    int arrays: entry (perm[l], l) is sign[l] * z^pw[l].  A list of MonoMat
    is one batch: mono_dense(*zip(*mats))."""
    perm, sign, pw = (np.asarray(x) for x in (perm, sign, pw))
    hits = perm[..., :, None] == np.arange(7)  # [..., l, row]
    vals = sign[..., None] * _ZETA_NUM[pw]  # [..., l, coordinate]
    return CycArray(np.swapaxes(hits[..., None] * vals[..., :, None, :], -3, -2))


MONO_ID = MonoMat(tuple(range(7)), (1,) * 7, (0,) * 7)
SIGMA = MonoMat(tuple((l + 1) % 7 for l in range(7)), (1,) * 7, (0,) * 7)
TAU = MonoMat(tuple(range(7)), (1,) * 7, tuple(range(7)))
IOTA = MonoMat(tuple((-l) % 7 for l in range(7)), (-1,) * 7, (0,) * 7)
MU = MonoMat(tuple((2 * l) % 7 for l in range(7)), (1,) * 7, (0,) * 7)
NU = MonoMat(tuple(range(7)), (1,) * 7, tuple((l * l) % 7 for l in range(7)))


def delta_dense() -> CycArray:
    """delta e_j = (i/sqrt7) sum_k z^{kj} e_k, with i/sqrt7 = gauss_sum()/7."""
    r = np.arange(7)
    c = gauss_sum() * Cyc7.from_rat(Fraction(1, 7))
    return CycArray(_ZETA_NUM[np.outer(r, r) % 7]) * c


def dense_det(a: CycArray):
    """det of a dense 7x7 matrix A, or the list of them for a batch
    (..., 7, 7): the elementary symmetric e_7 of its eigenvalues, from the
    power sums tr A^1 .. tr A^7 by the Newton recursion; A^2, A^3, A^4 are
    formed and tr A^5 .. tr A^7 are trace pairings of them."""
    from .characters import newton

    a2 = a @ a
    a3 = a2 @ a
    a4 = a2 @ a2
    pows = [a, a2, a3, a4]
    traces = [p.trace() for p in pows] + [a4.trace_dot(p) for p in pows[:3]]
    return newton(CycArray.stack(traces), alternating=True)[7].tolist()


# ---------------------------------------------------------------------------
# abstract group law


def _law(a1, m1, n1, b1, a2, m2, n2, b2):
    """The G7 product (a1, m1, n1, b1) * (a2, m2, n2, b2), on ints or on
    equal-shape numpy int arrays alike (no branching on the operands)."""
    # iota^b1 conjugates Phi(m2, n2) to Phi(-m2, -n2)
    sg = 1 - 2 * b1
    m2, n2 = sg * m2 % 7, sg * n2 % 7
    # the printed antisymmetric cocycle, valid for the index-raising sigma
    a = (a1 + a2 + 3 * (m1 * n2 - m2 * n1)) % 7
    return a, (m1 + m2) % 7, (n1 + n2) % 7, (b1 + b2) % 2


class HElem(NamedTuple):
    """z^a * Phi(m,n) * iota^b with Phi(m,n) = z^{4mn} sigma^m tau^n."""

    a: int
    m: int
    n: int
    b: int

    def __mul__(self, other: "HElem") -> "HElem":
        if not isinstance(other, HElem):
            return NotImplemented
        return HElem(*_law(*self, *other))

    def inv(self) -> "HElem":
        """(-a, -s m, -s n, b), s = (-1)^b: the cocycle vanishes on (m, n)
        and (-m, -n), and iota^b inverts Phi."""
        a, m, n, b = self
        s = 1 - 2 * b
        return HElem(-a % 7, -s * m % 7, -s * n % 7, b)

    def matrix(self) -> MonoMat:
        """z^(a+4mn) sigma^m tau^n iota^b, column by column: iota^b sends
        e_l to (-1)^b e_j with j = (-1)^b l, tau^n scales e_j by z^(nj)
        and sigma^m moves it to e_(j+m)."""
        a, m, n, b = self
        sg = 1 - 2 * b
        cols = [sg * l % 7 for l in range(7)]
        return MonoMat(
            tuple((j + m) % 7 for j in cols),
            (sg,) * 7,
            tuple((a + 4 * m * n + n * j) % 7 for j in cols),
        )


H_GEN_SIGMA = HElem(0, 1, 0, 0)
H_GEN_TAU = HElem(0, 0, 1, 0)
H_GEN_IOTA = HElem(0, 0, 0, 1)


def h7_elements():
    return [HElem(a, m, n, 0) for a in range(7) for m in range(7) for n in range(7)]


def g7_elements():
    return [HElem(a, m, n, b) for b in range(2) for a in range(7) for m in range(7) for n in range(7)]


class GroupLawError(Exception):
    pass


# A compact matrix's column l is coded as one small int,
# perm[l] * 14 + (sign[l] < 0) * 7 + pw[l], so a matrix is a 7-vector of
# codes in [0, 98).  Column l of x * y is x's column perm_y[l] with y's
# sign and power multiplied in: _COMPOSE[x's code there, y's code % 14].
# (Both tables are built from Python ints, so importing the module runs no
# numpy arithmetic.)
_CODE = np.arange(98)
_COMPOSE = np.array(
    [[c // 14 * 14 + (c // 7 % 2 ^ t // 7) * 7 + (c + t) % 7 for t in range(14)] for c in range(98)],
    dtype=np.uint8,
)
_PACK = np.array([98**k for k in range(7)], dtype=np.int64)  # one int64 key per matrix: 98^7 < 2^63


def _codes(mats) -> np.ndarray:
    """The column codes of a list of MonoMat, shape (len(mats), 7)."""
    perm, sign, pw = (np.array(col) for col in zip(*mats))
    return (perm * 14 + (sign < 0) * 7 + pw).astype(np.uint8)


def _code_dense(codes) -> CycArray:
    """The dense matrices of a (..., 7) array of column codes."""
    codes = codes.astype(np.intp)
    return mono_dense(codes // 14, 1 - 2 * (codes // 7 % 2), codes % 7)


def _code_map(x) -> np.ndarray:
    """For the codes of x, shape (..., 7): the (..., 98) map from a column
    code of y to the code of that column of x * y."""
    return _COMPOSE[x[..., _CODE // 14], _CODE % 14]


def _compose(x, y) -> np.ndarray:
    """Column codes of the compact products x * y, for (..., 7) code
    arrays with the same number of axes and broadcasting batch shapes."""
    return np.take_along_axis(_code_map(x), y, axis=-1)


# step 3: each matrix group, its generators and the order it must have
CLOSURES = (("sigma, tau", (SIGMA, TAU), 343), ("sigma, tau, iota", (SIGMA, TAU, IOTA), 686))


def build_heisenberg():
    """Cross-validate the abstract law against the matrix model.

    Checks, in order:
      1. every abstract element's compact matrix agrees with the dense
         product of dense generator matrices (validates the compact
         encoding): the 98 dense sigma^m tau^n iota^b come from batched
         products of the dense generator powers, and z^(a+4mn) scales
         their entries; then 686 seeded compact products, formed on
         column codes by the table _COMPOSE, agree with dense products;
      2. abstract products match compact-matrix products for all
         686^2 = 470596 ordered pairs of G7 elements: for each x, the law
         on arrays gives the indices of the 686 products x * y, and their
         compact products are one gather of all codes through x's code map
         (x's rows of _COMPOSE), compared with the products' codes;
      3. the matrix groups generated by sigma, tau and by sigma, tau, iota
         have orders 343 and 686, by breadth-first closure on codes, each
         matrix packed into one int64 key.

    Returns (H7 element list, G7 element list, stats dict).
    """
    import random

    h7 = h7_elements()
    g7 = g7_elements()
    # int16 keeps the law's arithmetic on 7 x 686 arrays cheap
    A, M, N, B = (np.array(col, dtype=np.int16) for col in zip(*g7))
    E = _codes([g.matrix() for g in g7])

    index = np.empty((7, 7, 7, 2), dtype=np.intp)  # G7 position of (a, m, n, b)
    index[A, M, N, B] = np.arange(len(g7))

    # 1. compact encoding vs dense matrix arithmetic, 49 elements per batch
    # (numpy temporaries stay under 128 KB)
    gens = CycArray.stack([SIGMA.dense(), TAU.dense()])
    pows = [CycArray.stack([MONO_ID.dense()] * 2), gens]
    for _ in range(5):
        pows.append(pows[-1] @ gens)
    pows = CycArray.stack(pows)  # [power, generator]
    # dense products in the order HElem.matrix() writes: sigma^m tau^n iota^b
    st = (pows[:, 0][:, None] @ pows[:, 1][None, :]).reshape(49, 7, 7)  # sigma^m tau^n
    mn = np.arange(49)
    zeta = CycArray(_ZETA_NUM)
    for b, dense in enumerate((st, st @ IOTA.dense())):  # ... iota^b
        for a in range(7):
            pos = index[a, :, :, b].ravel()
            central = zeta[(a + 4 * (mn // 7) * (mn % 7)) % 7].reshape(49, 1, 1)
            scaled = dense * central  # each matrix times its scalar
            bad = _differ(scaled, _code_dense(E[pos]))
            if bad is not None:
                raise GroupLawError(f"compact matrix encoding disagrees with dense product at {g7[pos[bad]]}")

    rng = random.Random(2024)
    sample = np.array([(rng.randrange(len(g7)), rng.randrange(len(g7))) for _ in range(686)])
    for lo in range(0, len(sample), 49):
        xs, ys = sample[lo : lo + 49].T
        dense = _code_dense(E[xs]) @ _code_dense(E[ys])
        bad = _differ(dense, _code_dense(_compose(E[xs], E[ys])))
        if bad is not None:
            raise GroupLawError(f"compact product disagrees with dense product at {g7[xs[bad]]}, {g7[ys[bad]]}")

    # 2. abstract law vs compact products, one row x * (all of G7) at a
    # time: the law on arrays (7 rows at once) gives the products' indices,
    # and x's code map turns the codes of every y into those of the compact
    # product x * y in one gather
    maps = _code_map(E)
    pairs = 0
    for lo in range(0, len(g7), 7):
        blk = slice(lo, lo + 7)
        ks = index[_law(A[blk, None], M[blk, None], N[blk, None], B[blk, None], A, M, N, B)]
        for i, k in enumerate(ks, lo):
            ok = np.take(maps[i], E) == np.take(E, k, axis=0)
            if not ok.all():
                y = g7[int(np.argmin(ok.all(axis=1)))]
                raise GroupLawError(f"law mismatch at {g7[i]} * {y}")
            pairs += len(g7)

    # 3. group orders by closure from the generators
    orders = []
    for names, generators, want in CLOSURES:
        order = _closure_order(generators)
        if order != want:
            raise GroupLawError(f"matrix group generated by {names} has order {order}")
        orders.append(order)

    return h7, g7, {"pairs_checked": pairs, "order_h7": orders[0], "order_g7": orders[1]}


def differs(a: CycArray, b: CycArray) -> np.ndarray:
    """Boolean array of the batch shape: where two batches of matrices differ."""
    return (a - b).nonzero().any(axis=(-2, -1))


def _differ(a: CycArray, b: CycArray):
    """Index of the first matrix where two batches of matrices differ, or None."""
    bad = differs(a, b)
    return int(np.argmax(bad)) if bad.any() else None


def _closure_order(gens) -> int:
    """Order of the group a list of MonoMat generates, by breadth-first
    closure on column codes."""
    gens = _codes(gens)
    frontier = _codes([MONO_ID])
    seen = set((frontier @ _PACK).tolist())
    while len(frontier):
        prods = _compose(frontier[:, None], gens[None]).reshape(-1, 7)
        new = {key: i for i, key in enumerate((prods @ _PACK).tolist()) if key not in seen}
        seen.update(new)
        frontier = prods[list(new.values())]
    return len(seen)


# ---------------------------------------------------------------------------
# normalizer relations


def verify_normalizer_relations():
    """All printed conjugation relations for mu, nu, iota, delta, plus
    delta^2 = iota and det = 1 for every generator.  Returns a report dict.

    Each matrix relation is written a b = c d, a conjugation g h g^-1 = k
    as g h = k g (det g = 1 is checked below), and all of them are decided
    by two stacked products.  The right-hand sides sigma^2, tau^4 and
    z^8 sigma tau^2 are HElem matrices, whose compact encoding
    build_heisenberg checks against dense products; the six determinants
    are one batched dense_det."""
    delta = delta_dense()
    s, t, io, mu, nu, one = (g.dense() for g in (SIGMA, TAU, IOTA, MU, NU, MONO_ID))
    s_inv = SIGMA.inv().dense()
    relations = {  # name: (a, b, c, d) with a b = c d
        "mu sigma mu^-1 = sigma^2": (mu, s, HElem(0, 2, 0, 0).matrix().dense(), mu),
        "mu tau mu^-1 = tau^4": (mu, t, HElem(0, 0, 4, 0).matrix().dense(), mu),
        "iota sigma iota = sigma^-1": (io, s, s_inv, io),
        "iota tau iota = tau^-1": (io, t, TAU.inv().dense(), io),
        "nu sigma nu^-1 = z^8 sigma tau^2": (nu, s, HElem(0, 1, 2, 0).matrix().dense(), nu),
        "nu tau nu^-1 = tau": (nu, t, t, nu),
        "delta sigma delta^-1 = tau": (delta, s, t, delta),
        "delta tau delta^-1 = sigma^-1": (delta, t, s_inv, delta),
        "delta^2 = iota": (delta, delta, io, one),
    }
    a, b, c, d = (CycArray.stack(col) for col in zip(*relations.values()))
    checks = dict(zip(relations, (~differs(a @ b, c @ d)).tolist()))
    dets = dense_det(CycArray.stack([s, t, io, mu, nu, delta]))
    for name, det in zip(("sigma", "tau", "iota", "mu", "nu", "delta"), dets):
        checks[f"det({name}) = 1"] = det == Cyc7.from_int(1)
    return checks


# ---------------------------------------------------------------------------
# conjugacy classes


class ClassData(NamedTuple):
    """Conjugacy classes: parallel lists of labels, representatives, sizes."""

    labels: tuple
    reps: tuple
    sizes: tuple
    index_of: dict  # element -> class index

    @property
    def count(self):
        return len(self.labels)

    def group_order(self):
        return sum(self.sizes)


def _orbits(perms) -> list:
    """The orbits of the group generated by index permutations of range(n),
    each a list of indices, in order of their least index.  The group is
    finite, so an orbit is closed under the generators alone."""
    seen = [False] * len(perms[0])
    orbits = []
    for start in range(len(seen)):
        if seen[start]:
            continue
        seen[start] = True
        orbit = [start]
        for i in orbit:  # the walk appends to the list it reads
            for p in perms:
                j = p[i]
                if not seen[j]:
                    seen[j] = True
                    orbit.append(j)
        orbits.append(orbit)
    return orbits


# sigma, tau and iota generate G7 (CLOSURES), so conjugation by them
# generates its inner automorphisms
G7_CONJUGATORS = (H_GEN_SIGMA, H_GEN_TAU, H_GEN_IOTA)


def conjugacy_classes_g7() -> ClassData:
    """Orbits of the 686 elements of G7 under conjugation by G7_CONJUGATORS.

    Each conjugation x -> g x g^-1 is an index permutation of g7_elements(),
    read off the law on plain int tuples (no HElem is built per element);
    the orbits are walked on those indices.

    Labels: ('central', a) for z^a; ('C', m, n) with (m, n) the lexicographic
    minimum of +/-(m, n); ('Ca', a) for the involution coset, where z^a is the
    square root (unique in mu7) of the central square of the class.  The
    classes are in label order, each represented by its least element.
    """
    g7 = g7_elements()
    pos = {x: i for i, x in enumerate(g7)}
    perms = []
    for g in G7_CONJUGATORS:
        g_inv = g.inv()
        perms.append([pos[_law(*g, *_law(*x, *g_inv))] for x in g7])
    classes = []
    for orbit in _orbits(perms):
        rep = min(g7[i] for i in orbit)
        if rep.b == 0 and rep.m == 0 and rep.n == 0:
            label = ("central", rep.a)
        elif rep.b == 0:
            mn = min((rep.m, rep.n), ((-rep.m) % 7, (-rep.n) % 7))
            label = ("C", mn[0], mn[1])
        else:
            sq = rep * rep
            if sq.m or sq.n or sq.b:
                raise GroupLawError("involution-coset square is not central")
            label = ("Ca", (4 * sq.a) % 7)  # alpha with alpha^2 = z^(sq.a)
        classes.append((label, rep, orbit))
    classes.sort(key=lambda c: c[0])
    return ClassData(
        tuple(label for label, _, _ in classes),
        tuple(rep for _, rep, _ in classes),
        tuple(len(orbit) for _, _, orbit in classes),
        {g7[i]: ci for ci, (_, _, orbit) in enumerate(classes) for i in orbit},
    )


# ---------------------------------------------------------------------------
# SL2(F7)


def sl2_elements():
    out = []
    for a in range(7):
        for b in range(7):
            for c in range(7):
                for d in range(7):
                    if (a * d - b * c) % 7 == 1:
                        out.append((a, b, c, d))
    return out


def sl2_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return ((a * e + b * g) % 7, (a * f + b * h) % 7, (c * e + d * g) % 7, (c * f + d * h) % 7)


def sl2_inv(x):
    a, b, c, d = x
    return (d % 7, (-b) % 7, (-c) % 7, a % 7)


SL2_ID = (1, 0, 0, 1)
SL2_NEG = (6, 0, 0, 6)
SL2_MU = (2, 0, 0, 4)
SL2_NU = (1, 0, 2, 1)
SL2_DELTA = (0, 6, 1, 0)
SL2_R1 = (2, 2, 5, 2)  # order 8, trace 4
SL2_R2 = (5, 2, 5, 5)  # order 8, trace 3


SL2_CLASS_REPS = [
    ("id", SL2_ID),
    ("iota", SL2_NEG),
    ("mu", SL2_MU),
    ("iota*mu", sl2_mul(SL2_NEG, SL2_MU)),
    ("nu", SL2_NU),
    ("nu^3", (1, 0, 6, 1)),
    ("iota*nu^3", sl2_mul(SL2_NEG, (1, 0, 6, 1))),
    ("iota*nu", sl2_mul(SL2_NEG, SL2_NU)),
    ("delta", SL2_DELTA),
    ("r8a", SL2_R1),
    ("r8b", SL2_R2),
]


def conjugacy_classes_sl2() -> ClassData:
    """Orbits of the 336 elements of SL2(F7) under conjugation by nu, delta
    and mu, each an index permutation of sl2_elements(); the classes are
    those of SL2_CLASS_REPS, in its order."""
    elems = sl2_elements()
    pos = {x: i for i, x in enumerate(elems)}
    perms = []
    for g in (SL2_NU, SL2_DELTA, SL2_MU):
        g_inv = sl2_inv(g)
        perms.append([pos[sl2_mul(sl2_mul(g, x), g_inv)] for x in elems])
    orbits = _orbits(perms)
    if len(orbits) != 11:
        raise GroupLawError(f"SL2(F7) has {len(orbits)} classes, expected 11")
    class_of = {elems[i]: ci for ci, orbit in enumerate(orbits) for i in orbit}
    remap = {}
    for name, rep in SL2_CLASS_REPS:
        ci = class_of[rep]
        if ci in remap:
            raise GroupLawError(f"representative {name} repeats class {ci}")
        remap[ci] = len(remap)
    return ClassData(
        tuple(name for name, _ in SL2_CLASS_REPS),
        tuple(rep for _, rep in SL2_CLASS_REPS),
        tuple(len(orbits[ci]) for ci in remap),
        {e: remap[ci] for e, ci in class_of.items()},
    )


# ---------------------------------------------------------------------------
# eigenspace restrictions (V+ and V-)


VPLUS_BASIS = [  # e1-e6, e4-e3, e2-e5 as coordinate 7-vectors
    (0, 1, 0, 0, 0, 0, -1),
    (0, 0, 0, -1, 1, 0, 0),
    (0, 0, 1, 0, 0, -1, 0),
]
VMINUS_BASIS = [  # 2e0, e1+e6, e4+e3, e2+e5
    (2, 0, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0, 1),
    (0, 0, 0, 1, 1, 0, 0),
    (0, 0, 1, 0, 0, 1, 0),
]


def restrict_to_span(mat: CycArray, basis):
    """Matrix X of the dense 7x7 matrix `mat` on the span of the integer
    vectors `basis` (its columns are the images): M B = B X for B with the
    vectors as columns.

    X is read off M B through a rational left inverse of B, and M B = B X
    is then checked exactly; raises ValueError if the span is not invariant.
    """
    gram = [[sum(x * y for x, y in zip(u, v)) for v in basis] for u in basis]
    left = [[sum(g * v[i] for g, v in zip(row, basis)) for i in range(7)] for row in inverse(gram, QQ)]
    b = CycArray.from_ints(np.array(basis).T)
    mb = mat @ b
    x = CycArray.from_values(q for row in left for q in row).reshape(len(basis), 7) @ mb
    if b @ x != mb:
        raise ValueError("span is not invariant under the matrix")
    return x.tolist()


def restriction_matrices():
    """Restrictions of mu^-1, nu, delta to V+ (dim 3) and V- (dim 4).

    The classical displays use the index-halving map for mu, which is the
    inverse of the element satisfying mu sigma mu^-1 = sigma^2; both versions
    generate the same subgroup and lie in the same conjugacy class.  The
    restriction of the doubling map is the transpose of the displayed
    permutation matrices (a checked fact, not an assumption).
    """
    out = {}
    for name, mat in [("mu", MU.inv().dense()), ("nu", NU.dense()), ("delta", delta_dense())]:
        out[name + "+"] = restrict_to_span(mat, VPLUS_BASIS)
        out[name + "-"] = restrict_to_span(mat, VMINUS_BASIS)
    return out
