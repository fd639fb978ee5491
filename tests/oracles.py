"""Independent test oracles, kept deliberately separate from the package.

CYC is Q(zeta7) as a Poly coefficient domain (Cyc7 values), which the
package's polynomial layer never needs: the oracles below substitute and
compare polynomials over it.

The Betti-number oracle computes graded Betti numbers as Koszul homology
with vectorized prime-field linear algebra: no Groebner bases, syzygy
modules, or resolution code from the package are involved, so it provides a
genuinely independent cross-check of the resolution engine.  On generators
homogeneous for the Z/7 Heisenberg weight it ranks each Koszul map by its
seven weight blocks.

The induced-key oracle is the recursive form of the resolution's module
order: a module term's key is the previous level's key of its image under
the assigned leading term, then its position, down to grevlex on the ring.

The composition oracle expands alpha alpha' as sums of scaled 7x7 form
matrices c_kl * compose_u(k, l), the direct reading of the wedge table,
against which the composition columns of the package's one integer
contraction per matrix (AlphaMatrix.contraction) are tested.  The
annihilation oracle forms the three 2x2 minors of alpha as Poly products of
alpha.entries, the Poly view of the matrix's stored coefficient lift, and
applies the net operators to them with DiffOp.apply, the direct reading of
the criterion, against which the pairing columns of that contraction are
tested; delta_values reads the same nine values off those columns as
Fractions.

The quartic-invariance oracle substitutes v_i -> sum_j X[j][i] v_j over CYC
and compares polynomials, against which the package's evaluation at the
principal lattice is tested.

The span oracle solves coordinates on a polynomial span through one
elimination transform of the augmented matrix [B^T | I] over the basis'
domain, and reads traces and stability from general substitutions; the
package's SpanSolver, on the integer rows of a partitioned basis, is tested
against it, and it reads the character of a basis with overlapping
supports, such as a surface's 21 cubics.  Its Poly images of a signed
zeta-monomial map are built here from the map's fields (perm, sign, pw)
alone.

The normal-form oracle reduces a polynomial by monic divisors in plain
Fraction arithmetic, the reading of the engines' integer kernel without its
common denominators.

The trace oracles multiply 7x7 matrices as nested lists of Cyc7, value by
value, and run the Newton recursions on scalar traces; the orthogonality
oracle pairs character values one by one.  The package's batched CycArray
traces, `newton` and Gram-matrix orthogonality check are tested against
them.

The decomposition oracle pairs a character with each row value by value in
Cyc7/FieldElem arithmetic and rebuilds it from Fraction multiplicities;
the package's batched integer decomposition is tested against it.

The class oracles enumerate the conjugacy classes of G7 and SL2(F7)
breadth-first on the group elements themselves, conjugating by the
generators and their inverses with HElem products and sl2_mul; the
package's orbits of index permutations are tested against them.

The bad-prime oracle reads a prime off the 21 surface cubics themselves,
ranking their 21 x 84 coefficient matrix mod q with numpy; the package's
rank of the 3 x 7 plane psi(t) mod q is tested against it.
"""

from itertools import combinations

import numpy as np

from fractions import Fraction

from heis7.field import QQ, Cyc7, FieldElem, render_cyc
from heis7.formmat import FormMatrix
from heis7.heisenberg import (
    SL2_CLASS_REPS,
    SL2_DELTA,
    SL2_MU,
    SL2_NU,
    ClassData,
    HElem,
    g7_elements,
    sl2_elements,
    sl2_inv,
    sl2_mul,
)
from heis7.linalg import np_rank, np_rref, rref
from heis7.moduli import _MINOR_ROWS, _PAIR, compose_u, delta_ops
from heis7.poly import REG_V, REG_X, Poly, linear_form, monomial_basis


class CycDomain:
    """Q(zeta7) as a coefficient domain."""

    name = "Q(z7)"
    zero = Cyc7.from_int(0)
    one = Cyc7.from_int(1)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def inv(a):
        return a.inv()

    @staticmethod
    def is_zero(a):
        return a.is_zero()

    @staticmethod
    def coerce(x):
        if isinstance(x, FieldElem):
            if not x.b.is_zero():
                raise ValueError(f"{x} is not in Q(zeta7)")
            return x.a
        if isinstance(x, Cyc7):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyc7.from_rat(x)
        raise TypeError(f"cannot coerce {x!r} into Q(zeta7)")

    @staticmethod
    def fmt(a):
        return render_cyc(a)


CYC = CycDomain()


def gb_polys(gb):
    """The reduced basis of a GroebnerBasis as Polys."""
    return [Poly(gb.reg, gb.dom, gb.ring.unpack_poly(g), _clean=True) for g in gb.polys]


class QuotientRing:
    """Degreewise standard-monomial model of S/I over a prime field."""

    def __init__(self, gens, reg, p, max_degree):
        self.reg = reg
        self.p = p
        self.monos = {d: monomial_basis(reg, d) for d in range(max_degree + 1)}
        self.index = {d: {e: i for i, e in enumerate(ms)} for d, ms in self.monos.items()}
        self.std = {}
        self.reduce_rows = {}
        self.pivot_row = {}
        for d in range(max_degree + 1):
            rows = []
            for g in gens:
                dg = max(sum(e) for e in g.terms)
                if dg > d:
                    continue
                for m in monomial_basis(reg, d - dg):
                    row = [0] * len(self.monos[d])
                    for e, c in g.terms.items():
                        t = tuple(a + b for a, b in zip(e, m))
                        row[self.index[d][t]] = int(c) % p
                    rows.append(row)
            if rows:
                red, pivots = np_rref(np.array(rows, dtype=np.int64), p)
            else:
                red, pivots = np.zeros((0, len(self.monos[d])), dtype=np.int64), []
            pivset = set(pivots)
            self.std[d] = [i for i in range(len(self.monos[d])) if i not in pivset]
            self.reduce_rows[d] = red
            self.pivot_row[d] = {c: r for r, c in enumerate(pivots)}

    def dim(self, d):
        return len(self.std[d])

    def monomial_vector(self, d, mono_index):
        """Coordinates of a monomial in the standard basis of degree d."""
        std = self.std[d]
        pos = {m: i for i, m in enumerate(std)}
        v = np.zeros(len(std), dtype=np.int64)
        if mono_index in pos:
            v[pos[mono_index]] = 1
            return v
        r = self.pivot_row[d][mono_index]
        row = self.reduce_rows[d][r]
        for i, m in enumerate(std):
            v[i] = (-int(row[m])) % self.p
        return v

    def mult_matrix(self, var, d):
        """Multiplication by the variable: M_d -> M_{d+1} on standard bases."""
        std = self.std[d]
        out = np.zeros((self.dim(d + 1), len(std)), dtype=np.int64)
        for col, mi in enumerate(std):
            e = list(self.monos[d][mi])
            e[var] += 1
            target = self.index[d + 1][tuple(e)]
            out[:, col] = self.monomial_vector(d + 1, target)
        return out % self.p


def _weight(e):
    """The Z/7 weight sum_k k e_k of an exponent (the Heisenberg weight of a
    monomial in P^6)."""
    return sum(k * x for k, x in enumerate(e)) % 7


def betti_koszul(gens, reg, p, entries, by_weight=True):
    """Graded Betti numbers via Koszul homology.

    entries: iterable of (i, j) positions; returns {(i, j): beta}.  When
    by_weight and every generator is homogeneous for the Z/7 weight, so are
    the standard monomials' reductions, and each Koszul map keeps the weight
    sum(T) + weight(m) of e_T (x) m: its rank is the sum of the ranks of its
    seven weight blocks, each checked to hold every nonzero entry of the
    multiplication maps it is cut from.  Otherwise a map is ranked whole.
    """
    n = reg.n
    max_degree = max(j - i + 1 for i, j in entries)
    ring = QuotientRing(gens, reg, p, max_degree)
    weights = 7 if by_weight and all(len({_weight(e) for e in g.terms}) == 1 for g in gens) else 1
    std_weight = {
        d: np.array([_weight(ring.monos[d][m]) % weights for m in ring.std[d]], dtype=np.int64)
        for d in range(max_degree + 1)
    }
    mult, ranks = {}, {}

    def get_mult(var, d):
        if (var, d) not in mult:
            m = ring.mult_matrix(var, d)
            # multiplication by x_var adds var to the weight
            rows, cols = np.nonzero(m)
            assert np.all((std_weight[d][cols] + var - std_weight[d + 1][rows]) % weights == 0)
            mult[(var, d)] = m
        return mult[(var, d)]

    def subsets(i):
        return list(combinations(range(n), i))

    def weight_block(sets, d, w):
        """For each subset T, the standard monomials m of degree d with
        sum(T) + weight(m) = w, and T's offset in the weight-w block."""
        picked, offset, at = {}, {}, 0
        for T in sets:
            picked[T] = np.nonzero((sum(T) + std_weight[d]) % weights == w)[0]
            offset[T] = at
            at += len(picked[T])
        return picked, offset, at

    def rank(i, j):
        """Rank of the Koszul map K_i -> K_{i-1} in internal degree j."""
        d_src = j - i
        if not 1 <= i <= n or d_src < 0 or d_src + 1 > max_degree:
            return 0
        if (i, j) not in ranks:
            total = 0
            for w in range(weights):
                rows, row_at, nrows = weight_block(subsets(i - 1), d_src + 1, w)
                cols, col_at, ncols = weight_block(subsets(i), d_src, w)
                block = np.zeros((nrows, ncols), dtype=np.int64)
                for T, c in cols.items():
                    for r, var in enumerate(T):
                        rest = tuple(x for x in T if x != var)
                        sign = 1 if r % 2 == 0 else p - 1
                        sub = get_mult(var, d_src)[np.ix_(rows[rest], c)]
                        block[row_at[rest] : row_at[rest] + len(rows[rest]), col_at[T] : col_at[T] + len(c)] = sub * sign
                total += np_rank(block % p, p) if block.size else 0
            ranks[(i, j)] = total
        return ranks[(i, j)]

    result = {}
    for (i, j) in entries:
        d_here = j - i
        if d_here < 0 or d_here > max_degree:
            result[(i, j)] = 0
            continue
        dim_here = len(subsets(i)) * ring.dim(d_here)
        result[(i, j)] = dim_here - rank(i, j) - rank(i + 1, j)
    return result


def _add_exp(a, b):
    return tuple(x + y for x, y in zip(a, b))


def fraction_normal_form(f, basis, divides, p=0):
    """Full normal form of the dict f modulo monic dicts, term by term in
    Fractions, or in residues mod p if p: the first basis element whose
    leading key divides f's leading key (divides(lt, lead)) cancels it."""
    f, out = dict(f), {}
    while f:
        lead = max(f)
        g = next((g for g in basis if divides(max(g), lead)), None)
        if g is None:
            out[lead] = f.pop(lead)
            continue
        c, shift = f[lead], lead - max(g)
        for t, v in g.items():
            x = f.get(t + shift, 0) - c * v
            if p:
                x %= p
            if x:
                f[t + shift] = x
            else:
                del f[t + shift]
    return out


def bad_prime_by_cubic_rank(surface, q) -> str:
    """SurfaceIdeal.bad_prime from the cubics: q divides a coefficient
    denominator, or the 21 cubics have rank below 21 mod q."""
    coeffs = [p.terms for p in surface.basis]
    if any(c.denominator % q == 0 for terms in coeffs for c in terms.values()):
        return f"as {q} divides a denominator"
    column = {e: i for i, e in enumerate(monomial_basis(REG_X, 3))}
    m = np.zeros((len(coeffs), len(column)), dtype=np.int64)
    for r, terms in enumerate(coeffs):
        for e, c in terms.items():
            m[r, column[e]] = c.numerator * pow(c.denominator, -1, q) % q
    return "" if np_rank(m, q) == 21 else f"as the cubics are dependent mod {q}"


def induced_key_recursive(lts, prev_key):
    """Module order induced by assigned leading terms, position tie-break.

    lts[c] is the leading term of the generator presented by component c;
    prev_key maps that leading term's habitat to a sortable tuple.  For the
    first syzygy level lts[c] is an exponent tuple and prev_key a ring key;
    deeper levels pass terms (component, exponent) with the previous module
    key, recursively.
    """

    def key(term):
        c, e = term
        base = lts[c]
        if len(base) == 2 and isinstance(base[1], tuple):
            carrier = (base[0], _add_exp(e, base[1]))  # module leading term
        else:
            carrier = _add_exp(e, base)  # ring leading exponent
        return prev_key(carrier) + (-c,)

    return key


def alpha_compose_forms(alpha):
    """3x3 blocks of alpha alpha' as FormMatrix sums over the wedge table."""

    def coeffs(p):
        out = [QQ.zero] * 4
        for e, c in p.terms.items():
            assert sum(e) == 1
            out[e.index(1)] = c
        return out

    zero = FormMatrix([[Poly.zero(REG_X, QQ)] * 7 for _ in range(7)])
    e = alpha.entries
    blocks = []
    for r in range(3):
        row = []
        for s in range(3):
            a1, b1 = coeffs(e[r][0]), coeffs(e[r][1])
            b2, a2 = coeffs(e[s][0]), coeffs(e[s][1])
            acc = zero
            for k in range(4):
                for l in range(4):
                    c = a1[k] * a2[l] - b1[k] * b2[l]
                    if c:
                        acc = acc + compose_u(k, l).scale(c)
            row.append(acc)
        blocks.append(row)
    return blocks


def delta_criterion_forms(alpha):
    """values[m][j] = d_j applied to the Poly minor m of alpha, over the row
    pairs (0, 1), (0, 2), (1, 2); alpha is annihilated when all are zero."""
    e = alpha.entries
    values = []
    for r, s in ((0, 1), (0, 2), (1, 2)):
        minor = e[r][0] * e[s][1] - e[r][1] * e[s][0]
        row = []
        for op in delta_ops():
            image = op.apply(minor)
            assert all(not any(exp) for exp in image.terms)
            row.append(Fraction(image.terms.get((0, 0, 0, 0), 0)))
        values.append(row)
    return values


def delta_values(alpha):
    """values[m][j] = d_j applied to minor m of alpha, as Fractions, read
    off the minor rows of the pairing columns of the package's integer
    contraction."""
    nums, den = alpha.contraction
    return [[Fraction(v, den) for v in row] for row in nums[_MINOR_ROWS, _PAIR].tolist()]


def quartic_invariant_oracle(f, x):
    """Whether f(X^T v) = f(v), by substituting v_i -> sum_j X[j][i] v_j
    over CYC (the columns of X are the images)."""
    g = f.map_coeffs(CYC.coerce, CYC)
    images = [linear_form(REG_V, [x[j][i] for j in range(3)], CYC) for i in range(3)]
    return g.substitute(images) == g


class SpanSolverOracle:
    """Coordinates and substitution traces on the span of a polynomial basis."""

    def __init__(self, basis):
        self.dom = basis[0].dom
        self.n = len(basis)
        monos = sorted({e for p in basis for e in p.terms}, reverse=True)
        self.mono_index = {e: i for i, e in enumerate(monos)}
        m = len(monos)
        dom = self.dom
        # solve B^T c = v via a precomputed elimination transform E
        aug = []
        for r, e in enumerate(monos):
            row = [p.terms.get(e, dom.zero) for p in basis]
            row += [dom.one if j == r else dom.zero for j in range(m)]
            aug.append(row)
        full, pivots = rref(aug, dom)
        if sum(1 for c in pivots if c < self.n) != self.n:
            raise ValueError("basis is linearly dependent")
        self.transform = [row[self.n :] for row in full]
        self.basis = basis

    def _vec(self, p):
        out = {}
        for e, c in p.terms.items():
            i = self.mono_index.get(e)
            if i is None:
                return None
            out[i] = c
        return out

    def coords(self, p):
        """Exact coordinates of p in the basis; None if p is not in the span."""
        v = self._vec(p)
        if v is None:
            return None
        full = [sum((row[i] * c for i, c in v.items() if row[i] != 0), Cyc7.from_int(0)) for row in self.transform]
        if any(not c.is_zero() for c in full[self.n :]):
            return None
        return full[: self.n]

    def is_stable_under(self, images) -> bool:
        return all(self.coords(p.substitute(images)) is not None for p in self.basis)

    def trace(self, images):
        """Trace of the substitution operator, assuming stability."""
        tr = Cyc7.from_int(0)
        for i, p in enumerate(self.basis):
            v = self._vec(p.substitute(images))
            if v is None:
                raise ValueError("span is not stable under the substitution")
            row = self.transform[i]
            tr = sum((row[j] * c for j, c in v.items() if row[j] != 0), tr)
        return tr


def substitution_images(perm, sign, pw):
    """Poly images over Q(z7) of x_i -> sign[i] z^pw[i] x_perm[i]."""
    images = []
    for i in range(7):
        e = [0] * 7
        e[perm[i]] = 1
        images.append(Poly(REG_X, CYC, {tuple(e): Cyc7.zeta(pw[i]) * sign[i]}))
    return images


def phase_sum(parts):
    """sum_m z^m u_m over Q(z7), for seven {exponent: rational} phase parts."""
    out = Poly.zero(REG_X, CYC)
    for m, u in enumerate(parts):
        out = out + Poly(REG_X, CYC, {e: Cyc7.zeta(m) * CYC.coerce(c) for e, c in u.items()})
    return out


# ---------------------------------------------------------------------------
# scalar traces, Newton recursions and orthogonality


def mono_dense_oracle(m):
    """A MonoMat as a 7x7 nested list: entry (perm[l], l) = sign[l] z^pw[l]."""
    out = [[Cyc7.from_int(0)] * 7 for _ in range(7)]
    for l in range(7):
        out[m.perm[l]][l] = Cyc7.zeta(m.pw[l]) * m.sign[l]
    return out


def dense_mul_oracle(a, b):
    """Product of 7x7 nested lists of Cyc7, skipping zero entries."""
    out = []
    for row in a:
        out.append([
            sum((x * col[j] for x, col in zip(row, b) if not x.is_zero() and not col[j].is_zero()), Cyc7.from_int(0))
            for j in range(7)
        ])
    return out


def power_traces_oracle(g, upto=5):
    """[trace(g^p) for p = 1..upto] of a 7x7 nested list."""
    out, cur = [], g
    for p in range(upto):
        if p:
            cur = dense_mul_oracle(cur, g)
        out.append(sum((cur[i][i] for i in range(7)), Cyc7.from_int(0)))
    return out


def sym_traces(trs, upto):
    """Traces on S^0..S^upto from the power traces trs[0..] = tr(g^1..)."""
    out = [Cyc7.from_int(1)]
    for k in range(1, upto + 1):
        acc = Cyc7.from_int(0)
        for j in range(1, k + 1):
            acc = acc + trs[j - 1] * out[k - j]
        out.append(acc * Cyc7.from_rat(Fraction(1, k)))
    return out


def ext_traces(trs, upto):
    """Traces on the exterior powers 0..upto, likewise."""
    out = [Cyc7.from_int(1)]
    for k in range(1, upto + 1):
        acc = Cyc7.from_int(0)
        for j in range(1, k + 1):
            term = trs[j - 1] * out[k - j]
            acc = acc + (term if j % 2 == 1 else -term)
        out.append(acc * Cyc7.from_rat(Fraction(1, k)))
    return out


def first_orthogonality_failures(table):
    """(first row pair, first class pair) at which the scalar orthogonality
    loops fail, in row-major order over i <= j; None where a relation holds."""
    labels = table.labels
    vals = {lb: table.rows[lb].tolist() for lb in labels}
    sizes = table.classes.sizes
    order = table.classes.group_order()
    n = table.classes.count
    row_fail = col_fail = None
    for i, a in enumerate(labels):
        for b in labels[i:]:
            tot = sum((x * y.conj() * s for x, y, s in zip(vals[a], vals[b], sizes)), Cyc7.from_int(0))
            if tot != (order if a == b else 0):
                row_fail = row_fail or (a, b)
    for c1 in range(n):
        for c2 in range(c1, n):
            tot = sum((vals[lb][c1] * vals[lb][c2].conj() for lb in labels), Cyc7.from_int(0))
            if tot != (Fraction(order, sizes[c1]) if c1 == c2 else 0):
                col_fail = col_fail or (c1, c2)
    return row_fail, col_fail


def decompose_oracle(table, chi):
    """{label: multiplicity} of chi in the table's rows, from per-label inner
    products (1/|G|) sum_c |c| chi(c) conj(row(c)) over the values of the
    row chi; ValueError, with the package's message, where chi is no
    character."""
    vals = chi.tolist()
    rows = {lb: table.rows[lb].tolist() for lb in table.labels}
    sizes = table.classes.sizes
    order = table.classes.group_order()
    mults = {}
    for lb in table.labels:
        row = rows[lb]
        tot = sum((x * y.conj() * s for x, y, s in zip(vals, row, sizes)), Cyc7.from_int(0))
        if not tot.is_rational():
            raise ValueError("inner product is not rational")
        m = tot.rational_value() / order
        if m.denominator != 1 or m < 0:
            raise ValueError(f"not a character: multiplicity of {lb} is {m}")
        mults[lb] = int(m)
    rebuilt = [sum((rows[lb][c] * m for lb, m in mults.items()), Cyc7.from_int(0)) for c in range(len(vals))]
    if rebuilt != vals:
        raise ValueError("decomposition does not reconstruct the character")
    return {lb: m for lb, m in mults.items() if m}


# ---------------------------------------------------------------------------
# conjugacy classes


def _orbits_by_search(elems, gens, mul, inv):
    """The orbits of elems under conjugation by gens and their inverses,
    each a set, in order of their first element in elems."""
    gens = [*gens, *(inv(g) for g in gens)]
    orbits, seen = [], set()
    for e in elems:
        if e in seen:
            continue
        orbit, frontier = {e}, [e]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = mul(mul(g, x), inv(g))
                    if y not in orbit:
                        orbit.add(y)
                        nxt.append(y)
            frontier = nxt
        seen |= orbit
        orbits.append(orbit)
    return orbits


def g7_classes_oracle() -> ClassData:
    """G7's classes in label order, each represented by its least element
    (labels as documented at heisenberg.conjugacy_classes_g7)."""
    gens = [HElem(0, 1, 0, 0), HElem(0, 0, 1, 0), HElem(0, 0, 0, 1), HElem(1, 0, 0, 0)]
    classes = []
    for orbit in _orbits_by_search(g7_elements(), gens, HElem.__mul__, HElem.inv):
        rep = min(orbit)
        if rep.b == 0 and rep.m == 0 and rep.n == 0:
            label = ("central", rep.a)
        elif rep.b == 0:
            label = ("C", *min((rep.m, rep.n), ((-rep.m) % 7, (-rep.n) % 7)))
        else:
            sq = rep * rep
            assert (sq.m, sq.n, sq.b) == (0, 0, 0)
            label = ("Ca", (4 * sq.a) % 7)
        classes.append((label, rep, orbit))
    classes.sort(key=lambda c: c[0])
    return ClassData(
        tuple(c[0] for c in classes),
        tuple(c[1] for c in classes),
        tuple(len(c[2]) for c in classes),
        {x: ci for ci, c in enumerate(classes) for x in c[2]},
    )


def sl2_classes_oracle() -> ClassData:
    """SL2(F7)'s classes in the order of SL2_CLASS_REPS."""
    orbits = _orbits_by_search(sl2_elements(), [SL2_NU, SL2_DELTA, SL2_MU], sl2_mul, sl2_inv)
    ordered = [next(o for o in orbits if rep in o) for _, rep in SL2_CLASS_REPS]
    assert len(orbits) == len(ordered)
    return ClassData(
        tuple(name for name, _ in SL2_CLASS_REPS),
        tuple(rep for _, rep in SL2_CLASS_REPS),
        tuple(len(o) for o in ordered),
        {x: ci for ci, o in enumerate(ordered) for x in o},
    )
