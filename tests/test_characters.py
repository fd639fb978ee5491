import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

from heis7.field import Cyc7, CycArray, FieldElem, alpha_minus, alpha_plus, fp
from heis7.characters import (
    RepError,
    char_of_rep,
    h0_oa_decomposition,
    omega3_sections_char,
    subspace_character,
)
from heis7.heisenberg import IOTA, MU, SIGMA, TAU, HElem, MonoMat


def test_degrees(g7, sl2):
    total = sum(
        int(g7.rows[lb].tolist()[g7.identity_class].rational_value()) ** 2 for lb in g7.labels
    )
    assert total == 686
    assert len(g7.labels) == 38
    total = sum(int(sl2.rows[lb].tolist()[0].rational_value()) ** 2 for lb in sl2.labels)
    assert total == 336
    assert len(sl2.labels) == 11


def test_central_column(g7):
    # the 7-dimensional rows take value 7 theta^i(alpha) on central classes
    for c in range(g7.classes.count):
        lb = g7.classes.labels[c]
        if lb[0] == "central":
            a = lb[1]
            want = FieldElem(Cyc7.from_int(7) * Cyc7.zeta(a), 0)
            assert g7.rows["V0"].tolist()[c] == want


def test_sl2_table_values(sl2):
    nu = sl2.classes.labels.index("nu")
    assert sl2.rows["U"].tolist()[nu] == FieldElem(alpha_minus(), 0)
    assert sl2.rows["U'"].tolist()[nu] == FieldElem(alpha_plus(), 0)
    r8a = sl2.classes.labels.index("r8a")
    assert sl2.rows["T1"].tolist()[r8a] == FieldElem.sqrt2()
    assert sl2.rows["T2"].tolist()[r8a] == -FieldElem.sqrt2()


def test_value_types(g7, sl2):
    # G7 class functions live in Q(zeta7); only the SL2(F7) table carries sqrt2
    for lb in g7.labels:
        assert all(type(v) is Cyc7 for v in g7.rows[lb].tolist()), lb
    assert all(type(v) is Cyc7 for v in g7.sym_power(g7.rows["V0"], 3).tolist())
    r8a = sl2.classes.labels.index("r8a")
    for lb in ("T1", "T2"):
        v = sl2.rows[lb].tolist()[r8a]
        assert type(v) is FieldElem and not v.b.is_zero()
    # a value without a sqrt2 part reads as a Cyc7, also in the tower: the
    # rows carry sqrt2 at T1 and T2 on r8a and r8b only, and S^2 T1 none
    r8b = sl2.classes.labels.index("r8b")
    tower = [(lb, c) for lb in sl2.labels for c, v in enumerate(sl2.rows[lb].tolist()) if type(v) is not Cyc7]
    assert sl2.rows["I"].r2 and tower == [("T1", r8a), ("T1", r8b), ("T2", r8a), ("T2", r8b)]
    assert all(type(v) is Cyc7 for v in sl2.sym_power(sl2.rows["T1"], 2).tolist())


def test_char_of_rep_rows(g7):
    images = [g.dense() for g in (SIGMA, TAU, IOTA)]
    ch = char_of_rep(*images, g7)
    assert ch == g7.rows["V0"]
    tw = char_of_rep(*(m.galois(1) for m in images), g7)
    assert tw == g7.rows["V1"] and tw != ch


def _perm(*images):
    """The permutation matrix e_l -> e_images[l]."""
    return MonoMat(images, (1,) * 7, (0,) * 7)


# (sigma, tau, iota images, the refusal): one set per relation.  Each of
# the last three pairs sigma with a 7-cycle or a diagonal matrix that iota
# inverts, so only the commutator c = [sigma, tau] is wrong: of order 5,
# of order 2 (then c^6 = 1 is central, yet [sigma, tau] is not its sixth
# power), and diagonal of order 7 but not scalar.
BROKEN_RELATIONS = [
    (MU, TAU, IOTA, "generator of order != 7"),
    (SIGMA, TAU, MU, "involution image has order != 2"),
    (SIGMA, TAU, _perm(1, 0, 2, 3, 4, 5, 6), "iota sigma iota != sigma^-1"),
    (SIGMA, HElem(1, 0, 0, 0).matrix(), IOTA, "iota tau iota != tau^-1"),
    (SIGMA, _perm(2, 3, 1, 4, 6, 0, 5), IOTA, "central scalar has order != 7"),
    (SIGMA, _perm(1, 5, 6, 4, 2, 3, 0), IOTA, "central scalar has order != 7"),
    (SIGMA, MonoMat(tuple(range(7)), (1,) * 7, tuple(j**3 % 7 for j in range(7))), IOTA, "central image does not commute"),
]


def test_char_of_rep_rejects_bad_images(g7):
    for *images, reason in BROKEN_RELATIONS:
        with pytest.raises(RepError, match=re.escape(reason)):
            char_of_rep(*(m.dense() for m in images), g7)


def test_key_decompositions(g7):
    V = [g7.rows[f"V{i}"] for i in range(6)]
    assert g7.decompose(V[0] * V[3]) == {"I": 1, "Z": 1}
    assert g7.decompose(g7.sym_power(V[0], 2)) == {"V2#": 4}
    assert g7.decompose(g7.ext_power(V[0], 7)) == {"I": 1}
    assert g7.decompose(g7.sym_power(V[0], 7)) == {"I": 8, "S": 28, "Z": 35}
    assert g7.decompose(g7.ext_power(V[0], 3)) == {"V1": 1, "V1#": 4}
    # the proof-step product: V4 (V1# + 4 V1) = 4I + S + 5Z
    chi = V[4] * (V[1] * g7.rows["S"] + V[1] * FieldElem(Cyc7.from_int(4), 0))
    assert g7.decompose(chi) == {"I": 4, "S": 1, "Z": 5}


def test_not_a_character_errors(g7):
    bad = g7.rows["V0"] - g7.rows["V1"]
    with pytest.raises(ValueError):
        g7.decompose(bad)


def test_omega3(g7):
    assert omega3_sections_char([3])[0] == ({}, False)
    dec, flagged = omega3_sections_char([4])[0]
    assert not flagged and dec == {"V1": 1, "V1#": 4}
    dec, flagged = omega3_sections_char([7])[0]
    assert not flagged and dec == {"I": 24, "S": 24, "Z": 49}


def test_h0_oa():
    assert h0_oa_decomposition(1) == {"V3": 1}
    assert h0_oa_decomposition(4) == {"V1": 6, "V1#": 10}
    with pytest.raises(ValueError):
        h0_oa_decomposition(7)


def test_decomposition_aggregation(g7):
    V = [g7.rows[f"V{i}"] for i in range(6)]
    dec = g7.decompose(V[0] * V[3])
    assert dec.aggregated() == {"I": 1, "Z": 1}
    assert len(dec.mults) == 25  # I plus the 24 individual two-dimensional labels
    assert "Z(1,0)" in dec.mults


def test_subspace_character_of_coordinates(g7):
    # the span of the coordinate functions carries the dual representation
    from heis7.poly import Poly, REG_X

    basis = [Poly.var(REG_X, f"x{j}") for j in range(7)]
    chi = subspace_character(basis, g7)
    assert g7.decompose(chi) == {"V3": 1}


def test_subspace_character_instability(g7):
    from heis7.poly import Poly, REG_X

    basis = [Poly.var(REG_X, "x0")]
    with pytest.raises(ValueError, match="not stable under generator"):
        subspace_character(basis, g7)


def test_span_solver_refusals(g7):
    from heis7.characters import SpanSolver
    from heis7.poly import REG_V, REG_X, Poly, VarRegistry, parse_poly

    x = [Poly.var(REG_X, f"x{j}") for j in range(7)]
    # x0 + x1 mixes two tau-eigenspaces, so tau maps it out of its span
    with pytest.raises(ValueError, match="not stable under tau"):
        SpanSolver([x[0] + x[1]])
    with pytest.raises(ValueError, match="empty basis"):
        SpanSolver([])
    # the basis must be partitioned: pairwise disjoint supports, no zero
    # member; such a basis is independent
    with pytest.raises(ValueError, match="share the monomial x0$"):
        SpanSolver([x[0], x[1], x[0] + x[1]])
    with pytest.raises(ValueError, match="share the monomial x0$"):
        SpanSolver([x[0] + x[1], x[0] + x[1], *x[2:]])
    with pytest.raises(ValueError, match="has a zero member"):
        SpanSolver([x[0], Poly.zero(REG_X), x[1]])
    solver = SpanSolver(x)
    assert solver.is_stable_under(SIGMA)
    assert solver.trace(SIGMA) == Cyc7.from_int(0)
    assert not SpanSolver([parse_poly("x0^2", REG_X)]).is_stable_under(SIGMA)
    # over F31 the swap x1<->x2, x5<->x6 maps p to -p, a stable span, but
    # the phases live in Q(z7), which is never reduced mod 31
    f31 = fp(31)
    p = parse_poly("x1*x6-x2*x5", REG_X).map_coeffs(f31.coerce, f31)
    swap = [Poly.var(REG_X, f"x{j}", f31) for j in (0, 2, 1, 3, 4, 6, 5)]
    assert p.substitute(swap) == p.scale(-1)
    with pytest.raises(ValueError, match="span basis is over F31, not Q"):
        SpanSolver([p])
    # a MonoMat acts on x0..x6: a span in 3 or 8 variables is refused, not
    # read with the wrong number of phases
    with pytest.raises(ValueError, match="in 3 variables, not 7"):
        SpanSolver([parse_poly("v1^2", REG_V)])
    reg8 = VarRegistry([f"y{j}" for j in range(8)])
    with pytest.raises(ValueError, match="in 8 variables, not 7"):
        subspace_character([parse_poly("y7^2", reg8)], g7)


def test_pairing_with_sqrt2_values(sl2, g7):
    # the SL2(F7) rows carry sqrt2, so their pairings run in the sqrt2 tower
    assert sl2.orthogonality_report()[0]
    assert sl2.inner(sl2.rows["T1"], sl2.rows["T1"]) == 1
    assert sl2.inner(sl2.rows["T1"], sl2.rows["T2"]) == 0
    # 36 = 2*7 + 2*8 + 6
    assert sl2.decompose(sl2.rows["T1"] * sl2.rows["T2"]) == {"L": 2, "M2": 2, "T": 1}
    # a G7 class function scaled by a FieldElem pairs like its Cyc7 twin
    v = g7.rows["V0"]
    assert g7.inner(v * FieldElem(Cyc7.from_int(3), 0), v) == 3


def test_sl2_sym_powers(sl2):
    assert sl2.decompose(sl2.sym_power(sl2.rows["W'"], 4)) == {"I": 1, "M2": 1, "T": 1}
    assert sl2.decompose(sl2.rows["U"] * sl2.rows["U'"]) == {"I": 1, "M2": 1, "L": 1}
    assert sl2.decompose(sl2.rows["W"] * sl2.rows["W'"]) == {"I": 1, "M2": 1}


def test_sample_traces_against_oracle():
    # the batched normalizer sample traces, and their Newton series, against
    # value-by-value matrix powers on all 330 sampled products
    from heis7.characters import newton
    from heis7.checks import Context, RunConfig, _a4_power_traces, _a4_samples
    from oracles import dense_mul_oracle, ext_traces, mono_dense_oracle, power_traces_oracle, sym_traces

    samples, h_reps = _a4_samples(Context(RunConfig()))
    h_mats = CycArray.stack([h.matrix().dense() for h in h_reps])
    checked = 0
    for _, s_mat, _ in samples:
        traces = _a4_power_traces(h_mats, s_mat)
        got = traces.tolist()
        sym = [a.tolist() for a in newton(traces)]
        ext = [a.tolist() for a in newton(traces, alternating=True)]
        s_list = s_mat.tolist()
        for col, h in enumerate(h_reps):
            want = power_traces_oracle(dense_mul_oracle(mono_dense_oracle(h.matrix()), s_list))
            assert [got[p][col] for p in range(5)] == want
            assert [row[col] for row in sym] == sym_traces(want, 5)
            assert [row[col] for row in ext] == ext_traces(want, 5)
            checked += 1
    assert checked == 330


@pytest.mark.parametrize("label, cls", [("V0", 9), ("T1", 4)])
def test_orthogonality_detects_a_perturbed_value(g7, sl2, label, cls):
    # one changed value must break both relations, each reported at the
    # first failing pair of the value-by-value loops
    from heis7.characters import CharTable
    from oracles import first_orthogonality_failures

    t = g7 if label == "V0" else sl2
    bump = CycArray.from_values([Cyc7.zeta(2) if c == cls else 0 for c in range(t.classes.count)])
    table = CycArray.stack([t.rows[lb] + bump if lb == label else t.rows[lb] for lb in t.labels])
    bad = CharTable(t.classes, t.labels, table, t._power_fn, t.identity_class)
    ok, msg = bad.orthogonality_report()
    (a, b), (c1, c2) = first_orthogonality_failures(bad)
    assert not ok
    assert f"row orthogonality fails at ({a}, {b}):" in msg
    assert f"column orthogonality fails at ({c1}, {c2})" in msg
    assert first_orthogonality_failures(t) == (None, None)


def test_negative_degrees_are_refused(g7):
    v = g7.rows["V0"]
    for power in (g7.sym_power, g7.ext_power):
        with pytest.raises(ValueError, match="non-negative"):
            power(v, -1)
        with pytest.raises(ValueError, match="non-negative"):
            power(v, [2, -1])
    with pytest.raises(ValueError, match="non-negative"):
        g7.sym_power(v, range(0))
    assert g7.sym_power(v, 0) == g7.rows["I"] == g7.ext_power(v, 0)


def test_omega3_below_the_validity_range():
    # S^j = 0 for j < 0: the truncated Koszul sum vanishes at k = 1, 2 and is
    # the virtual -I at k = 0
    assert omega3_sections_char([2])[0] == ({}, False)
    assert omega3_sections_char([1])[0] == ({}, False)
    dec, flagged = omega3_sections_char([0])[0]
    assert flagged and dec == {"I": -1}
    assert omega3_sections_char([0, 2, 4]) == [(dec, True), ({}, False), ({"V1": 1, "V1#": 4}, False)]


# ---------------------------------------------------------------------------
# batched decompositions against the value-by-value oracle


def _item(t, coeffs):
    chi = t.rows["I"] * 0
    for lb, c in zip(t.labels, coeffs):
        if c:
            chi = chi + t.rows[lb] * c
    return chi


def _broken(t):
    """t with its second row replaced by the trivial one: an item without
    those two rows still decomposes, one with I pairs 1 with both and
    rebuilds as 2I."""
    from heis7.characters import CharTable

    table = t.stack(["I" if k == 1 else lb for k, lb in enumerate(t.labels)])
    return CharTable(t.classes, t.labels, table, t._power_fn, t.identity_class)


@pytest.mark.parametrize("kind", [None, "negative", "irrational", "perturbed", "unreconstructed"])
@pytest.mark.parametrize("name", ["g7", "sl2"])
@seed(1212)
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_batched_decompose_against_oracle(g7, sl2, name, kind, data):
    # integer combinations of the rows, one of them made bad at a random
    # position: the batch agrees with the oracle item by item, with n
    # batches of one, and with a lone bad item's error message
    from oracles import decompose_oracle

    t = g7 if name == "g7" else sl2
    if kind == "unreconstructed":
        t = _broken(t)
    width = len(t.labels)
    n = data.draw(st.integers(1, 4))
    coeff = st.lists(st.integers(0, 3) | st.just(0), min_size=width, max_size=width)
    rows = data.draw(st.lists(coeff, min_size=n, max_size=n))
    if kind == "unreconstructed":
        rows = [[0, 0] + r[2:] for r in rows]
    items = [_item(t, r) for r in rows]
    pos = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, width - 1))
    if kind == "negative":
        items[pos] = items[pos] - t.rows[t.labels[j]] * (1 + rows[pos][j])
    elif kind == "irrational":
        items[pos] = items[pos] + t.rows[t.labels[j]] * Cyc7.zeta(data.draw(st.integers(1, 6)))
    elif kind == "perturbed":
        vals = items[pos].tolist()
        c = data.draw(st.integers(0, len(vals) - 1))
        vals[c] = vals[c] + data.draw(st.integers(1, 5))
        items[pos] = CycArray.from_values(vals)
    elif kind == "unreconstructed":
        items[pos] = items[pos] + t.rows["I"]
    batch = CycArray.stack(items)
    if kind is None:
        want = [decompose_oracle(t, chi) for chi in items]
        assert [d.mults for d in t.decompose(batch)] == want
        assert [t.decompose(batch[i : i + 1])[0].mults for i in range(n)] == want
        assert [t.decompose(chi).mults for chi in items] == want
        return
    # the items before pos are characters, so the batch fails at pos, also
    # with another bad item (multiplicity -7 of I) after it
    with pytest.raises(ValueError) as oracle_exc:
        decompose_oracle(t, items[pos])
    with pytest.raises(ValueError) as single_exc:
        t.decompose(items[pos])
    with pytest.raises(ValueError) as batch_exc:
        t.decompose(CycArray.stack([*items, t.rows["I"] * -7]))
    assert str(batch_exc.value) == str(single_exc.value) == str(oracle_exc.value)
    reason = {"negative": "not a character", "irrational": "not rational", "unreconstructed": "not reconstruct"}
    assert reason.get(kind, "") in str(single_exc.value)
    with pytest.raises(ValueError, match=re.escape(str(single_exc.value))):
        t.decompose(batch)


@seed(1213)
@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["g7", "sl2"]), st.lists(st.integers(0, 2), min_size=3, max_size=3), st.integers(0, 8))
def test_batched_powers_against_oracle(g7, sl2, name, picks, top):
    from oracles import ext_traces, sym_traces

    t = g7 if name == "g7" else sl2
    items = [t.rows[t.labels[(2 + 3 * i + p) % len(t.labels)]] + t.rows[t.labels[p]] for i, p in enumerate(picks)]
    batch = CycArray.stack(items)
    sym = [a.tolist() for a in t.sym_power(batch, range(top + 1))]
    ext = [a.tolist() for a in t.ext_power(batch, range(top + 1))]
    for n, chi in enumerate(items):
        vals = chi.tolist()
        for c in range(t.classes.count):
            trs = [vals[t.power_classes(j)[c]] for j in range(1, top + 1)]
            assert [s[n][c] for s in sym] == sym_traces(trs, top)
            assert [e[n][c] for e in ext] == ext_traces(trs, top)
        assert t.sym_power(chi, top) == t.sym_power(batch, range(top + 1))[top][n]


# ---------------------------------------------------------------------------
# one calling convention: a row (classes,) or a batch (n, classes)


@pytest.mark.parametrize("name", ["g7", "sl2"])
def test_a_row_and_a_batch_holding_it_agree(g7, sl2, name):
    t = g7 if name == "g7" else sl2
    a, b, c = (t.rows[lb] for lb in t.labels[-3:])
    chi = a * b + c
    batch = CycArray.stack([a, chi, b])
    assert t.decompose(chi).mults == t.decompose(batch)[1].mults
    assert t.dual(chi) == t.dual(batch)[1] and t.dual(chi).shape == chi.shape
    for power in (t.sym_power, t.ext_power):
        row, rows = power(chi, 3), power(batch, 3)
        assert row.shape == chi.shape and rows.shape == batch.shape and row == rows[1]
        assert all(x == y[1] for x, y in zip(power(chi, [0, 2, 4]), power(batch, [0, 2, 4])))
    assert t.inner(chi, c) == t.inner(batch, c)[1] and t.inner(chi, chi) == t.inner(batch, batch)[1]


def test_a_row_of_the_wrong_length_is_refused(g7):
    from heis7.characters import CharTable

    # the table is one (labels, classes) batch: a short row, a missing row
    # or a single row is refused
    for table in (g7._table[:, :-1], g7._table[:-1], g7._table[0]):
        with pytest.raises(ValueError, match="one value per conjugacy class required"):
            CharTable(g7.classes, g7.labels, table, g7._power_fn, g7.identity_class)
    v = g7.rows["V0"]
    for bad in (v[:-1], CycArray.stack([v[:-1]]), CycArray.stack([CycArray.stack([v])])):
        for refuse in (g7.decompose, g7.dual, lambda x: g7.sym_power(x, 2), lambda x: g7.ext_power(x, 2)):
            with pytest.raises(ValueError, match=r"a class function has batch shape \(38,\) or \(n, 38\)"):
                refuse(bad)


def test_the_probe_form_runs(g7):
    # a row with an int degree gives a row: the form the benchmark probes
    v0 = g7.rows["V0"]
    s14 = g7.sym_power(v0, 14)
    assert s14.shape == v0.shape and s14 == g7.sym_power(g7.stack(["V0"]), range(15))[14][0]
    assert s14[g7.identity_class].tolist() == math.comb(7 + 13, 14)


# sha256 of each table's (labels, int64 numerator bytes, den, r2): both
# tables entry for entry as the value-by-value construction built them
TABLE_SHA = {
    "g7": "91945151d3b35f7c1b3f906bb32f0da06337849afa6c9ed4c9932b47dd6be05c",
    "sl2": "12fa34469d8ee846ea9fa4f466cee3c3030ca4651eb14f6a863c132262279aa7",
}


@pytest.mark.parametrize("name", ["g7", "sl2"])
def test_tables_are_pinned(g7, sl2, name):
    t = g7 if name == "g7" else sl2
    h = hashlib.sha256(repr(t.labels).encode())
    h.update(np.ascontiguousarray(t._table.num, dtype=np.int64).tobytes())
    h.update(repr((t._table.den, t._table.r2)).encode())
    assert h.hexdigest() == TABLE_SHA[name]


def test_g7_power_classes_against_products(g7):
    # rep^j by HElem products, rep^-j as (rep^-1)^j
    one = HElem(0, 0, 0, 0)
    for j in range(-3, 16):
        want = []
        for rep in g7.classes.reps:
            base, power = rep if j >= 0 else rep.inv(), one
            for _ in range(abs(j)):
                power = power * base
            want.append(g7.classes.index_of[power])
        assert g7.power_classes(j) == want, j
