import pytest

from heis7.field import Cyc7, FieldElem, alpha_minus, alpha_plus
from heis7.characters import (
    RepError,
    char_of_rep,
    h0_oa_decomposition,
    omega3_sections_char,
    subspace_character,
)
from heis7.heisenberg import IOTA, SIGMA, TAU, dense_galois


def test_degrees(g7, sl2):
    total = sum(
        int(g7.rows[lb].values[g7.identity_class].rational_value()) ** 2 for lb in g7.labels
    )
    assert total == 686
    assert len(g7.labels) == 38
    total = sum(int(sl2.rows[lb].values[0].rational_value()) ** 2 for lb in sl2.labels)
    assert total == 336
    assert len(sl2.labels) == 11


def test_central_column(g7):
    # the 7-dimensional rows take value 7 theta^i(alpha) on central classes
    for c in range(g7.classes.count):
        lb = g7.classes.labels[c]
        if lb[0] == "central":
            a = lb[1]
            want = FieldElem(Cyc7.from_int(7) * Cyc7.zeta(a), 0)
            assert g7.rows["V0"].values[c] == want


def test_sl2_table_values(sl2):
    nu = sl2.classes.labels.index("nu")
    assert sl2.rows["U"].values[nu] == FieldElem(alpha_minus(), 0)
    assert sl2.rows["U'"].values[nu] == FieldElem(alpha_plus(), 0)
    r8a = sl2.classes.labels.index("r8a")
    assert sl2.rows["T1"].values[r8a] == FieldElem.sqrt2()
    assert sl2.rows["T2"].values[r8a] == -FieldElem.sqrt2()


def test_value_types(g7, sl2):
    # G7 class functions live in Q(zeta7); only the SL2(F7) table carries sqrt2
    for lb in g7.labels:
        assert all(type(v) is Cyc7 for v in g7.rows[lb].values), lb
    assert all(type(v) is Cyc7 for v in g7.sym_power(g7.rows["V0"], 3).values)
    r8a = sl2.classes.labels.index("r8a")
    for lb in ("T1", "T2"):
        v = sl2.rows[lb].values[r8a]
        assert type(v) is FieldElem and not v.b.is_zero()


def test_char_of_rep_rows(g7):
    ch = char_of_rep(SIGMA, TAU, IOTA, g7)
    assert ch == g7.rows["V0"]
    tw = char_of_rep(dense_galois(SIGMA, 1), dense_galois(TAU, 1), dense_galois(IOTA, 1), g7)
    assert tw == g7.rows["V1"] and tw != ch


def test_char_of_rep_rejects_bad_images(g7):
    from heis7.heisenberg import MU

    with pytest.raises(RepError):
        char_of_rep(SIGMA, TAU, MU, g7)  # involution image has order 3


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
    assert omega3_sections_char(3) == ({}, False)
    dec, flagged = omega3_sections_char(4)
    assert not flagged and dec == {"V1": 1, "V1#": 4}
    dec, flagged = omega3_sections_char(7)
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


def test_span_solver_refusals():
    from heis7.characters import SpanSolver, dual_substitution_images
    from heis7.poly import Poly, REG_X, parse_poly

    x = [Poly.var(REG_X, f"x{j}") for j in range(7)]
    # x0 + x1 mixes two tau-eigenspaces: its weight parts span two dimensions
    with pytest.raises(ValueError, match="not stable under tau"):
        SpanSolver([x[0] + x[1]])
    with pytest.raises(ValueError, match="linearly dependent"):
        SpanSolver([x[0], x[1], x[0] + x[1]])
    with pytest.raises(ValueError, match="empty basis"):
        SpanSolver([])
    solver = SpanSolver(x)
    images = dual_substitution_images(SIGMA, REG_X)
    for bad in (x[0] + x[1], x[0] * x[1], x[0].scale(2), Poly.zero(REG_X)):
        with pytest.raises(ValueError, match="signed zeta-monomial"):
            solver.trace([bad] + images[1:])
        with pytest.raises(ValueError, match="signed zeta-monomial"):
            solver.is_stable_under([bad] + images[1:])
    with pytest.raises(ValueError, match="signed zeta-monomial"):
        solver.trace([x[0]] * 7)  # not a permutation of the variables
    # a stable weight-mixed span is fine: all of the linear forms
    solver = SpanSolver([x[0] + x[1]] + x[1:])
    assert solver.is_stable_under(images)
    assert solver.trace(images) == Cyc7.from_int(0)
    assert not SpanSolver([parse_poly("x0^2", REG_X)]).is_stable_under(images)


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
    from heis7.field import CycArray
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
    rows = [(lb, list(t.rows[lb].values)) for lb in t.labels]
    vals = dict(rows)[label]
    vals[cls] = vals[cls] + Cyc7.zeta(2)
    bad = CharTable(t.classes, rows, t._power_fn, t.identity_class)
    ok, msg = bad.orthogonality_report()
    (a, b), (c1, c2) = first_orthogonality_failures(bad)
    assert not ok
    assert f"row orthogonality fails at ({a}, {b}):" in msg
    assert f"column orthogonality fails at ({c1}, {c2})" in msg
    assert first_orthogonality_failures(t) == (None, None)
