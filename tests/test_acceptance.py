"""The acceptance gate: one test per criterion, each printing a verdict line.

Criteria are exercised through the same check functions the command-line
verifier runs (one source of truth), with wall-clock budgets asserted where
the criterion states one.  The resolution criterion is additionally
cross-checked against an independent Koszul-homology oracle.
"""

import hashlib
import json
import subprocess
import sys
import time

import pytest

from heis7.checks import (
    Context,
    RunConfig,
    check_alpha_family,
    check_b_matrices,
    check_b_rank_probe,
    check_classes,
    check_delta_equivalence,
    check_exterior_rows,
    check_group_law,
    check_h0_oa_rows,
    check_j_kernel,
    check_j_membership,
    check_j_resolution,
    check_klein_suite,
    check_normalizer,
    check_omega3_rows,
    check_orthogonality_g7,
    check_orthogonality_sl2,
    check_sl2_products,
    check_surface_pipeline,
    check_sym_w_rows,
    check_symmetric_rows,
    check_tensor_rows,
)

# sha256 of the `verify all --seed 42` report with the default configuration
GOLDEN_REPORT_SHA256 = "9cca7416b9ea1a10e6e207ca4662d88db39810eddd924fb85cd1ae074c184ea0"


@pytest.fixture(scope="module")
def ctx():
    return Context(RunConfig())


def _verdict(n, label, elapsed, results, budget=None):
    ok = all(r.status == "pass" for r in results)
    mark = "PASS" if ok else "FAIL"
    suffix = f" [{elapsed:.1f}s" + (f" / budget {budget}s]" if budget else "]")
    print(f"criterion {n} ({label}): {mark}{suffix}")
    for r in results:
        assert r.status == "pass", f"{r.id}: {r.details}"
    if budget is not None:
        assert elapsed < budget, f"criterion {n} exceeded its {budget}s budget ({elapsed:.1f}s)"


def test_criterion_01_group_law(ctx):
    t0 = time.monotonic()
    results = [check_group_law(ctx), check_normalizer(ctx)]
    _verdict(1, "group law and normalizer relations", time.monotonic() - t0, results, budget=10)


def test_criterion_02_character_tables():
    # fresh context: the budget covers class enumeration and both tables
    local = Context(RunConfig())
    t0 = time.monotonic()
    results = [
        check_classes(local),
        check_orthogonality_g7(local),
        check_orthogonality_sl2(local),
    ]
    _verdict(2, "character tables and orthogonality", time.monotonic() - t0, results, budget=10)


def test_criterion_03_appendix_formulas(ctx):
    t0 = time.monotonic()
    results = [
        check_tensor_rows(ctx),
        check_exterior_rows(ctx),
        check_symmetric_rows(ctx),
        check_omega3_rows(ctx),
        check_h0_oa_rows(ctx),
        check_sl2_products(ctx),
        check_sym_w_rows(ctx),
    ]
    _verdict(3, "appendix decomposition formulas", time.monotonic() - t0, results, budget=60)


def test_criterion_04_composition_matrices(ctx):
    t0 = time.monotonic()
    results = [check_b_matrices(ctx), check_b_rank_probe(ctx)]
    _verdict(4, "composition matrices and rank probe", time.monotonic() - t0, results, budget=10)


def test_criterion_05_annihilation_equivalence(ctx):
    t0 = time.monotonic()
    results = [check_delta_equivalence(ctx)]
    _verdict(5, "composition-vanishing equivalence on 200 seeds", time.monotonic() - t0, results)


def test_criterion_06_apolar_ideal(ctx):
    t0 = time.monotonic()
    results = [check_j_kernel(ctx), check_j_resolution(ctx), check_j_membership(ctx)]
    _verdict(6, "apolar ideal: kernel, resolution, membership", time.monotonic() - t0, results, budget=30)


def test_criterion_07_surface_pipeline():
    local = Context(RunConfig())
    t0 = time.monotonic()
    results = [check_surface_pipeline(local), check_alpha_family(local)]
    _verdict(7, "surface pipeline at 20 seeded parameters", time.monotonic() - t0, results, budget=300)


def test_criterion_08_surface_resolution():
    from heis7.field import fp
    from heis7.moduli import surface_ideal
    from heis7.resolution import free_resolution
    from oracles import betti_koszul

    t0 = time.monotonic()
    S = surface_ideal((1, 1, 1, 1))
    F31 = fp(31)
    ideal = S.ideal(F31)
    bt = free_resolution(ideal, degree_cap=9)
    want = {
        (0, 0): 1,
        (1, 3): 21,
        (2, 4): 49,
        (3, 5): 42,
        (4, 6): 14,
        (4, 7): 1,
        (5, 7): 2,
    }
    hd = ideal.hilbert()
    assert bt.alternating_sums() == hd.numerator
    assert bt.complete, bt.note
    assert bt.entries == want
    # independent oracle: Koszul homology over the prime field, by weight
    # blocks; (2, 5) and (3, 6) are where the initial ideal has Betti numbers
    # that cancel in the Groebner degeneration
    oracle = betti_koszul(
        ideal.gens,
        ideal.reg,
        31,
        [(1, 3), (2, 4), (3, 5), (4, 6), (4, 7), (5, 7), (1, 4), (2, 5), (5, 8), (3, 6)],
    )
    assert oracle[(1, 3)] == 21
    assert oracle[(2, 4)] == 49
    assert oracle[(3, 5)] == 42
    assert oracle[(4, 6)] == 14
    assert oracle[(4, 7)] == 1
    assert oracle[(5, 7)] == 2
    assert oracle[(1, 4)] == 0 and oracle[(2, 5)] == 0 and oracle[(5, 8)] == 0 and oracle[(3, 6)] == 0
    elapsed = time.monotonic() - t0
    print(f"criterion 8 (surface resolution + Koszul oracle): PASS [{elapsed:.1f}s / budget 900s]")
    assert elapsed < 900


def test_criterion_09_plane_quartic(ctx):
    t0 = time.monotonic()
    results = [check_klein_suite(ctx)]
    _verdict(9, "plane quartic: invariance, apolarity, discriminant, identity",
             time.monotonic() - t0, results, budget=30)


def test_criterion_10_deterministic_reports(tmp_path):
    cli = [sys.executable, "-m", "heis7.cli"]
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    t0 = time.monotonic()
    r1 = subprocess.run(
        cli + ["verify", "all", "--seed", "42", "--quiet", "--json", str(f1)],
        capture_output=True,
    )
    r2 = subprocess.run(
        cli + ["verify", "all", "--seed", "42", "--quiet", "--json", str(f2)],
        capture_output=True,
    )
    assert r1.returncode == 0, r1.stderr.decode()[-2000:]
    assert r2.returncode == 0
    b1, b2 = f1.read_bytes(), f2.read_bytes()
    assert b1 == b2, "reports are not byte-identical"
    assert hashlib.sha256(b1).hexdigest() == GOLDEN_REPORT_SHA256
    report = json.loads(b1)
    assert report["summary"]["fail"] == 0
    elapsed = time.monotonic() - t0
    print(
        f"criterion 10 (byte-identical full reports, {report['summary']['pass']} pass / "
        f"{report['summary']['flagged']} flagged): PASS [{elapsed:.1f}s]"
    )
