import hashlib
from fractions import Fraction

import pytest

from heis7 import characters, formmat, groebner, heisenberg, linalg, moduli, poly
from heis7.characters import CharTable, SpanSolver
from heis7.field import Cyc7, CycArray, FieldElem
from heis7.poly import Poly
from heis7 import checks
from heis7.checks import (
    SUITES,
    CheckResult,
    RunConfig,
    _result,
    check_group_law,
    declare_id,
    report_json_bytes,
    run_suite,
)
from heis7.cli import build_parser


def test_crashing_check_is_reported_under_its_id(monkeypatch):
    def crash():
        raise RuntimeError("boom")

    monkeypatch.setattr(heisenberg, "build_heisenberg", crash)
    monkeypatch.setitem(SUITES, "appendix", [check_group_law])
    report = run_suite("appendix")
    assert report["checks"] == [
        {"id": "appendix.group.law", "status": "fail", "details": "unhandled error: boom", "ms": 0}
    ]
    assert report["summary"] == {"pass": 0, "fail": 1, "flagged": 0}


def test_declare_id_registers_each_check_once_in_definition_order(monkeypatch):
    registry = {}
    monkeypatch.setattr(checks, "SUITES", registry)

    @declare_id("demo.second")
    def check_second(ctx):
        return "flagged", "noted"

    @declare_id("demo.first")
    def check_first(ctx):
        return _result(False, "fine", "broken")

    assert registry == {"demo": [check_second, check_first]}
    assert check_second.__name__ == "check_second" and check_second.check_id == "demo.second"
    assert check_first(None) == CheckResult("demo.first", "fail", "broken")
    # run_suite reads the registry when it is called; reports sort by id
    report = run_suite("demo")
    assert [(c["id"], c["status"]) for c in report["checks"]] == [("demo.first", "fail"), ("demo.second", "flagged")]


def test_declaring_a_registered_id_is_refused():
    with pytest.raises(ValueError, match="'appendix.group.law' is already declared"):
        declare_id("appendix.group.law")
    assert [fn.check_id for fn in SUITES["appendix"]].count("appendix.group.law") == 1


def test_suites_hold_38_checks_named_by_their_suite():
    assert {suite: len(fns) for suite, fns in SUITES.items()} == {"appendix": 18, "syzygy": 8, "moduli": 12}
    for suite, fns in SUITES.items():
        assert all(fn.check_id.startswith(suite + ".") for fn in fns), suite


def test_verify_accepts_exactly_the_registered_suites():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    suite = next(a for a in sub.choices["verify"]._actions if a.dest == "suite")
    assert suite.choices == [*SUITES, "all"]


# report sha256 of the scaled seed-42 run below; the certify benchmark gates
# on the same bytes
SCALED_SHA_42 = "2454e9171fed5dcf010b510836120f04b9ae425b7555ce3b52a20823b5e003c8"


# CycArray.__matmul__ calls, and Poly.__mul__ calls inside det_form, of
# the scaled seed-42 run below
MATMUL_CALLS = 127
DET_FORM_MULS = 184
# characters.newton calls of the scaled run: one per kind and batch of
# normalizer samples in the sampled traces, not one per kind and sample
NEWTON_CALLS = 14
SURFACES_BUILT = 2
# moduli.psi calls of the scaled run: check_psi's two fixed points, and one
# per surface built, which every later check reads its plane from
PSI_CALLS = 4
# FieldElem constructions of the scaled run, the SL2(F7) table built before
# it: a value is a FieldElem only where its sqrt2 part is nonzero, and the
# run reads no such value (rational SL2 values and parsed coefficients are
# Cyc7)
FIELDELEM_INITS = 0

# the character-table methods the certify benchmark traces by name; each
# must run at least once in the scaled suite, or its traced count reads 0
TRACED_CHARTABLE = ("decompose", "sym_power", "ext_power")


@pytest.fixture(scope="module")
def scaled_run():
    """A scaled seed-42 run (every check, fewer samples), with the calls of
    the traced CharTable methods, of CycArray.__matmul__, of
    characters.newton, of Poly.__mul__
    inside det_form, of moduli.psi, of surface_ideal and SpanSolver.__init__, of
    Poly.substitute inside surface_ideal, of Cyc7 products and differences
    and Fraction arithmetic inside SpanSolver.is_stable_under, of Poly
    constructions inside subspace_character and the SpanSolver methods, of
    linalg.rank and the Fraction constructions in linalg inside it, of
    ideal_hf_oracle and of FieldElem constructions (the SL2(F7) table built
    beforehand) counted: (report, {name: calls})."""
    names = (
        *TRACED_CHARTABLE, "matmul", "newton", "det_form_mul", "psi", "surface_ideal", "surface_substitute", "span_solver",
        "stable_cyc7", "stable_fraction", "span_poly", "rank", "rank_fraction", "hf_oracle", "fieldelem",
    )
    calls = dict.fromkeys(names, 0)
    in_det = [0]
    in_stable = [0]
    in_span = [0]
    in_surface = [0]
    in_rank = [0]

    def counting(name, fn, inside=(1,)):
        # counts the calls made while inside[0] is set
        def wrapper(*args, **kwargs):
            calls[name] += inside[0] > 0
            return fn(*args, **kwargs)

        return wrapper

    def setting(flag, fn):
        # flag[0] counts the open calls of fn, so a nested call leaves it set
        def wrapper(*args, **kwargs):
            flag[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                flag[0] -= 1

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name in TRACED_CHARTABLE:
            mp.setattr(CharTable, name, counting(name, getattr(CharTable, name)))
        mp.setattr(CycArray, "__matmul__", counting("matmul", CycArray.__matmul__))
        mp.setattr(characters, "newton", counting("newton", characters.newton))
        mp.setattr(Poly, "__mul__", counting("det_form_mul", Poly.__mul__, in_det))
        for owner in (formmat, moduli):  # moduli imported det_form by name
            mp.setattr(owner, "det_form", setting(in_det, formmat.det_form))
        mp.setattr(moduli, "psi", counting("psi", moduli.psi))
        mp.setattr(moduli, "surface_ideal", counting("surface_ideal", setting(in_surface, moduli.surface_ideal)))
        mp.setattr(Poly, "substitute", counting("surface_substitute", Poly.substitute, in_surface))
        for name in ("__init__", "is_stable_under", "trace"):
            mp.setattr(SpanSolver, name, setting(in_span, getattr(SpanSolver, name)))
        mp.setattr(SpanSolver, "__init__", counting("span_solver", SpanSolver.__init__))
        mp.setattr(SpanSolver, "is_stable_under", setting(in_stable, SpanSolver.is_stable_under))
        mp.setattr(characters, "subspace_character", setting(in_span, characters.subspace_character))
        for name in ("__mul__", "__sub__"):
            mp.setattr(Cyc7, name, counting("stable_cyc7", getattr(Cyc7, name), in_stable))
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
            mp.setattr(Fraction, name, counting("stable_fraction", getattr(Fraction, name), in_stable))
        for owner in (linalg, checks, moduli):  # checks and moduli imported rank by name
            mp.setattr(owner, "rank" if owner is linalg else "mat_rank", counting("rank", setting(in_rank, linalg.rank)))
        mp.setattr(linalg, "Fraction", counting("rank_fraction", Fraction, in_rank))
        mp.setattr(Poly, "__init__", counting("span_poly", Poly.__init__, in_span))
        mp.setattr(groebner, "ideal_hf_oracle", counting("hf_oracle", groebner.ideal_hf_oracle))
        characters.sl2_table()
        mp.setattr(FieldElem, "__init__", counting("fieldelem", FieldElem.__init__))
        report = run_suite("all", RunConfig(seed=42, sample_points=2, random_alphas=24))
    return report, calls


def test_declared_ids_are_the_reported_ids(scaled_run):
    fns = [fn for name in ("appendix", "syzygy", "moduli") for fn in SUITES[name]]
    declared = [fn.check_id for fn in fns]
    assert len(set(declared)) == len(declared) == 38
    report, _ = scaled_run
    assert [c["id"] for c in report["checks"]] == sorted(declared)
    assert hashlib.sha256(report_json_bytes(report)).hexdigest() == SCALED_SHA_42


def test_traced_character_methods_run_in_the_scaled_suite(scaled_run):
    _, calls = scaled_run
    assert all(calls[name] >= 1 for name in TRACED_CHARTABLE), calls


def test_cached_moduli_tables_survive_a_run(scaled_run, monkeypatch):
    # after a whole run, the tables built from the parse cache equal tables
    # parsed afresh
    tables = (moduli.f_basis, moduli.psi_matrix, moduli.eta_klein, moduli.alpha_family, moduli.d_vector, moduli.klein_quartic)
    cached = [table() for table in tables]
    assert moduli._parsed.cache_info().hits > 0
    monkeypatch.setattr(moduli, "_parsed", moduli._parsed.__wrapped__)
    assert [table() for table in tables] == cached


def test_work_counts_of_the_scaled_suite(scaled_run):
    # deterministic work counts of the scaled run; a change that brings back
    # redundant exact products (full powers where traces are read, cofactor
    # expansion without memoised minors) raises them
    _, calls = scaled_run
    assert calls["matmul"] == MATMUL_CALLS
    assert calls["newton"] == NEWTON_CALLS
    assert calls["fieldelem"] == FIELDELEM_INITS
    assert calls["det_form_mul"] == DET_FORM_MULS
    # one solver per run, for the span certificate; each surface is built
    # once, and stability is decided on integer numerators
    assert calls["span_solver"] == 1
    assert calls["surface_ideal"] == SURFACES_BUILT
    assert calls["psi"] == PSI_CALLS
    assert calls["stable_cyc7"] == calls["stable_fraction"] == 0
    # a rank counts pivots of the integer rows, with no Fraction matrix
    assert calls["rank"] > 0 and calls["rank_fraction"] == 0
    # the solver reads each group element's MonoMat, with no Poly images
    assert calls["span_poly"] == 0
    # the surface shifts relabel exponents (MonoMat.act): no substitution
    assert calls["surface_substitute"] == 0
    # quotient dimensions come from the Groebner basis over Q, not from
    # dense ranks of generator multiples
    assert calls["hf_oracle"] == 0


def test_constant_polynomials_are_parsed_once(scaled_run, monkeypatch):
    # after one run every constant polynomial string is in the parse cache,
    # so a second run parses none
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    real = poly.parse_poly
    for owner in (poly, moduli):  # moduli imported parse_poly by name
        monkeypatch.setattr(owner, "parse_poly", counting)
    run_suite("all", RunConfig(seed=42, sample_points=2, random_alphas=24))
    assert calls == []


def test_library_spellings_of_one_prime_give_one_report():
    # RunConfig stores the canonical coefficient name, as the CLI does
    assert RunConfig(coeff="fp:031").coeff == "fp:31"
    reports = [report_json_bytes(run_suite("syzygy", RunConfig(coeff=c))) for c in ("fp:31", "fp:031")]
    assert reports[0] == reports[1]


@pytest.mark.parametrize(
    "budget, why",
    [(-3, ">= 0, not -3"), (2.5, "an integer, not 2.5"), ("8", "an integer, not '8'"), (True, "an integer, not True")],
    ids=["negative", "float", "str", "bool"],
)
def test_library_refuses_a_bad_budget(budget, why):
    with pytest.raises(ValueError, match=f"the degree budget must be {why}"):
        RunConfig(budget_degree=budget)


@pytest.mark.parametrize("coeff", ["bogus", "fp:x", "fp:9", None])
def test_library_refuses_a_bad_coefficient(coeff):
    # refused when the config is built, before any check can run
    with pytest.raises(ValueError):
        RunConfig(coeff=coeff)


def test_library_report_names_its_explicit_point(monkeypatch):
    # the point is normalised to Fractions and recorded only when given
    monkeypatch.setitem(SUITES, "appendix", [])
    config = RunConfig(extra_t=(1, "2/4", 3, -1))
    assert config.extra_t == (1, Fraction(1, 2), 3, -1)
    assert all(isinstance(x, Fraction) for x in config.extra_t)
    assert run_suite("appendix", config)["config"]["extra_t"] == ["1", "1/2", "3", "-1"]
    assert "extra_t" not in run_suite("appendix", RunConfig())["config"]
    with pytest.raises(ValueError, match="t1 t2 t3 != 0"):
        RunConfig(extra_t=(1, 1, 0, 1))
    with pytest.raises(ValueError, match="four coordinates, not 2"):
        RunConfig(extra_t=(1, 1))


@pytest.fixture(scope="module")
def a4_ctx():
    return checks.Context(RunConfig())


def test_sl2_rows_at_the_sample_classes_have_no_sqrt2_part(a4_ctx):
    # the sampled traces compare in Q(zeta7) because of this; the table
    # itself needs the tower at other classes
    samples, _ = checks._a4_samples(a4_ctx)
    table = a4_ctx.sl2.stack(a4_ctx.sl2.labels)
    at_samples = table[:, [s_class for _, _, s_class in samples]]
    assert table.lower().r2 and at_samples.r2
    assert not at_samples.lower().r2 and at_samples.lower() == at_samples


# (table, row, mutated row, the first mismatch reported): the message a
# comparison row by row, sample by sample, gives
A4_MUTATIONS = [
    ("A4_TENSOR_ROWS", 3, (1, 1, {"U'": 1, "W'": 1}, 5), "tensor trace mismatch at sample id"),
    ("A4_EXT_ROWS", 5, (3, 1, {"I": 1, "U'": 1}, 1), "wedge trace mismatch at sample nu"),
    ("A4_SYM_ROWS", 1, (3, 0, {"I": 1, "L": 1, "U'": 1}, 1), "symmetric trace mismatch at sample nu"),
]


@pytest.mark.parametrize("chunk", [checks.A4_CHUNK, 1, 4, 6])
def test_sampled_traces_report_the_first_mismatch_in_sample_row_order(a4_ctx, monkeypatch, chunk):
    # however the samples are batched
    monkeypatch.setattr(checks, "A4_CHUNK", chunk)
    assert checks._a4_sample_traces(a4_ctx) == (True, "trace equality on 5940 sampled normalizer products")
    for name, n, row, detail in A4_MUTATIONS:
        table = getattr(checks, name)
        # the mutation changes one field of the row
        assert sum(a != b for a, b in zip(table[n], row)) == 1
        with monkeypatch.context() as mp:
            mp.setattr(checks, name, table[:n] + [row] + table[n + 1 :])
            assert checks._a4_sample_traces(a4_ctx) == (False, detail)
