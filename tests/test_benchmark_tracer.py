"""The benchmark tracer (perfbench/tracer.py) still finds what it wraps.

The tracer wraps heis7 functions from outside by name, so renaming or
moving one of them would make `perfbench/run.py --trace 1` fail.  These
tests read the tracer's target list without installing it.
"""

import importlib
from pathlib import Path

from heis7 import checks
from heis7.field import fp
from heis7.moduli import surface_ideal
from heis7.resolution import free_resolution

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    assert tracer.TARGETS
    for name, mod, path, _ in tracer.TARGETS:
        owner = importlib.import_module(f"heis7.{mod}")
        *cls_path, attr = path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        assert callable(vars(owner).get(attr)), f"{name}: heis7.{mod}.{path} is gone"


def test_check_suites_are_lists_of_checks():
    assert isinstance(checks.SUITES, dict) and checks.SUITES
    for suite, fns in checks.SUITES.items():
        assert isinstance(fns, list) and fns, suite
        for fn in fns:
            assert callable(fn) and isinstance(fn.check_id, str), (suite, fn)


def test_resolution_path_enters_the_traced_engine_layers(monkeypatch):
    # perfbench/selftest.py requires these per-layer names on the resolution
    # workload, which reads an ideal's Hilbert series and then resolves it
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    ideal = surface_ideal((1, 1, 1, 1)).ideal(fp(31))
    tracer.install()
    try:
        ideal.hilbert()
        free_resolution(ideal, degree_cap=9)
    finally:
        tracer.uninstall()
    entered = (
        "groebner.buchberger",
        "groebner.normal_form",
        "groebner.hilbert_data",
        "resolution.modulegb_add_input",
        "resolution.modulegb_process_pairs",
    )
    for name in entered:
        assert tracer.calls.get(name), name
