from heis7 import heisenberg
from heis7.checks import SUITES, Context, RunConfig, check_group_law, run_suite


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


def test_declared_ids_are_the_reported_ids():
    fns = [fn for name in ("appendix", "syzygy", "moduli") for fn in SUITES[name]]
    declared = [fn.check_id for fn in fns]
    assert len(set(declared)) == len(declared) == 38
    # a scaled run: every check still runs, on fewer samples
    ctx = Context(RunConfig(sample_points=2, random_alphas=24))
    for fn in fns:
        assert fn(ctx).id == fn.check_id, fn.__name__
