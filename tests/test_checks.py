import hashlib

from heis7 import heisenberg
from heis7.checks import SUITES, RunConfig, check_group_law, report_json_bytes, run_suite


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


# report sha256 of the scaled seed-42 run below; the certify benchmark gates
# on the same bytes
SCALED_SHA_42 = "2454e9171fed5dcf010b510836120f04b9ae425b7555ce3b52a20823b5e003c8"


def test_declared_ids_are_the_reported_ids():
    fns = [fn for name in ("appendix", "syzygy", "moduli") for fn in SUITES[name]]
    declared = [fn.check_id for fn in fns]
    assert len(set(declared)) == len(declared) == 38
    # a scaled run: every check still runs, on fewer samples
    report = run_suite("all", RunConfig(seed=42, sample_points=2, random_alphas=24))
    assert [c["id"] for c in report["checks"]] == sorted(declared)
    assert hashlib.sha256(report_json_bytes(report)).hexdigest() == SCALED_SHA_42
