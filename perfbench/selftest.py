"""Self-tests of the benchmark itself (about three minutes on two cores).

    python3 perfbench/selftest.py

1. Each workload at its smallest size (one input) emits exactly the metrics
   of BENCHMARK.json, untraced and traced, with the result-line contract.
2. Every traced name has at least one binding site, and every per-layer
   metric and wrapped name reads nonzero on the workload `EXERCISED_ON`
   assigns it, so a binding site the wrappers miss shows up as zero calls.
3. Deliberately corrupted results count as failed and are not timed: a
   wrong Betti table, a flipped verdict, changed report bytes.
4. Spans nest: each lies inside its parent.
5. The host-speed clock ticks, never runs backwards, and stops cleanly.
6. Without the program (only BENCHMARK.json and perfbench/) the benchmark
   exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from run import load_spec  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402

# the workload on which each per-layer metric or traced name must be nonzero;
# the first matching prefix wins
EXERCISED_ON = [
    ("field.", "certify"),
    ("characters.tables_build_s", "resolution"),
    ("characters.", "certify"),
    ("heisenberg.", "certify"),
    ("poly.diffop_apply", "annihilation"),
    ("poly.", "certify"),
    ("linalg.", "certify"),
    ("formmat.add", "annihilation"),
    ("formmat.scale", "annihilation"),
    ("formmat.is_zero", "annihilation"),
    ("formmat.self_s", "annihilation"),
    ("formmat.", "certify"),
    ("groebner.ideal_hf_oracle", "certify"),
    ("groebner.", "resolution"),
    ("resolution.hilbert_burch", "certify"),
    ("resolution.", "resolution"),
    ("moduli.surface_ideal", "resolution"),
    ("moduli.grass_membership", "certify"),
    ("moduli.", "annihilation"),
    ("checks.", "certify"),
]

FAILURES = []


def exercised_on(name):
    return next(w for prefix, w in EXERCISED_ON if name.startswith(prefix))


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        FAILURES.append(what)


def run_bench(workload, trace, cwd=ROOT, seed=3):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc


# ---------------------------------------------------------------------------


def test_contract(spec):
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            proc = run_bench(name, trace)
            check(proc.returncode == 0, f"{name} trace={trace}: exit code {proc.returncode}")
            if proc.returncode != 0:
                print(proc.stderr[-2000:])
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            detail = json.loads(lines[-2])
            check(
                set(result) == {"correct", "attempted", "failed", "metrics"},
                f"{name} trace={trace}: result keys",
            )
            check(result["correct"] is True, f"{name} trace={trace}: correct")
            check(result["attempted"] >= 1, f"{name} trace={trace}: attempted >= 1")
            wanted = spec["per_layer" if trace else "end_to_end"]
            check(
                {m["name"]: m["unit"] for m in wanted}
                == {k: v["unit"] for k, v in result["metrics"].items()},
                f"{name} trace={trace}: metric names and units match BENCHMARK.json",
            )
            for key in ("python", "numpy", "nproc", "git_commit", "seed", "traced", "golden_sha256"):
                check(key in detail["provenance"], f"{name} trace={trace}: provenance has {key}")
            check("peak_rss_mb" in detail, f"{name} trace={trace}: detail has peak_rss_mb")
            if not trace:
                for k, v in result["metrics"].items():
                    check(v["value"] > 0, f"{name}: end-to-end {k} = {v['value']} > 0")
                continue
            for k, v in result["metrics"].items():
                if exercised_on(k) == name:
                    check(v["value"] > 0, f"{name}: per-layer {k} = {v['value']} > 0")
            with open(os.path.join(ROOT, detail["trace_file"])) as fh:
                trace_data = json.load(fh)
            summary = trace_data["summary"]
            for target, *_ in TARGETS:
                if exercised_on(target) == name:
                    calls = summary.get(target, {}).get("calls", 0)
                    check(calls > 0, f"{name}: wrapped {target} called {calls} times")
            check_spans_nest(name, trace_data)


def check_spans_nest(name, trace_data):
    spans = trace_data["spans"]
    bad = 0
    for i, (_, start, end, parent, _op) in enumerate(spans):
        if end < start or parent >= i:
            bad += 1
        elif parent >= 0:
            _, ps, pe, _, _ = spans[parent]
            if start < ps or end > pe:
                bad += 1
    check(bad == 0 and spans, f"{name}: {len(spans)} spans nest inside their parents")


def test_binding_sites():
    import heis7.checks
    import heis7.linalg

    original = heis7.linalg.rank
    tracer = Tracer()
    tracer.install()
    try:
        for target, *_ in TARGETS:
            check(tracer.binding_sites.get(target, 0) >= 1, f"{target} has a binding site")
        check(tracer.binding_sites["linalg.rank"] >= 3, "linalg.rank wrapped where checks/moduli bind it")
        check(heis7.checks.mat_rank is heis7.linalg.rank is not original, "checks.mat_rank is wrapped")
    finally:
        tracer.uninstall()
    check(heis7.linalg.rank is original and heis7.checks.mat_rank is original, "uninstall restores")


def test_corrupted():
    import heis7.checks
    import heis7.moduli
    import heis7.resolution
    from heis7.resolution import BettiTable

    # annihilation: a flipped verdict
    real = heis7.moduli.delta_criterion
    heis7.moduli.delta_criterion = lambda a: not real(a)
    try:
        wl = workloads.Annihilation(5)
        item = next(wl.inputs())
        out = wl.run(item)
    finally:
        heis7.moduli.delta_criterion = real
    check([o.status for o in out] == ["wrong"], "flipped verdict counts as wrong")
    check(wl.sample(out) is None, "flipped verdict is not timed")

    # resolution: a wrong Betti table
    real_res = heis7.resolution.free_resolution

    def wrong_table(ideal, **kw):
        entries = dict(workloads.SURFACE_BETTI)
        entries[(5, 7)] = 3
        return BettiTable(entries, True, "")

    heis7.resolution.free_resolution = wrong_table
    try:
        wl = workloads.Resolution(5)
        out = wl.run((Fraction(1), Fraction(1), Fraction(1), Fraction(1)))
    finally:
        heis7.resolution.free_resolution = real_res
    check([o.status for o in out] == ["failed", "wrong"], "wrong Betti table counts as failed/wrong")
    check(wl.sample(out) is None, "wrong Betti table is not timed")

    # certify: changed report bytes, a failing check, a golden mismatch
    checks = [
        {"id": f"check.{i}", "status": "pass", "details": "", "ms": 0}
        for i in range(workloads.CERTIFY_CHECK_COUNT - 1)
    ] + [{"id": "appendix.decomp.symmetric_printed_errata", "status": "flagged", "details": "", "ms": 0}]
    report = {"checks": checks, "summary": {"pass": 37, "fail": 0, "flagged": 1}}
    state = {"payload": b"report\n"}
    real_suite, real_bytes = heis7.checks.run_suite, heis7.checks.report_json_bytes
    heis7.checks.run_suite = lambda suite, config: report
    heis7.checks.report_json_bytes = lambda r: state["payload"]
    try:
        wl = workloads.Certify(7)
        config = next(wl.inputs())
        first = wl.run(config)
        state["payload"] = b"report!\n"
        second = wl.run(config)
        check([o.status for o in first + second] == ["ok", "wrong"], "changed report bytes count as wrong")
        check(
            wl.sample(first) is not None and wl.sample(second) is None,
            "changed report bytes are not timed",
        )
        out = workloads.Certify(42).run(config)
        check([o.status for o in out] == ["wrong"], "report sha differing from golden at seed 42 is wrong")
        report["checks"][0]["status"] = "fail"
        report["summary"]["fail"] = 1
        out = workloads.Certify(8).run(config)
        check([o.status for o in out] == ["wrong"], "a failing check is wrong")
    finally:
        heis7.checks.run_suite, heis7.checks.report_json_bytes = real_suite, real_bytes


def test_hostclock():
    import signal
    import time

    import hostclock

    hostclock.start()
    try:
        readings = [hostclock.now()]
        end = time.perf_counter() + 1.0
        while time.perf_counter() < end:
            hostclock.probe_s()
            readings.append(hostclock.now())
    finally:
        hostclock.stop()
    check(len(hostclock.probe_times) >= 3, f"host clock ticked {len(hostclock.probe_times)} times in 1 s")
    check(all(b >= a for a, b in zip(readings, readings[1:])), "host clock never runs backwards")
    check(readings[-1] > 0, "host clock advances")
    check(signal.getsignal(signal.SIGALRM) == signal.SIG_DFL, "stop() removes the timer handler")
    before = time.perf_counter()
    reading = hostclock.now()
    check(before <= reading <= time.perf_counter(), "a stopped host clock reads wall time")


def test_without_program():
    tmp = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
        shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("annihilation", 0, cwd=tmp)
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        check(proc.returncode != 0, f"without src/ the exit code is {proc.returncode}")
        check('"metrics"' not in last[0], "without src/ no result is printed")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main():
    spec = load_spec()
    test_binding_sites()
    test_corrupted()
    test_hostclock()
    test_without_program()
    test_contract(spec)
    print(f"{len(FAILURES)} failures")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
