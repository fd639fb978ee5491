"""heis7 benchmark runner.

    python3 perfbench/run.py --workload certify|resolution|annihilation \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --probes     # fixed-operand layer probes
    python3 perfbench/run.py --golden     # full `verify all --seed 42` vs the golden sha
    python3 perfbench/selftest.py         # the benchmark's own self-tests

Run from the repository root.  One process, one client, closed loop.  The
last line of standard output is the result object; the line before it is
the run's provenance and per-workload detail.  With `--trace 0` the result
carries the end-to-end metrics of BENCHMARK.json, with `--trace 1` its
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

SETUP_RUNS = 9
# if none of the planned inputs was timed, take at most this many more
MAX_EXTRA_INPUTS = 50

sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

import hostclock  # noqa: E402
import probes  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def median_setup_s(runs=SETUP_RUNS):
    """Median cold set-up time over `runs` fresh processes, one at a time.

    Returns the median on the host-speed clock and the (clock, wall) pairs.
    """
    values = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_once.py")],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        clock, wall = proc.stdout.strip().splitlines()[-1].split()
        values.append((float(clock), float(wall)))
    return statistics.median(c for c, _ in values), values


def run_op(workload, item):
    try:
        return workload.run(item)
    except Exception as exc:  # one crashed op is a failed op, not a crashed run
        traceback.print_exc(file=sys.stderr)
        return [workloads.Outcome("failed", note=f"{type(exc).__name__}: {exc}")]


def planned_inputs(workload, seconds, passes):
    """Inputs in a run of about `seconds` on the reference machine; at least 1."""
    return max(1, round(seconds / (workload.NOMINAL_INPUT_S * passes)))


def drive(workload, seconds):
    """Closed loop: next operation only after the previous one is decided.

    The run takes a fixed number of inputs from the seeded stream, so the
    same seed and `seconds` attempt the same operations on every run.  If
    none of them was timed (every one refused or failed), it takes more, one
    at a time, until one is.  Pass 0 runs each input as it is drawn; the
    further passes run the same inputs again, in the same order.  An input's
    sample is its fastest timed pass.
    """
    planned = planned_inputs(workload, seconds, workload.PASSES)
    stream = workload.inputs()
    items = []
    outcomes = []
    per_input = {}

    def run_input(k):
        got = run_op(workload, items[k])
        outcomes.extend(got)
        taken = workload.sample(got)
        if taken is not None:
            per_input.setdefault(k, []).append(taken)

    while len(items) < planned or (not per_input and len(items) < planned + MAX_EXTRA_INPUTS):
        items.append(next(stream))
        run_input(len(items) - 1)
    for _ in range(1, workload.PASSES):
        for k in range(len(items)):
            run_input(k)
    samples = [min(per_input[k]) for k in sorted(per_input)]
    return outcomes, samples, len(items)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def git_commit():
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args):
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "git_commit": git_commit(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "golden_sha256": workloads.DEFAULT_GOLDEN_SHA,
        "certify_golden_sha256_seed42": workloads.CERTIFY_GOLDEN_SHA_42,
    }


def outcome_stats(outcomes, samples):
    counts = {}
    for o in outcomes:
        counts[o.status] = counts.get(o.status, 0) + 1
    attempted = len(outcomes)
    failed = counts.get("failed", 0) + counts.get("wrong", 0)
    by_kind = {}
    for kind in sorted({o.kind for o in outcomes if o.status == "ok"}):
        ok = [o for o in outcomes if o.status == "ok" and o.kind == kind]
        by_kind[kind] = {
            "n": len(ok),
            "p50_s": statistics.median(o.seconds for o in ok),
            "wall_p50_s": statistics.median(o.wall for o in ok),
        }
    return {
        "attempted": attempted,
        "failed": failed,
        "timed": len(samples),
        "failed_ratio": failed / attempted if attempted else 0.0,
        "status_counts": counts,
        "by_kind": by_kind,
        "failure_notes": [o.note for o in outcomes if o.status in ("failed", "wrong")][:8],
    }


def end_to_end(samples, setup_s):
    metrics = {
        "setup_s": setup_s,
        "op_s_p50": statistics.median(samples) if samples else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    # a tail percentile only where at least ten samples lie beyond it
    p90 = statistics.quantiles(samples, n=10)[8] if len(samples) >= 100 else None
    return metrics, p90


def per_layer(spec, tracer, field_probes):
    """Resolve every per-layer metric name of BENCHMARK.json from the trace."""
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        layer, _, rest = name.partition(".")
        if name in tracer.extra:
            value = tracer.extra[name]
        elif name in field_probes:
            value = field_probes[name]
        elif name == "characters.tables_build_s":
            value = tracer.incl_s.get("characters.g7_table", 0.0) + tracer.incl_s.get(
                "characters.sl2_table", 0.0
            )
        elif layer == "checks" and name.endswith(".s"):
            value = tracer.incl_s.get(name[: -len(".s")], 0.0)
        elif rest == "self_s":
            value = tracer.layer_self_s(layer)
        elif name.endswith(".calls"):
            value = tracer.calls.get(name[: -len(".calls")], 0)
        elif name.endswith(".self_s"):
            value = tracer.self_s.get(name[: -len(".self_s")], 0.0)
        else:
            raise KeyError(f"no rule resolves per-layer metric {name!r}")
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def write_trace(args, tracer, detail):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(
            {
                "detail": detail,
                "fields": ["name", "start", "end", "parent", "op"],
                "spans": tracer.records,
                "summary": tracer.summary(),
                "binding_sites": tracer.binding_sites,
            },
            fh,
        )
    return os.path.relpath(path, ROOT)


def run_untraced(args, spec):
    setup_s, setup_values = median_setup_s()
    probes.build_caches()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    hostclock.start()
    try:
        outcomes, samples, items = drive(workload, seconds=args.seconds)
    finally:
        hostclock.stop()
    metrics, p90 = end_to_end(samples, setup_s)
    stats = outcome_stats(outcomes, samples)
    detail = {
        "provenance": provenance(args),
        "setup_s_runs": setup_values,
        "setup_wall_s_p50": statistics.median(w for _, w in setup_values),
        "inputs": items,
        "passes": workload.PASSES,
        "op_s_p90": p90,
        "host_probe": {
            "ticks": len(hostclock.probe_times),
            "p50_s": statistics.median(hostclock.probe_times),
            "min_s": min(hostclock.probe_times),
            "max_s": max(hostclock.probe_times),
        },
        **stats,
        **workload.detail(),
        "peak_rss_mb": metrics["peak_rss_mb"],
    }
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    return detail, stats, {k: {"value": metrics[k], "unit": units[k]} for k in units}


def run_traced(args, spec):
    """Traced set-up, then every input twice, untraced and traced.

    The inputs are the first ones of the untraced run, as many as fill about
    `--seconds` when each runs twice.  The order alternates between inputs;
    the difference of the two sums is the tracing overhead on identical work.
    Per-layer metrics come from the traced set-up and the traced runs only.
    Spans and sums are on the host-speed clock, like the untraced timings.
    """
    field_probes = probes.field_probes()
    hostclock.start()
    try:
        return traced_loop(args, spec, field_probes)
    finally:
        hostclock.stop()


def traced_loop(args, spec, field_probes):
    tracer = Tracer()
    tracer.install()
    probes.build_caches()
    tracer.uninstall()

    workload = workloads.WORKLOADS[args.workload](args.seed)
    outcomes = []
    samples = []
    spent = {False: 0.0, True: 0.0}
    planned = planned_inputs(workload, args.seconds, 2)
    items = 0
    for item in workload.inputs():
        for traced in (False, True) if items % 2 == 0 else (True, False):
            if traced:
                tracer.install()
                tracer.op = items
            t0 = hostclock.now()
            got = run_op(workload, item)
            spent[traced] += hostclock.now() - t0
            if traced:
                tracer.uninstall()
            outcomes.extend(got)
            taken = workload.sample(got)
            if taken is not None:
                samples.append(taken)
        items += 1
        if items >= planned and (samples or items >= planned + MAX_EXTRA_INPUTS):
            break

    stats = outcome_stats(outcomes, samples)
    detail = {
        "provenance": provenance(args),
        "inputs": items,
        "trace_overhead": {
            "untraced_s": spent[False],
            "traced_s": spent[True],
            "overhead_s": spent[True] - spent[False],
            "overhead_share": (spent[True] - spent[False]) / spent[False],
        },
        "spans": len(tracer.records),
        **stats,
        **workload.detail(),
        "peak_rss_mb": peak_rss_mb(),
    }
    detail["trace_file"] = write_trace(args, tracer, detail)
    return detail, stats, per_layer(spec, tracer, field_probes)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probes", action="store_true", help="print the fixed-operand layer probes")
    ap.add_argument("--golden", action="store_true", help="check the default golden report")
    args = ap.parse_args(argv)

    if args.probes:
        print(json.dumps(probes.baseline_probes(), indent=1))
        return 0
    if args.golden:
        result = probes.golden_check(SRC)
        print(json.dumps(result, indent=1))
        return 0 if result["match"] else 1
    if args.workload is None:
        ap.error("--workload is required")

    try:
        import heis7  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import heis7 from {SRC}: {exc}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.trace:
        detail, stats, metrics = run_traced(args, spec)
    else:
        detail, stats, metrics = run_untraced(args, spec)
    correct = stats["status_counts"].get("wrong", 0) == 0 and stats["timed"] > 0
    print(json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": stats["attempted"],
                "failed": stats["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
