"""Fixed-operand layer probes and the full golden-report check.

The probe inputs are those of the Baseline table in ROADMAP.md: t = (1,1,1,1)
and t = (-7/3, 11/5, 3/13, -5/2), over F31 and Q.  Each probe reports the
median of a few repetitions.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from time import perf_counter

from workloads import DEFAULT_GOLDEN_SHA, RESOLUTION_DEGREE_CAP, RESOLUTION_PRIME

T_ONE = (1, 1, 1, 1)
T_BASELINE = (Fraction(-7, 3), Fraction(11, 5), Fraction(3, 13), Fraction(-5, 2))


def build_caches():
    """The module-level caches a cold set-up builds (see setup_once.py)."""
    from heis7.characters import g7_table, sl2_table
    from heis7.moduli import compose_u

    g7_table()
    sl2_table()
    for i in range(4):
        for j in range(4):
            compose_u(i, j)


def _per_call_us(fn, calls, batches=5):
    times = []
    for _ in range(batches):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        times.append((perf_counter() - t0) / calls * 1e6)
    return statistics.median(times)


def field_probes():
    """Per-call microseconds of the field arithmetic on fixed operands."""
    from heis7.field import Cyc7, FieldElem

    a = Cyc7((1, 2, 3, 4, 5, 6), 7)
    b = Cyc7((6, -5, 4, -3, 2, -1), 11)
    x, y = FieldElem(a, b), FieldElem(b, a)
    return {
        "field.cyc7_mul_us": _per_call_us(lambda: a * b, 2000),
        "field.cyc7_inv_us": _per_call_us(a.inv, 40),
        "field.fieldelem_mul_us": _per_call_us(lambda: x * y, 400),
    }


def _median_s(fn, reps):
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def baseline_probes(reps=3):
    """Every layer figure of the ROADMAP Baseline table, in one call."""
    from heis7.characters import g7_table, subspace_character
    from heis7.field import QQ, fp
    from heis7.moduli import alpha_compose, alpha_t, surface_ideal
    from heis7.resolution import free_resolution

    t0 = perf_counter()
    build_caches()
    out = {"setup_in_process_s": perf_counter() - t0}
    out.update(field_probes())
    table = g7_table()
    v0 = table.rows["V0"]
    out["characters.sym_power_V0_14_s"] = _median_s(lambda: table.sym_power(v0, 14), reps)
    alpha = alpha_t(T_ONE)
    out["moduli.alpha_compose_s"] = _median_s(lambda: alpha_compose(alpha), reps)
    s_one = surface_ideal(T_ONE)
    out["characters.subspace_character_t1111_s"] = _median_s(
        lambda: subspace_character(s_one.basis, table), reps
    )
    for label, t in (("t1111", T_ONE), ("tbase", T_BASELINE)):
        surface = surface_ideal(t)
        for dlabel, dom in (("fp31", fp(RESOLUTION_PRIME)), ("q", QQ)):
            out[f"groebner.buchberger_{label}_{dlabel}_s"] = _median_s(
                lambda: surface.ideal(dom).gb(), reps
            )
            out[f"resolution.free_resolution_{label}_{dlabel}_s"] = _median_s(
                lambda: free_resolution(surface.ideal(dom), degree_cap=RESOLUTION_DEGREE_CAP),
                reps,
            )
    return out


def golden_check(src):
    """Run `heis7 verify all --seed 42` in a fresh process; compare its sha256."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with tempfile.TemporaryDirectory(dir=os.path.dirname(src)) as tmp:
        path = os.path.join(tmp, "report.json")
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "heis7.cli", "verify", "all", "--seed", "42", "--json", path, "--quiet"],
            env=env,
            timeout=900,
        )
        wall = perf_counter() - t0
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
    return {
        "exit_code": proc.returncode,
        "wall_s": wall,
        "sha256": digest,
        "golden": DEFAULT_GOLDEN_SHA,
        "match": proc.returncode == 0 and digest == DEFAULT_GOLDEN_SHA,
    }
