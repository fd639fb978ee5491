"""The certification checks behind the command-line verifier.

Every check is a pure function of the run context returning a CheckResult;
the runner assembles them into a Report ordered by check id so output is
deterministic for a fixed (version, seed, configuration).

A check is added with one decorator and nothing else:

    @declare_id("<suite>.<name>")
    def check_<name>(ctx):
        ...
        return _result(ok, detail_pass, detail_fail)

The decorator registers it in the suite its id begins with (SUITES, in
definition order), and the body returns only (status, details).

Status semantics: 'pass' and 'fail' are verification verdicts; 'flagged'
marks findings that need attention but are not artifact failures (resource
budgets, printed-value discrepancies that independent arithmetic resolves).
"""

from __future__ import annotations

import functools
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from . import __version__
from .field import (
    Cyc7,
    CycArray,
    QQ,
    alpha_minus,
    alpha_plus,
    eta as eta_const,
    fp,
    gauss_sum,
    lam,
)
from .linalg import rank as mat_rank
from .poly import VarRegistry

SCHEMA = "heis7-report-v1"


@dataclass
class CheckResult:
    id: str
    status: str  # pass | fail | flagged
    details: str
    ms: int = 0

    def to_json(self):
        return {"id": self.id, "status": self.status, "details": self.details, "ms": self.ms}


@dataclass(frozen=True)
class RunConfig:
    """Canonical once built (coeff fp:031 is fp:31, extra_t four Fractions);
    a bad coeff, budget_degree or extra_t is a ValueError, as on the CLI."""

    seed: int = 42
    coeff: str = "fp:31"
    budget_degree: int = 8
    timing: bool = False
    sample_points: int = 20
    random_alphas: int = 200
    extra_t: tuple = None  # an explicit parameter point to prepend

    def __post_init__(self):
        object.__setattr__(self, "coeff", coeff_name(coeff_domain(self.coeff)))
        object.__setattr__(self, "budget_degree", degree_budget(self.budget_degree))
        if self.extra_t is not None:
            object.__setattr__(self, "extra_t", admissible_point(self.extra_t))

    def resolution_domain(self):
        return coeff_domain(self.coeff)

    def resolution_degree_cap(self) -> int:
        """Resolutions run through degree max(budget_degree, 9)."""
        return max(self.budget_degree, 9)


def coeff_domain(coeff: str):
    """The coefficient domain a --coeff value names: q, or fp:<p> for an
    admissible prime p; anything else raises ValueError."""
    if coeff == "q":
        return QQ
    if isinstance(coeff, str) and coeff.startswith("fp:"):
        try:
            p = int(coeff[3:])
        except ValueError:
            raise ValueError(f"fp:<p> needs an integer prime, not {coeff[3:]!r}") from None
        return fp(p)
    raise ValueError(f"unknown coefficient configuration {coeff!r} (expected q or fp:<p>)")


def coeff_name(dom) -> str:
    """The canonical --coeff value of a coefficient domain: q or fp:<p>."""
    return "q" if dom is QQ else f"fp:{dom.p}"


def degree_budget(budget) -> int:
    """A resolution degree budget: a non-negative int, else ValueError."""
    if type(budget) is not int:
        raise ValueError(f"the degree budget must be an integer, not {budget!r}")
    if budget < 0:
        raise ValueError(f"the degree budget must be >= 0, not {budget}")
    return budget


def admissible_point(t) -> tuple:
    """An explicit parameter point as four Fractions; ValueError unless it
    has four coordinates with t1 t2 t3 != 0."""
    t = tuple(Fraction(x) for x in t)
    if len(t) != 4:
        raise ValueError(f"explicit parameter must have four coordinates, not {len(t)}")
    if not (t[1] and t[2] and t[3]):
        raise ValueError("explicit parameter must satisfy t1 t2 t3 != 0")
    return t


class Context:
    """Lazily built shared state for the checks."""

    def __init__(self, config: RunConfig):
        self.config = config
        self._cache = {}

    def get(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    @property
    def g7(self):
        from .characters import g7_table

        return self.get("g7", g7_table)

    @property
    def sl2(self):
        from .characters import sl2_table

        return self.get("sl2", sl2_table)

    def surfaces(self):
        """The surface at each seeded admissible rational parameter point
        (t1 t2 t3 != 0), the one record of the point for every check."""

        def build():
            from .moduli import surface_ideal

            rng = random.Random(self.config.seed)
            out = [(Fraction(1), Fraction(1), Fraction(1), Fraction(1))]
            if self.config.extra_t is not None:
                out.insert(0, self.config.extra_t)
            while len(out) < self.config.sample_points:
                t = tuple(
                    Fraction(rng.randint(-13, 13), rng.randint(1, 13)) for _ in range(4)
                )
                if t[1] and t[2] and t[3]:
                    out.append(t)
            return [surface_ideal(t) for t in out]

        return self.get("surfaces", build)

    def span_certificate(self) -> str:
        from .moduli import span_certificate

        return self.get("span_certificate", lambda: span_certificate(self.g7))


# ---------------------------------------------------------------------------
# small helpers


def _point(t) -> str:
    """A parameter point as rationals: (1/31, 1, 1, 1)."""
    return "(" + ", ".join(QQ.fmt(Fraction(x)) for x in t) + ")"


def _sl2_char_sums(table, specs) -> CycArray:
    """sum m row(lb) over each spec = {lb: m}, as a (len(specs), classes)
    batch: one integer matmul."""
    labels = list(dict.fromkeys(lb for spec in specs for lb in spec))
    return table.stack(labels).lincomb([[spec.get(lb, 0) for lb in labels] for spec in specs])


# the checks of each suite in definition order, keyed by the first
# component of their ids; filled by @declare_id
SUITES = {}


def declare_id(check_id):
    """Register a check under its stable report id, in the suite named by the
    id's first component.  The body returns (status, details); the
    registered callable returns the CheckResult under this id, and carries
    it as `check_id`, so that a crash is reported under it too."""
    if any(fn.check_id == check_id for fns in SUITES.values() for fn in fns):
        raise ValueError(f"check id {check_id!r} is already declared")

    def register(body):
        @functools.wraps(body)
        def check(ctx):
            return CheckResult(check_id, *body(ctx))

        check.check_id = check_id
        SUITES.setdefault(check_id.split(".")[0], []).append(check)
        return check

    return register


def _result(ok, detail_pass, detail_fail=None):
    return ("pass", detail_pass) if ok else ("fail", detail_fail or detail_pass)


# ---------------------------------------------------------------------------
# appendix suite


@declare_id("appendix.group.law")
def check_group_law(ctx: Context):
    from .heisenberg import build_heisenberg, GroupLawError

    try:
        h7, g7, stats = build_heisenberg()
    except GroupLawError as exc:
        return "fail", str(exc)
    ok = stats["order_h7"] == 343 and stats["order_g7"] == 686
    return _result(
        ok,
        f"abstract law agrees with the matrix model on {stats['pairs_checked']} "
        f"pairs; |H7|={stats['order_h7']}, |G7|={stats['order_g7']}; the "
        "antisymmetric cocycle exponent 3(mn'-m'n) holds for the index-raising "
        "shift (under which tau sigma = z sigma tau)",
    )


@declare_id("appendix.group.normalizer")
def check_normalizer(ctx: Context):
    from .heisenberg import verify_normalizer_relations

    rels = verify_normalizer_relations()
    bad = [k for k, v in rels.items() if not v]
    return _result(
        not bad,
        f"all {len(rels)} relations hold (conjugations, delta^2 = iota, unit determinants)",
        "failed: " + ", ".join(bad),
    )


@declare_id("appendix.group.classes")
def check_classes(ctx: Context):
    t = ctx.g7
    sizes = sorted(t.classes.sizes)
    ok = (
        t.classes.count == 38
        and sizes == [1] * 7 + [14] * 24 + [49] * 7
        and t.classes.group_order() == 686
    )
    s = ctx.sl2
    ok2 = s.classes.sizes == (1, 1, 56, 56, 24, 24, 24, 24, 42, 42, 42) and s.classes.group_order() == 336
    return _result(
        ok and ok2,
        "38 classes with sizes 1/14/49 summing to 686; 11 classes of the "
        "modular group with the printed sizes summing to 336",
    )


@declare_id("appendix.field.identities")
def check_field_identities(ctx: Context):
    a = gauss_sum()
    checks = [
        a * a == Cyc7.from_int(-7),
        lam(1) + lam(2) + lam(3) == a,
        lam(1) * lam(2) * lam(3) == a,
        eta_const(1) + eta_const(2) + eta_const(3) == Cyc7.from_int(-1),
        eta_const(1) * eta_const(2) * eta_const(3) == Cyc7.from_int(1),
        alpha_plus() + alpha_minus() == Cyc7.from_int(1),
        lam(1) ** 2 == eta_const(3) - 2,
        lam(2) ** 2 == eta_const(1) - 2,
        lam(3) ** 2 == eta_const(2) - 2,
        lam(1) * lam(2) == eta_const(3) - eta_const(2),
        lam(2) * lam(3) == eta_const(1) - eta_const(3),
        lam(3) * lam(1) == eta_const(2) - eta_const(1),
        a * eta_const(1) == lam(1) - 2 * lam(2),
        a * eta_const(2) == lam(2) - 2 * lam(3),
        a * eta_const(3) == lam(3) - 2 * lam(1),
    ]
    return _result(
        all(checks),
        f"all {len(checks)} scalar identities of the eigenvalue bookkeeping hold",
    )


@declare_id("appendix.chars.g7")
def check_orthogonality_g7(ctx: Context):
    return _orthogonality(ctx.g7, 686)


@declare_id("appendix.chars.sl2")
def check_orthogonality_sl2(ctx: Context):
    return _orthogonality(ctx.sl2, 336)


def _orthogonality(t, order: int):
    ok, msg = t.orthogonality_report()
    dimsq = sum(int(t.rows[lb][t.identity_class].tolist().rational_value()) ** 2 for lb in t.labels)
    return _result(ok and dimsq == order, f"{msg}; sum of squared degrees = {dimsq}", msg)


@declare_id("appendix.chars.matrix_rows")
def check_char_of_rep(ctx: Context):
    from .characters import char_of_rep
    from .heisenberg import IOTA, SIGMA, TAU

    t = ctx.g7
    images = [g.dense() for g in (SIGMA, TAU, IOTA)]
    ch = char_of_rep(*images, t)
    ok = ch == t.rows["V0"]
    tw = char_of_rep(*(m.galois(1) for m in images), t)
    ok = ok and tw == t.rows["V1"] and tw != ch
    detail = (
        "matrix-model character equals the V0 row and its Galois twist the V1 "
        "row; at the involution coset the matrix model carries -theta^i(alpha) "
        "on the unsharped rows (the classical display attaches that sign to "
        "the sharped rows)"
    )
    return _result(ok, detail)


def _twist_row(twist, a, b=0):
    """a V_twist + b V_twist#, twist mod 6 (zero multiplicities compare as
    absent)."""
    return {f"V{twist % 6}": a, f"V{twist % 6}#": b}


@declare_id("appendix.decomp.tensor")
def check_tensor_rows(ctx: Context):
    t = ctx.g7
    V = t.stack([f"V{i}" for i in range(6)])
    # V_i V_(i+d) for d = 0..3, at item 4 i + d
    products = CycArray.stack([V * V[[(i + d) % 6 for i in range(6)]] for d in range(4)])
    got = t.decompose(products.swapaxes(0, 1).reshape(24, t.classes.count))
    bad = []
    for i in range(6):
        cases = [_twist_row(i + 2, 3, 4), _twist_row(i + 4, 3, 4), _twist_row(i + 1, 3, 4), {"I": 1, "Z": 1}]
        for k, want in enumerate(cases):
            if got[4 * i + k] != want:
                bad.append(f"tensor case {k} at twist {i}")
    return _result(
        not bad,
        "all 24 displayed tensor-square decompositions reproduce exactly",
        "; ".join(bad),
    )


@declare_id("appendix.decomp.exterior")
def check_exterior_rows(ctx: Context):
    t = ctx.g7
    V = t.stack([f"V{i}" for i in range(6)])
    expected = {
        2: lambda i: _twist_row(i + 2, 3),
        3: lambda i: _twist_row(i + 1, 1, 4),
        4: lambda i: _twist_row(i + 4, 1, 4),
        5: lambda i: _twist_row(i + 5, 3),
        6: lambda i: _twist_row(i + 3, 1),
        7: lambda i: {"I": 1},
    }
    # every degree of every twist from one recursion, at item 6 (k - 2) + i
    powers = CycArray.stack(t.ext_power(V, list(expected)))
    got = t.decompose(powers.reshape(36, t.classes.count))
    bad = []
    for n, (k, exp) in enumerate(expected.items()):
        for i in range(6):
            if got[6 * n + i] != exp(i):
                bad.append(f"wedge^{k} of twist {i}")
    return _result(
        not bad,
        "all 36 displayed exterior-power rows reproduce exactly",
        "; ".join(bad),
    )


SYM_ROWS = {
    # k: (unsharped, sharped, twist shift); values verified against the
    # dimension count C(k+6,6)/7 and the involution trace
    2: (0, 4, 2),
    3: (8, 4, 1),
    4: (10, 20, 4),
    5: (38, 28, 5),
    6: (56, 76, 3),
    8: (197, 232, 0),
    9: (375, 340, 2),
    10: (544, 600, 1),
    11: (912, 856, 4),
    12: (1284, 1368, 5),
    13: (1980, 1896, 3),
}

SYM_PRINTED_DISCREPANCIES = {
    11: "printed 908/852 is dimension-inconsistent (sum 1760, C(17,6)/7 = 1768); corrected 912/856",
    12: "printed (1/2 C(18,6) -/+ 42)/7 = 1320/1332 fails the involution trace 84; the consistent reading is (1/7)(1/2 C(18,6)) -/+ 42 = 1284/1368",
    13: "printed -/+ 42 slots are transposed for odd order; corrected 1980/1896",
    14: "printed products 12*384/12*374/48*618 are inconsistent; computed 456 I + 336 S + 791 Z from exact inner products",
}


@declare_id("appendix.decomp.symmetric")
def check_symmetric_rows(ctx: Context):
    t = ctx.g7
    # S^2..S^14 of every twist from one Newton recursion, decomposed as one
    # batch: S^k of twist i at got[k][i]
    series = t.sym_power(t.stack([f"V{i}" for i in range(6)]), range(2, 15))
    decs = t.decompose(CycArray.stack(series).reshape(78, t.classes.count))
    got = {k: decs[6 * (k - 2) : 6 * (k - 1)] for k in range(2, 15)}
    bad = []
    for k, (a, b, shift) in SYM_ROWS.items():
        # independent oracles first: dimension and involution trace
        if a + b != comb(k + 6, 6) // 7:
            bad.append(f"S^{k}: frozen row fails the dimension oracle")
            continue
        trace = (-1) ** k * comb(k // 2 + 3, 3)
        if b - a != trace:
            bad.append(f"S^{k}: frozen row fails the involution trace oracle")
            continue
        for i in range(6):
            if got[k][i] != _twist_row(shift + i, a, b):
                bad.append(f"S^{k} of twist {i}")
    for k, want in ((7, {"I": 8, "S": 28, "Z": 35}), (14, {"I": 456, "S": 336, "Z": 791})):
        for i in range(6):
            if got[k][i] != want:
                bad.append(f"S^{k} of twist {i}")
    return _result(
        not bad,
        "all symmetric-power rows S^2..S^14 reproduce exactly for every twist "
        "(four printed rows corrected by the dimension and involution-trace "
        "oracles; see the companion flagged check)",
        "; ".join(bad),
    )


@declare_id("appendix.decomp.symmetric_printed_errata")
def check_symmetric_errata(ctx: Context):
    lines = [f"S^{k}: {msg}" for k, msg in sorted(SYM_PRINTED_DISCREPANCIES.items())]
    return "flagged", "printed symmetric-power values needing correction: " + " | ".join(lines)


@declare_id("appendix.decomp.omega3")
def check_omega3_rows(ctx: Context):
    from .characters import omega3_sections_char

    t = ctx.g7
    expected = {
        3: {},
        4: {"V1": 1, "V1#": 4},
        5: {"V2": 16, "V2#": 16},
        6: {"V0": 56, "V0#": 64},
        7: {"I": 24, "S": 24, "Z": 49},
        8: {"V3": 405, "V3#": 420},
        9: {"V5": 880, "V5#": 880},
        10: {"V4": 1704, "V4#": 1728},
    }
    bad = []
    for (k, want), (got, flagged) in zip(expected.items(), omega3_sections_char(list(expected))):
        if flagged or got != want:
            bad.append(f"twisted three-forms at k={k}")
    return _result(
        not bad,
        "the eight displayed section rows k=3..10 reproduce exactly via the "
        "truncated Koszul alternating sum",
        "; ".join(bad),
    )


@declare_id("appendix.decomp.sections")
def check_h0_oa_rows(ctx: Context):
    from .characters import h0_oa_decomposition

    expected = {
        1: {"V3": 1},
        2: {"V5#": 4},
        3: {"V4": 5, "V4#": 4},
        4: {"V1": 6, "V1#": 10},
        5: {"V2": 13, "V2#": 12},
        6: {"V0": 16, "V0#": 20},
        8: {"V3": 30, "V3#": 34},
        9: {"V5": 41, "V5#": 40},
        10: {"V4": 48, "V4#": 52},
        11: {"V1": 61, "V1#": 60},
        12: {"V2": 70, "V2#": 74},
        13: {"V0": 85, "V0#": 84},
    }
    bad = []
    for k, want in expected.items():
        if h0_oa_decomposition(k) != want:
            bad.append(f"k={k}")
    # rows divisible by 7: dimension and involution trace only
    for k, row, dim_want in ((7, {"I": 3, "S": 4, "Z": 7}, 343), (14, {"I": 16, "S": 12, "Z": 28}, 1372)):
        dim = row.get("I", 0) + row.get("S", 0) + 48 * row.get("Z", 0)
        tr = row.get("I", 0) - row.get("S", 0)
        want_tr = -1 if k % 2 else 4
        if dim != 7 * k * k or dim != dim_want or tr != want_tr:
            bad.append(f"k={k} consistency")
    return _result(
        not bad,
        "the fourteen section rows reproduce (k=7,14 checked for dimension "
        "7k^2 and involution trace, the split being irrecoverable from the "
        "stated invariants)",
        "; ".join(bad),
    )


SL2_PRODUCTS = {
    ("M1", "M1"): {"I": 1, "M2": 3, "L": 3, "T": 2, "W": 1, "W'": 1},
    ("M1", "M2"): {"M1": 3, "U": 2, "U'": 2, "T1": 2, "T2": 2},
    ("M2", "M2"): {"I": 1, "M2": 3, "L": 3, "T": 2, "W": 1, "W'": 1},
    ("M1", "L"): {"M1": 3, "U": 1, "U'": 1, "T1": 2, "T2": 2},
    ("M2", "L"): {"M2": 3, "L": 2, "T": 2, "W": 1, "W'": 1},
    ("M1", "U"): {"M2": 2, "L": 1, "T": 1, "W": 1},
    ("M2", "U"): {"M1": 2, "U": 1, "T1": 1, "T2": 1},
    ("M1", "U'"): {"M2": 2, "L": 1, "T": 1, "W'": 1},
    ("M2", "U'"): {"M1": 2, "U'": 1, "T1": 1, "T2": 1},
    ("M1", "T1"): {"M2": 2, "L": 2, "T": 2, "W": 1, "W'": 1},
    ("M2", "T1"): {"M1": 2, "U": 1, "U'": 1, "T1": 2, "T2": 2},
    ("M1", "T2"): {"M2": 2, "L": 2, "T": 2, "W": 1, "W'": 1},
    ("M2", "T2"): {"M1": 2, "U": 1, "U'": 1, "T1": 2, "T2": 2},
    ("M1", "T"): {"M1": 2, "U": 1, "U'": 1, "T1": 2, "T2": 2},
    ("M2", "T"): {"M2": 2, "L": 2, "T": 2, "W": 1, "W'": 1},
    ("M1", "W"): {"M1": 1, "U": 1, "T1": 1, "T2": 1},
    ("M2", "W"): {"M2": 1, "L": 1, "T": 1, "W": 1},
    ("M1", "W'"): {"M1": 1, "U'": 1, "T1": 1, "T2": 1},
    ("M2", "W'"): {"M2": 1, "L": 1, "T": 1, "W'": 1},
    ("L", "L"): {"I": 1, "M2": 2, "L": 2, "T": 2, "W": 1, "W'": 1},
    ("L", "U"): {"M1": 1, "U": 1, "U'": 1, "T1": 1, "T2": 1},
    ("L", "U'"): {"M1": 1, "U": 1, "U'": 1, "T1": 1, "T2": 1},
    ("L", "T1"): {"M1": 2, "U": 1, "U'": 1, "T1": 1, "T2": 2},
    ("L", "T2"): {"M1": 2, "U": 1, "U'": 1, "T1": 2, "T2": 1},
    ("L", "T"): {"M2": 2, "L": 2, "T": 1, "W": 1, "W'": 1},
    ("L", "W"): {"M2": 1, "L": 1, "T": 1},
    ("L", "W'"): {"M2": 1, "L": 1, "T": 1},
    ("U", "U"): {"L": 1, "T": 1, "W": 1},
    ("U", "U'"): {"I": 1, "M2": 1, "L": 1},
    ("U'", "U'"): {"L": 1, "T": 1, "W'": 1},
    ("U", "T1"): {"M2": 1, "L": 1, "T": 1, "W'": 1},
    ("U'", "T1"): {"M2": 1, "L": 1, "T": 1, "W": 1},
    ("U", "T2"): {"M2": 1, "L": 1, "T": 1, "W'": 1},
    ("U'", "T2"): {"M2": 1, "L": 1, "T": 1, "W": 1},
    ("U", "T"): {"M1": 1, "U'": 1, "T1": 1, "T2": 1},
    ("U'", "T"): {"M1": 1, "U": 1, "T1": 1, "T2": 1},
    ("U", "W"): {"T1": 1, "T2": 1},
    ("U'", "W"): {"M1": 1, "U": 1},
    ("U", "W'"): {"M1": 1, "U'": 1},
    ("U'", "W'"): {"T1": 1, "T2": 1},
    ("T1", "T1"): {"I": 1, "M2": 2, "L": 1, "T": 1, "W": 1, "W'": 1},
    ("T1", "T2"): {"M2": 2, "L": 2, "T": 1},
    ("T2", "T2"): {"I": 1, "M2": 2, "L": 1, "T": 1, "W": 1, "W'": 1},
    ("T1", "T"): {"M1": 2, "U": 1, "U'": 1, "T1": 1, "T2": 1},
    ("T2", "T"): {"M1": 2, "U": 1, "U'": 1, "T1": 1, "T2": 1},
    ("T1", "W"): {"M1": 1, "U'": 1, "T1": 1},
    ("T2", "W"): {"M1": 1, "U'": 1, "T2": 1},
    ("T1", "W'"): {"M1": 1, "U": 1, "T1": 1},
    ("T2", "W'"): {"M1": 1, "U": 1, "T2": 1},
    ("T", "T"): {"I": 1, "M2": 2, "L": 1, "T": 2},
    ("W", "W"): {"T": 1, "W'": 1},
    ("T", "W"): {"M2": 1, "L": 1, "W'": 1},
    ("W", "W'"): {"I": 1, "M2": 1},
    ("T", "W'"): {"M2": 1, "L": 1, "W": 1},
    ("W'", "W'"): {"T": 1, "W": 1},
}


@declare_id("appendix.decomp.sl2_products")
def check_sl2_products(ctx: Context):
    t = ctx.sl2
    left, right = zip(*SL2_PRODUCTS)
    decs = t.decompose(t.stack(left) * t.stack(right))
    bad = []
    for ((a, b), want), got in zip(SL2_PRODUCTS.items(), decs):
        if got.mults != {k: v for k, v in want.items()}:
            bad.append(f"{a} x {b}: got {got}")
    return _result(
        not bad,
        f"all {len(SL2_PRODUCTS)} displayed products of modular-group "
        "characters decompose exactly as printed",
        "; ".join(bad),
    )


@declare_id("appendix.decomp.plane_quartics")
def check_sym_w_rows(ctx: Context):
    t = ctx.sl2
    cases = [
        ("W", 2, {"T": 1}),
        ("W", 3, {"L": 1, "W'": 1}),
        ("W", 4, {"I": 1, "M2": 1, "T": 1}),
        ("W'", 2, {"T": 1}),
        ("W'", 3, {"L": 1, "W": 1}),
        ("W'", 4, {"I": 1, "M2": 1, "T": 1}),
    ]
    # S^2..S^4 of W and W' from one recursion, in the order of the cases
    series = t.sym_power(t.stack(["W", "W'"]), range(2, 5))
    got = t.decompose(CycArray.stack(series).swapaxes(0, 1).reshape(6, t.classes.count))
    bad = [f"S^{k} {lb}" for (lb, k, want), dec in zip(cases, got) if dec != want]
    # unique invariant quartic
    unique = got[5].mults.get("I", 0) == 1
    return _result(
        not bad and unique,
        "symmetric powers of the plane representations match; the quartic "
        "invariant line is unique (multiplicity of I in S^4 W' is 1)",
        "; ".join(bad),
    )


@declare_id("appendix.decomp.schroedinger_dual")
def check_vv_dual(ctx: Context):
    from .heisenberg import HElem, MU, NU, delta_dense

    t = ctx.g7
    V = t.stack([f"V{i}" for i in range(6)])
    got = t.decompose(V * V[:, t.power_classes(-1)])
    bad = [f"twist {i}" for i in range(6) if got[i] != {"I": 1, "Z": 1}]
    # spot traces: the trace-zero complement takes rational values on
    # normalizer sample elements (delta is the dense one)
    samples = CycArray.stack([MU.dense(), NU.dense(), delta_dense()])
    h_reps = [HElem(a, 0, 0, 0) for a in range(7)] + [HElem(0, 1, 2, 0), HElem(0, 3, 0, 0)]
    h_mats = CycArray.stack([h.matrix().dense() for h in h_reps])
    tr = (h_mats @ samples[:, None]).trace()  # [sample, h]
    val = tr * tr.galois(3) - 1  # character of the complement
    rationals = all(v.is_rational() for row in val.tolist() for v in row)
    return _result(
        not bad and rationals,
        "V tensor V-dual contains the trivial character exactly once, the "
        "complement summing all 24 two-dimensional characters; its character "
        "takes rational values on the sampled normalizer elements",
        "; ".join(bad) or "irrational complement trace",
    )


@declare_id("appendix.restrictions")
def check_restrictions(ctx: Context):
    from .heisenberg import MU, VPLUS_BASIS, restrict_to_span, restriction_matrices
    from .field import zeta

    rm = restriction_matrices()
    c0, c1 = Cyc7.from_int(0), Cyc7.from_int(1)
    isq7 = gauss_sum() * Cyc7.from_rat(Fraction(1, 7))
    ok = True
    ok &= rm["nu+"] == [[zeta(1), c0, c0], [c0, zeta(2), c0], [c0, c0, zeta(4)]]
    ok &= rm["mu+"] == [[c0, c0, c1], [c1, c0, c0], [c0, c1, c0]]
    ok &= rm["mu-"] == [
        [c1, c0, c0, c0],
        [c0, c0, c0, c1],
        [c0, c1, c0, c0],
        [c0, c0, c1, c0],
    ]
    nud = rm["nu-"]
    ok &= (
        nud[0][0] == c1
        and nud[1][1] == zeta(1)
        and nud[2][2] == zeta(2)
        and nud[3][3] == zeta(4)
    )
    lam_cycle = [[lam(1), lam(2), lam(3)], [lam(2), lam(3), lam(1)], [lam(3), lam(1), lam(2)]]
    ok &= rm["delta+"] == [[isq7 * v for v in row] for row in lam_cycle]
    dm = rm["delta-"]
    ok &= dm[0] == [isq7] * 4 and dm[1][0] == isq7 * Cyc7.from_int(2)
    ok &= dm[1][1] == isq7 * eta_const(1) and dm[2][2] == isq7 * eta_const(3) and dm[3][3] == isq7 * eta_const(2)
    # the doubling map restricts to the transpose of the displayed matrix
    mt = restrict_to_span(MU.dense(), VPLUS_BASIS)
    ok &= mt == [[c0, c1, c0], [c0, c0, c1], [c1, c0, c0]]
    return _result(
        bool(ok),
        "all six displayed eigenspace restrictions match entry for entry "
        "(the displayed permutation matrices belong to the index-halving map, "
        "the inverse of the element satisfying the conjugation relations; "
        "both restrictions are verified)",
    )


A4_TENSOR_ROWS = [
    # (parity of first factor, offset of second factor, SL2 part, twist shift)
    (0, 0, {"U'": 1, "W'": 1}, 2),
    (1, 0, {"U": 1, "W": 1}, 2),
    (0, 1, {"U": 1, "W": 1}, 4),
    (1, 1, {"U'": 1, "W'": 1}, 4),
    (0, 2, {"U": 1, "W": 1}, 1),
    (1, 2, {"U'": 1, "W'": 1}, 1),
]

A4_EXT_ROWS = [
    (2, 0, {"W'": 1}, 2),
    (3, 0, {"I": 1, "U'": 1}, 1),
    (4, 0, {"I": 1, "U": 1}, 4),
    (5, 0, {"W": 1}, 5),
    (2, 1, {"W": 1}, 2),
    (3, 1, {"I": 1, "U": 1}, 1),
    (4, 1, {"I": 1, "U'": 1}, 4),
    (5, 1, {"W'": 1}, 5),
]

A4_SYM_ROWS = [
    (2, 0, {"U'": 1}, 2),
    (3, 0, {"I": 1, "L": 1, "U": 1}, 1),
    (4, 0, {"L": 1, "W": 1, "U": 1, "U'": 1, "T1": 1, "T2": 1}, 4),
    (5, 0, {"I": 1, "M1": 1, "M2": 1, "L": 2, "U": 1, "U'": 1, "T1": 1, "T2": 1, "T": 2, "W'": 1}, 5),
]

A4_OMEGA_ROWS = {
    4: {"I": 1, "U'": 1},
    5: {"L": 1, "U'": 1, "W'": 1, "T1": 1, "T2": 1, "T": 1},
    6: {"M1": 1, "M2": 1, "L": 3, "U": 2, "W": 2, "W'": 1, "T1": 4, "T2": 4, "T": 3},
}


def _sl2_restriction_split(ctx, spec):
    """dim and (a, b) with X|G7 = a I + b S for an SL2 character sum."""
    vals = _sl2_char_sums(ctx.sl2, [spec])[0].tolist()
    dim = int(vals[0].rational_value())
    at_iota = int(vals[1].rational_value())
    a = (dim + at_iota) // 2
    b = (dim - at_iota) // 2
    return dim, a, b


@declare_id("appendix.decomp.normalizer_rows")
def check_a4_rows(ctx: Context):
    """The normalizer-level rows of N = H7 x SL2(F7).  Each tensor, wedge
    and symmetric row is checked by its dimension, by its decomposition
    restricted to the Heisenberg-involution group, and by trace equality
    at products with the normalizer samples (_a4_sample_traces); the
    three-form rows by restriction against the Koszul computation."""
    from .characters import omega3_sections_char

    # the sampled traces run first, while no batch of this check is held,
    # and report last
    ok_c, detail_c = _a4_sample_traces(ctx)
    t = ctx.g7
    V = t.stack([f"V{i}" for i in range(6)])
    bad = []

    # the tensor, wedge and symmetric rows at the twists parity, parity + 2
    # and parity + 4, decomposed as one batch; a row is (dimension failure,
    # twist failure prefix, dimension oracle, SL2 spec, shift, parity, chis)
    ext, sym = t.ext_power(V, range(6)), t.sym_power(V, range(6))
    rows = [
        (f"tensor parity {p} offset {o}: dimension", f"tensor parity {p} offset {o}", 49, spec, shift, p,
         V[p::2] * V[(np.arange(p, 6, 2) + o) % 6])
        for p, o, spec, shift in A4_TENSOR_ROWS
    ]
    rows += [(f"wedge^{k} parity {p}: dimension", f"wedge^{k}", comb(7, k), spec, shift, p, ext[k][p::2])
             for k, p, spec, shift in A4_EXT_ROWS]
    rows += [(f"S^{k} normalizer row: dimension", f"normalizer S^{k}", comb(k + 6, 6), spec, shift, p, sym[k][p::2])
             for k, p, spec, shift in A4_SYM_ROWS]
    decs = t.decompose(CycArray.stack([row[-1] for row in rows]).reshape(3 * len(rows), t.classes.count))
    for n, (dim_fail, name, dim_want, spec, shift, p, _) in enumerate(rows):
        dim, a, b = _sl2_restriction_split(ctx, spec)
        if dim * 7 != dim_want:
            bad.append(dim_fail)
            continue
        for i, got in zip(range(p, 6, 2), decs[3 * n : 3 * n + 3]):
            if got != _twist_row(i + shift, a, b):
                bad.append(f"{name} twist {i}")
    # three-form rows: restriction consistency with the Koszul computation,
    # seeded with the vanishing row at the lowest twist
    checks = {3: {}}
    for k, spec in A4_OMEGA_ROWS.items():
        dim, a, b = _sl2_restriction_split(ctx, spec)
        shift = {4: 1, 5: 2, 6: 0}[k]
        checks[k] = _twist_row(shift, a, b)
    # k = 7: (I + 2L + U + 2U' + W' + T1 + T2 + T)(I + Z) + Z
    _, a7, b7 = _sl2_restriction_split(
        ctx, {"I": 1, "L": 2, "U": 1, "U'": 2, "W'": 1, "T1": 1, "T2": 1, "T": 1}
    )
    checks[7] = {"I": a7, "S": b7, "Z": a7 + b7 + 1}
    for (k, want), (got, flagged) in zip(checks.items(), omega3_sections_char(list(checks))):
        if flagged or got != want:
            bad.append(f"three-form row k={k} restriction")
    if not ok_c:
        bad.append(detail_c)
    return _result(
        not bad,
        "all normalizer-level rows verified: dimensions, restriction to the "
        f"Heisenberg-involution group, and {detail_c}",
        "; ".join(str(b) for b in bad),
    )


def _a4_samples(ctx: Context):
    """(name, matrix, SL2(F7) class) of the normalizer sample elements, and
    the Heisenberg class reps they are multiplied with."""
    from .heisenberg import HElem, IOTA, MU, NU, MonoMat, delta_dense

    cls = ctx.sl2.classes
    samples = [
        ("id", HElem(0, 0, 0, 0).matrix().dense(), cls.index_of[(1, 0, 0, 1)]),
        ("iota", IOTA.dense(), cls.index_of[(6, 0, 0, 6)]),
        ("mu", MU.dense(), cls.index_of[(2, 0, 0, 4)]),
        ("nu", NU.dense(), cls.index_of[(1, 0, 2, 1)]),
        ("nu3", MonoMat(NU.perm, NU.sign, tuple(3 * p % 7 for p in NU.pw)).dense(), cls.index_of[(1, 0, 6, 1)]),
        ("delta", delta_dense(), cls.index_of[(0, 6, 1, 0)]),
    ]
    h_reps = [HElem(a, 0, 0, 0) for a in range(7)] + [
        HElem(0, m, n, 0) for m in range(7) for n in range(7) if (m, n) != (0, 0)
    ]
    return samples, h_reps


def _a4_power_traces(h_mats, s_mat):
    """Traces of (h s)^p for p = 1..5, batch shape (5, len(h_mats)): g, g^2
    and g^3 are formed, tr g^4 and tr g^5 are trace pairings of them."""
    g = h_mats @ s_mat
    g2 = g @ g
    g3 = g2 @ g
    return CycArray.stack([g.trace(), g2.trace(), g3.trace(), g2.trace_dot(g2), g3.trace_dot(g2)])


# samples per Newton batch in _a4_sample_traces: two batches of three keep
# the check's tracemalloc peak below that of its decompositions, where one
# batch of all six raises the scaled suite's peak by about 0.5 MB
A4_CHUNK = 3


def _a4_row_sides(h_mats, s_mats):
    """The V_j traces at the products h s, a (twist, sample, product) batch,
    and the left sides of the tensor, wedge and symmetric rows there, a
    (row, sample, product) batch in the order of the three tables.  The
    powers come from one Newton recursion per kind over the power traces of
    all the given samples."""
    from .characters import newton

    # tr (h s)^p, (power, sample, product)
    traces = CycArray.stack([_a4_power_traces(h_mats, s_mat) for s_mat in s_mats]).swapaxes(0, 1)
    vt = CycArray.stack([traces[0].galois(j) for j in range(6)])
    # power sums of the two parities' twists, (power, parity, sample, product)
    parity_sums = CycArray.stack([traces, traces.galois(1)]).swapaxes(0, 1)
    tensor = vt[[i for i, _, _, _ in A4_TENSOR_ROWS]] * vt[[(i + o) % 6 for i, o, _, _ in A4_TENSOR_ROWS]]
    ext = newton(parity_sums, alternating=True)
    sym = newton(parity_sums)
    return vt, CycArray.stack(
        [tensor[n] for n in range(len(A4_TENSOR_ROWS))]
        + [ext[k][i] for k, i, _, _ in A4_EXT_ROWS]
        + [sym[k][i] for k, i, _, _ in A4_SYM_ROWS]
    )


def _a4_sample_traces(ctx: Context):
    """Trace equality on products of Heisenberg class reps with normalizer
    sample elements, for the tensor/wedge/symmetric normalizer rows.

    The SL2 side of every row is read at the sample classes once, and taken
    out of the sqrt2 tower when no value there has a sqrt2 part.  The
    samples are taken A4_CHUNK at a time, which bounds the memory: each
    sample's products, and their powers, form one batch of power traces,
    _a4_row_sides gives the left sides of the chunk's rows, and all of them
    are compared as one batch.  The first mismatch is reported in (sample,
    row) order."""
    samples, h_reps = _a4_samples(ctx)
    h_mats = CycArray.stack([h.matrix().dense() for h in h_reps])
    # a row's right side is its SL2 value times the trace of V at its twist
    # parity + shift
    rows = [("tensor", i, spec, shift) for i, _, spec, shift in A4_TENSOR_ROWS]
    rows += [("wedge", i, spec, shift) for _, i, spec, shift in A4_EXT_ROWS]
    rows += [("symmetric", i, spec, shift) for _, i, spec, shift in A4_SYM_ROWS]
    sl2 = _sl2_char_sums(ctx.sl2, [spec for _, _, spec, _ in rows])
    sl2 = sl2[:, [s_class for _, _, s_class in samples]].lower()  # (row, sample)
    twists = [(i + shift) % 6 for _, i, _, shift in rows]
    for start in range(0, len(samples), A4_CHUNK):
        chunk = slice(start, start + A4_CHUNK)
        vt, lhs = _a4_row_sides(h_mats, [s_mat for _, s_mat, _ in samples[chunk]])
        bad = (lhs - sl2[:, chunk, None] * vt[twists]).nonzero().any(axis=-1)
        mismatches = np.argwhere(bad.T)  # (sample, row), in that order
        if len(mismatches):
            s, n = mismatches[0]
            return False, f"{rows[n][0]} trace mismatch at sample {samples[start + s][0]}"
    return True, f"trace equality on {len(rows) * len(samples) * len(h_reps)} sampled normalizer products"


# ---------------------------------------------------------------------------
# syzygy suite


@declare_id("syzygy.net_kernel")
def check_j_kernel(ctx: Context):
    from .moduli import delta_ops, f_basis
    from .poly import REG_U, coefficient_rows, kernel_of_operators, monomial_basis

    k2 = kernel_of_operators(delta_ops(), 2)
    k1 = kernel_of_operators(delta_ops(), 1)
    k_empty = kernel_of_operators([], 2, REG_U)
    f, v = f_basis()
    monos = monomial_basis(REG_U, 2)
    gens = [f[i] for i in range(7)]
    ok = (
        len(k2) == 7
        and len(k1) == 4
        and len(k_empty) == 10
        and mat_rank(coefficient_rows([*k2, *gens], monos), QQ) == 7
        and mat_rank(coefficient_rows([*gens, v[1], v[2], v[3]], monos), QQ) == 10
    )
    return _result(
        ok,
        "the annihilated quadrics form the 7-dimensional span of the seven "
        "printed generators; degree-1 kernel is everything; the complement "
        "triple completes the ten quadrics",
    )


@declare_id("syzygy.apolar_ideal")
def check_j_resolution(ctx: Context):
    from .moduli import j_ideal
    from .resolution import free_resolution

    J = j_ideal()
    bt = free_resolution(J, degree_cap=8)
    hd = J.hilbert()
    want = {(0, 0): 1, (1, 2): 7, (2, 3): 8, (2, 4): 3, (3, 5): 8, (4, 6): 3}
    ok = (
        bt.complete
        and bt.entries == want
        and hd.hf_range(0, 4) == [1, 4, 3, 0, 0]
        and bt.alternating_sums() == hd.numerator
    )
    return _result(
        ok,
        "minimal resolution (1; 7 8; 3 8 3) over Q, Hilbert function "
        "(1,4,3,0), alternating sums match the Hilbert numerator exactly",
        f"betti={sorted(bt.entries.items())}, hf={hd.hf_range(0,4)}",
    )


@declare_id("syzygy.membership")
def check_j_membership(ctx: Context):
    from .moduli import _poly, j_ideal
    from .poly import REG_U

    J = j_ideal()
    u = lambda s: _poly(s, REG_U)
    ok = (
        J.contains(u("u0^2"))
        and J.contains(u("u0^4"))
        and J.contains(u("u0^3"))
        and not J.contains(u("u2^2"))
        and not J.contains(u("u0*u1"))
    )
    return _result(
        ok,
        "normal forms certify membership: the pure square and its powers lie "
        "in the ideal (every cubic does, the quotient vanishing in degree 3), "
        "single mixed quadrics do not",
    )


@declare_id("syzygy.twisted_cubic")
def check_twisted_cubic(ctx: Context):
    from .groebner import GradedIdeal
    from .moduli import delta_criterion, AlphaMatrix, _poly
    from .poly import REG_U
    from .resolution import free_resolution, hb_minors, hilbert_burch

    u = lambda s: _poly(s, REG_U)
    gens = [u("u1*u2"), u("u2*u3"), u("u3*u1")]
    I = GradedIdeal(REG_U, QQ, gens)
    bt = free_resolution(I)
    hd = I.hilbert()
    mat = hilbert_burch(gens)
    minors = hb_minors(mat)
    from .poly import coefficient_rows, monomial_basis

    monos = monomial_basis(REG_U, 2)
    round_trip = (
        mat_rank(coefficient_rows(minors, monos), QQ) == 3
        and mat_rank(coefficient_rows([*minors, *gens], monos), QQ) == 3
    )
    alpha = AlphaMatrix.from_entries([[mat[i, 0], mat[i, 1]] for i in range(3)])
    ok = (
        bt.entries == {(0, 0): 1, (1, 2): 3, (2, 3): 2}
        and hd.hf_range(1, 4) == [4, 7, 10, 13]
        and hd.degree == 3
        and hd.dim == 2
        and round_trip
        and delta_criterion(alpha)
    )
    return _result(
        ok,
        "the equational curve: resolution (1; 3 2), Hilbert function 3d+1, "
        "degree 3, syzygy matrix round trip regenerates the ideal, and the "
        "syzygy columns satisfy the net criterion",
    )


# the ring of the plane-cubic-union-point fixture
REG_W = VarRegistry(["w", "x", "y", "z"])


@declare_id("syzygy.plane_cubic_point")
def check_fixture_betti(ctx: Context):
    from .groebner import GradedIdeal
    from .moduli import _poly
    from .resolution import free_resolution, intersect

    w = lambda s: _poly(s, REG_W)
    A = GradedIdeal(REG_W, QQ, [w("w"), w("x^3+y^3+z^3")])
    B = GradedIdeal(REG_W, QQ, [w("x"), w("y"), w("z")])
    C = intersect(A, B)
    bt = free_resolution(C)
    want = {(0, 0): 1, (1, 2): 3, (1, 3): 1, (2, 3): 3, (2, 4): 1, (3, 4): 1}
    idem = intersect(A, A)
    same = sorted(str(g) for g in idem.gens) == sorted(str(g) for g in A.gens)
    ok = bt.entries == want and same
    return _result(
        ok,
        "the plane-cubic-union-point fixture resolves as (1; 3 3 1; 1 1) via "
        "block-order intersection; intersection is idempotent",
        f"betti={sorted(bt.entries.items())}",
    )


@declare_id("syzygy.common_factor_reject")
def check_hb_reject(ctx: Context):
    from .moduli import _poly
    from .poly import REG_U
    from .resolution import NotHilbertBurch, hilbert_burch

    u = lambda s: _poly(s, REG_U)
    try:
        hilbert_burch([u("u0*u1"), u("u0*u2"), u("u0*u3")])
    except NotHilbertBurch as exc:
        return "pass", f"common-linear-factor fixture rejected: {exc}"
    return "fail", "dependent-minors fixture was accepted"


@declare_id("syzygy.pfaffian_square")
def check_pfaffian_det(ctx: Context):
    from .formmat import FormMatrix, det_form, pfaffian
    from .poly import REG_Y, Poly, linear_form

    rng = random.Random(ctx.config.seed + 101)
    ok = True
    for size in (2, 4, 6):
        z = Poly.zero(REG_Y, QQ)
        e = [[z] * size for _ in range(size)]
        for i in range(size):
            for j in range(i + 1, size):
                l = linear_form(REG_Y, [Fraction(rng.randint(-4, 4)) for _ in range(3)])
                e[i][j] = l
                e[j][i] = -l
        m = FormMatrix(e)
        pf = pfaffian(m)
        ok &= pf * pf == det_form(m)
    return _result(
        bool(ok),
        "squared Pfaffians equal determinants on seeded alternating matrices "
        "of sizes 2, 4, 6",
    )


@declare_id("syzygy.field_agreement")
def check_q_vs_fp(ctx: Context):
    from .groebner import GradedIdeal
    from .moduli import j_ideal
    from .poly import REG_U
    from .resolution import free_resolution

    J = j_ideal()
    dom = ctx.config.resolution_domain()
    if dom is QQ:
        dom = fp(31)
    default = dom.p == 31
    Jp = GradedIdeal(REG_U, dom, [g.map_coeffs(dom.coerce, dom) for g in J.gens])
    bq = free_resolution(J)
    bp = free_resolution(Jp)
    if bq.entries == bp.entries:
        return (
            "pass",
            f"Betti tables over Q and over {'the default prime field' if default else dom.name} "
            "agree on the apolar-ideal fixture",
        )
    return (
        "flagged",
        f"semicontinuity proxy disagrees: Q gives {sorted(bq.entries.items())}, "
        f"{'prime field' if default else dom.name} gives {sorted(bp.entries.items())}",
    )


# ---------------------------------------------------------------------------
# moduli suite


@declare_id("moduli.wedge_vectors")
def check_wedge(ctx: Context):
    from .moduli import Wedge3, wedge_reps

    reps, comp = wedge_reps()
    ok = all(r.check_shift_consistency() for r in reps.values())
    ok &= reps[0].entries[0] == Wedge3.term(1, 4, 2) + (-Wedge3.term(6, 3, 5))
    ok &= reps[1].entries[0] == Wedge3.term(0, 1, 6)
    ok &= reps[2].entries[0] == Wedge3.term(0, 2, 5)
    ok &= reps[3].entries[0] == Wedge3.term(0, 4, 3)
    ok &= comp[0] == Wedge3.term(1, 4, 2) + Wedge3.term(6, 3, 5)
    return _result(
        bool(ok),
        "the four equivariant wedge vectors and the invariant complement "
        "line match the displays, with shift-equivariant entries",
    )


@declare_id("moduli.composition_matrices")
def check_b_matrices(ctx: Context):
    from .moduli import composition_table_report

    fails = composition_table_report()
    return _result(
        not fails,
        "all sixteen wedge compositions match: three displayed matrices with "
        "their sign relations, commutativity, and the seven vanishing pairs",
        "; ".join(fails),
    )


@declare_id("moduli.block_rank_probe")
def check_b_rank_probe(ctx: Context):
    from .moduli import block_ranks

    rng = random.Random(ctx.config.seed + 7)
    ok = True
    trials = 0
    for _ in range(6):
        l = [Fraction(rng.randint(-9, 9)) for _ in range(4)]
        if not any(l):
            continue
        for r in block_ranks(l):
            if r not in (0, 6):
                ok = False
            trials += 1
    return _result(
        ok,
        f"each nonzero block combination has rank exactly 6 at the probe "
        f"point (1..7); {trials} blocks sampled",
    )


@declare_id("moduli.annihilation_equivalence")
def check_delta_equivalence(ctx: Context):
    from .moduli import (
        AlphaMatrix,
        alpha_compose,
        alpha_compose_is_zero,
        alpha_t,
        delta_criterion,
    )

    rng = random.Random(ctx.config.seed)
    mismatches = 0
    zero_cases = 0
    n = ctx.config.random_alphas
    for k in range(n):
        coeffs = [
            [[Fraction(rng.randint(-5, 5)) for _ in range(4)] for _ in range(2)]
            for _ in range(3)
        ]
        a = AlphaMatrix.from_coeffs(coeffs)
        z1 = alpha_compose_is_zero(alpha_compose(a))
        z2 = delta_criterion(a)
        if z1 != z2:
            mismatches += 1
        if z1:
            zero_cases += 1
    pipeline = [alpha_t(S.t) for S in ctx.surfaces()[:5]]
    for a in pipeline:
        if not (alpha_compose_is_zero(alpha_compose(a)) and delta_criterion(a)):
            mismatches += 1
    # constructed annihilated case and the zero matrix
    from .poly import Poly, REG_U

    zero_alpha = AlphaMatrix.from_entries([[Poly.zero(REG_U, QQ)] * 2 for _ in range(3)])
    if not (alpha_compose_is_zero(alpha_compose(zero_alpha)) and delta_criterion(zero_alpha)):
        mismatches += 1
    return _result(
        mismatches == 0,
        f"composition vanishing and the net criterion agree on {n} seeded "
        f"matrices ({zero_cases} generically zero), the pipeline matrices, "
        "and the degenerate zero matrix",
        f"{mismatches} discrepancies",
    )


@declare_id("moduli.parametrization_point")
def check_psi(ctx: Context):
    from .moduli import psi

    p = psi((1, 1, 1, 1))
    row = [Fraction(v) for v in (-1, 2, -1, 0, 1, -1, 0)]
    ok = p.rows[0] == row and p.rank() == 3
    ok &= psi((1, 0, 0, 0)).rank() < 3
    return _result(
        bool(ok),
        "first row at the all-ones point is (-1,2,-1,0,1,-1,0) with full "
        "rank; the point (1:0:0:0) is rank-deficient",
    )


@declare_id("moduli.net_membership")
def check_eta_membership(ctx: Context):
    from .moduli import equational_point, grass_membership, GrassPoint

    ok, vals = grass_membership(equational_point())
    if not ok:
        return "fail", "equational point fails"
    surfaces = ctx.surfaces()
    for S in surfaces:
        if S.degenerate or not grass_membership(S.plane)[0]:
            return "fail", f"parametrized point at t={_point(S.t)} fails"
    rng = random.Random(ctx.config.seed + 13)
    negatives = 0
    for _ in range(5):
        rows = [[Fraction(rng.randint(-9, 9)) for _ in range(7)] for _ in range(3)]
        p = GrassPoint(rows)
        if p.rank() == 3:
            got, _ = grass_membership(p)
            if not got:
                negatives += 1
    return _result(
        negatives > 0,
        f"the equational point and {len(surfaces)} parametrized points satisfy all "
        f"nine contraction conditions; {negatives}/5 seeded random planes "
        "fail them (generic failure witnessed)",
        "random planes unexpectedly all satisfied the conditions",
    )


@declare_id("moduli.family_matrix")
def check_alpha_family(ctx: Context):
    from .moduli import (
        DegenerateParameter,
        alpha_t,
        delta_criterion,
        minor_span_pairing,
    )
    from .resolution import NotHilbertBurch, hilbert_burch

    pairings = set()
    for S in ctx.surfaces()[:8]:
        a = alpha_t(S.t)
        if not delta_criterion(a):
            return "fail", f"net criterion fails at t={_point(S.t)}"
        pairings.add(minor_span_pairing(a, S.plane))
        try:
            mat = hilbert_burch(a.minors())
        except NotHilbertBurch as exc:
            return "fail", f"round trip fails at t={_point(S.t)}: {exc}"
    try:
        alpha_t((1, 0, 0, 0))
        return "fail", "degenerate parameter accepted"
    except DegenerateParameter:
        pass
    ok = pairings == {"generator-list-order"}
    return _result(
        ok,
        "minor spans match the parametrization rows under the net-kernel "
        "generator enumeration (the display enumeration transposes the two "
        "mixed-square quadrics); round trips succeed; (1:0:0:0) rejected",
        f"pairings observed: {pairings}",
    )


@declare_id("moduli.plane_quartic")
def check_klein_suite(ctx: Context):
    from .moduli import (
        epsilon_identity_report,
        klein_invariance_report,
        net_discriminant_ratio,
        pfaffian_apolarity_report,
    )

    inv = klein_invariance_report()
    pa = pfaffian_apolarity_report()
    ratio = net_discriminant_ratio()
    eps = epsilon_identity_report()
    ok = (
        all(inv.values())
        and pa["annihilates"]
        and pa["kernel_dim"] == 7
        and pa["same_span"]
        and pa["gorenstein_symmetric"]
        and ratio is not None
        and all(eps.values())
    )
    return _result(
        ok,
        "the quartic is invariant under all three restricted generators; the "
        "seven principal sub-Pfaffians annihilate it and span the full "
        "7-dimensional cubic kernel (quotient Hilbert function "
        f"{pa['quotient_hf'][:5]}, Gorenstein-symmetric); the net "
        f"discriminant is {ratio} times the quartic; the tangent-direction "
        "power-sum identity holds over the dual numbers",
        f"invariance={inv}, apolarity={pa}, ratio={ratio}, eps={eps}",
    )


@declare_id("moduli.invariant_cubics")
def check_d_vector(ctx: Context):
    from .heisenberg import TAU
    from .moduli import _poly, d_vector
    from .poly import REG_X

    d = d_vector()
    x = lambda s: _poly(s, REG_X)
    expected = [
        x("x0*x3*x4"),
        x("x0*x1*x6"),
        x("x0*x2*x5"),
        x("x2^2*x3+x5^2*x4"),
        x("x1^2*x5+x6^2*x2"),
        x("x4^2*x6+x3^2*x1"),
        x("x1*x2*x4+x3*x5*x6-x0^3"),
    ]
    ok = d == expected
    # tau's sign-free action keeps an invariant cubic whole in phase 0
    ok = ok and all(TAU.conj().act(p.terms) == [p.terms] + [{}] * 6 for p in d)
    return _result(
        bool(ok),
        "all seven phase-invariant cubics match the classical display (one "
        "variant display prints a degree-six fourth entry; homogeneity and "
        "phase invariance force the degree-three form used here) and are "
        "exactly phase-invariant",
    )


@declare_id("moduli.surface_pipeline")
def check_surface_pipeline(ctx: Context):
    from .groebner import hilbert_data
    from .moduli import grass_membership
    from .poly import REG_U, coefficient_rows, monomial_basis
    from .resolution import NotHilbertBurch, hb_minors, hilbert_burch

    # independence, stability and the character 3 V4 follow from the rank
    cert = ctx.span_certificate()
    failures = [cert] if cert else []
    surfaces = ctx.surfaces()
    for S in surfaces:
        t = S.t
        if S.degenerate:
            failures.append(f"t={_point(t)}: span dimension != 21")
            continue
        # a run complete through degree 4 has leading terms generating in(I) there
        ideal = S.ideal()
        hf = hilbert_data(ideal.level_one(4)[0].leading_exponents, ideal.reg.n).hf_range(1, 4)
        if hf != [7, 28, 63, 112]:
            failures.append(f"t={_point(t)}: quotient dimensions {hf}")
            continue
        okm, _ = grass_membership(S.plane)
        if not okm:
            failures.append(f"t={_point(t)}: net membership")
            continue
        quadrics = S.plane.quadrics()
        try:
            mat = hilbert_burch(quadrics)
        except NotHilbertBurch as exc:
            failures.append(f"t={_point(t)}: curve shape: {exc}")
            continue
        rows = coefficient_rows([*hb_minors(mat), *quadrics], monomial_basis(REG_U, 2))
        if mat_rank(rows, QQ) != 3:
            failures.append(f"t={_point(t)}: round trip span")
    return _result(
        not failures,
        f"at all {len(surfaces)} seeded admissible parameters: 21 independent cubics, "
        "quotient dimensions (7,28,63,112) [no quadrics], stable span with "
        "character 3 V4, net membership, curve resolutions of shape (1; 3 2) "
        "with round trips",
        "; ".join(failures[:4]) + (" ..." if len(failures) > 4 else ""),
    )


@declare_id("moduli.surface_resolution")
def check_surface_betti(ctx: Context):
    from .resolution import free_resolution

    base = ctx.config.resolution_domain()
    S = ctx.surfaces()[0]
    dom, why = S.domain(base)
    moved = f" (over {dom.name}, {why})" if why else ""
    ideal = S.ideal(dom)
    hd = ideal.hilbert()
    want_numerator = {0: 1, 3: -21, 4: 49, 5: -42, 6: 14, 7: -1}
    if hd.numerator != want_numerator:
        return (
            "fail",
            f"Hilbert numerator {sorted(hd.numerator.items())} differs from "
            "the expected alternating sums" + moved,
        )
    bt = free_resolution(ideal, degree_cap=ctx.config.resolution_degree_cap())
    want = {(0, 0): 1, (1, 3): 21, (2, 4): 49, (3, 5): 42, (4, 6): 14, (4, 7): 1, (5, 7): 2}
    if bt.alternating_sums() != hd.numerator:
        return "fail", "resolution alternating sums disagree with the Hilbert numerator" + moved
    if not bt.complete:
        return (
            "flagged",
            f"budget exhausted ({bt.note}); partial table "
            f"{sorted(bt.entries.items())} is consistent with the Hilbert "
            "numerator alternating sums" + moved,
        )
    cross = ""
    if dom is not QQ:
        bq = free_resolution(S.ideal(QQ), degree_cap=ctx.config.resolution_degree_cap())
        if bq.complete and bq.entries != bt.entries:
            return (
                "flagged",
                "prime-field and rational Betti tables disagree "
                f"(semicontinuity proxy): fp {sorted(bt.entries.items())} vs "
                f"Q {sorted(bq.entries.items())}" + moved,
            )
        cross = "; the rational-coefficient run gives the same table"
    ok = bt.entries == want
    return _result(
        ok,
        "minimal free resolution of the surface ideal matches the published "
        "table exactly: 21, 49, 42, 14, 2 in the cubic strand plus the lone "
        "degree-7 generator in homological position 4; alternating sums "
        "match the Hilbert numerator" + cross + moved,
        f"betti={sorted(bt.entries.items())}" + moved,
    )


@declare_id("moduli.surface_stability")
def check_surface_stability(ctx: Context):
    # the certificate makes every span of 21 independent cubics stable, and
    # the cubics are independent exactly when rank psi(t) = 3
    cert = ctx.span_certificate()
    failures = [cert] if cert else []
    failures += [f"t={_point(S.t)}: basis is linearly dependent" for S in ctx.surfaces() if S.degenerate]
    return _result(
        not failures,
        "the 21-dimensional cubic spans are stable under the shift, phase "
        "and involution substitutions at the sampled parameters",
        "; ".join(failures),
    )


# ---------------------------------------------------------------------------
# running suites and the report


def run_suite(suite: str, config: RunConfig = None) -> dict:
    """Run a suite of SUITES, or 'all' of them; an unknown suite raises
    ValueError before any check runs."""
    config = config or RunConfig()
    if suite == "all":
        fns = [fn for checks in SUITES.values() for fn in checks]
    elif suite in SUITES:
        fns = SUITES[suite]
    else:
        raise ValueError(f"unknown suite {suite!r}")
    ctx = Context(config)
    results = []
    for fn in fns:
        t0 = time.monotonic()
        try:
            res = fn(ctx)
        except Exception as exc:  # a crash is a failed check, not a crash run
            res = CheckResult(fn.check_id, "fail", f"unhandled error: {exc}")
        elapsed = int((time.monotonic() - t0) * 1000)
        res.ms = elapsed if config.timing else 0
        results.append(res)
    results.sort(key=lambda r: r.id)
    summary = {
        "pass": sum(1 for r in results if r.status == "pass"),
        "fail": sum(1 for r in results if r.status == "fail"),
        "flagged": sum(1 for r in results if r.status == "flagged"),
    }
    return {
        "schema": SCHEMA,
        "version": __version__,
        "seed": config.seed,
        "config": {
            "coeff": config.coeff,
            "budget_degree": config.budget_degree,
            "suite": suite,
            "timing": config.timing,
            **({} if config.extra_t is None else {"extra_t": [str(x) for x in config.extra_t]}),
        },
        "checks": [r.to_json() for r in results],
        "summary": summary,
    }


def report_to_text(report: dict) -> str:
    lines = [
        f"{report['schema']} version {report['version']} seed {report['seed']} "
        f"suite {report['config']['suite']} coeff {report['config']['coeff']}"
    ]
    for c in report["checks"]:
        mark = {"pass": "ok", "fail": "FAIL", "flagged": "flag"}[c["status"]]
        lines.append(f"[{mark:>4}] {c['id']}: {c['details']}")
    s = report["summary"]
    lines.append(f"summary: {s['pass']} pass, {s['fail']} fail, {s['flagged']} flagged")
    return "\n".join(lines)


def report_json_bytes(report: dict) -> bytes:
    return (json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n").encode()
