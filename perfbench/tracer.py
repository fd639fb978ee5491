"""In-memory span tracer that wraps heis7's public functions from outside.

Nothing under src/ is edited: `Tracer.install` replaces each traced function
at every place its name is bound (module globals, class attributes and the
check lists in `heis7.checks.SUITES`), because many modules bind
`from .x import y` at import time.  `Tracer.uninstall` puts the originals
back.

Three kinds of wrapper:

* span    -- one record (name, start, end, parent, op id) per call, kept in
             memory; self time is the span's duration minus the time its
             child spans and timed counters cover.
* timed   -- call count plus time, no record (FormMatrix operators).
* count   -- call count only (field arithmetic and Poly.__mul__, which run
             hundreds of thousands of times per surface point).
"""

from __future__ import annotations

import functools
import importlib
from hostclock import now

SPAN, TIMED, COUNT = "span", "timed", "count"

HEIS7_MODULES = (
    "field", "poly", "linalg", "formmat", "heisenberg", "characters",
    "groebner", "resolution", "moduli", "checks", "cli",
)

# (trace name, defining module, attribute path, kind)
TARGETS = [
    ("field.cyc7_mul", "field", "Cyc7.__mul__", COUNT),
    ("field.fieldelem_mul", "field", "FieldElem.__mul__", COUNT),
    ("field.cyc7_inv", "field", "Cyc7.inv", COUNT),
    ("field.fieldelem_inv", "field", "FieldElem.inv", COUNT),
    ("poly.mul", "poly", "Poly.__mul__", COUNT),
    ("poly.substitute", "poly", "Poly.substitute", SPAN),
    ("poly.diffop_apply", "poly", "DiffOp.apply", SPAN),
    ("linalg.rref", "linalg", "rref", SPAN),
    ("linalg.rank", "linalg", "rank", SPAN),
    ("linalg.np_rank", "linalg", "np_rank", SPAN),
    ("formmat.add", "formmat", "FormMatrix.__add__", TIMED),
    ("formmat.sub", "formmat", "FormMatrix.__sub__", TIMED),
    ("formmat.scale", "formmat", "FormMatrix.scale", TIMED),
    ("formmat.is_zero", "formmat", "FormMatrix.is_zero", TIMED),
    ("formmat.det_form", "formmat", "det_form", SPAN),
    ("formmat.pfaffian", "formmat", "pfaffian", SPAN),
    ("formmat.pfaffian_vector", "formmat", "pfaffian_vector", SPAN),
    ("heisenberg.build_heisenberg", "heisenberg", "build_heisenberg", SPAN),
    ("heisenberg.conjugacy_classes_g7", "heisenberg", "conjugacy_classes_g7", SPAN),
    ("heisenberg.restriction_matrices", "heisenberg", "restriction_matrices", SPAN),
    ("characters.g7_table", "characters", "g7_table", SPAN),
    ("characters.sl2_table", "characters", "sl2_table", SPAN),
    ("characters.subspace_character", "characters", "subspace_character", SPAN),
    ("characters.spansolver_trace", "characters", "SpanSolver.trace", SPAN),
    ("characters.spansolver_stable", "characters", "SpanSolver.is_stable_under", SPAN),
    ("characters.sym_power", "characters", "CharTable.sym_power", SPAN),
    ("characters.ext_power", "characters", "CharTable.ext_power", SPAN),
    ("characters.decompose", "characters", "CharTable.decompose", SPAN),
    ("groebner.buchberger", "groebner", "buchberger", SPAN),
    ("groebner.normal_form", "groebner", "normal_form", COUNT),
    ("groebner.hilbert_data", "groebner", "hilbert_data", SPAN),
    ("groebner.ideal_hf_oracle", "groebner", "ideal_hf_oracle", SPAN),
    ("resolution.free_resolution", "resolution", "free_resolution", SPAN),
    ("resolution.modulegb_add_input", "resolution", "ModuleGB.add_input", SPAN),
    ("resolution.modulegb_process_pairs", "resolution", "ModuleGB.process_pairs_through", SPAN),
    ("resolution.hilbert_burch", "resolution", "hilbert_burch", SPAN),
    ("moduli.alpha_compose", "moduli", "alpha_compose", SPAN),
    ("moduli.delta_criterion", "moduli", "delta_criterion", SPAN),
    ("moduli.alpha_t", "moduli", "alpha_t", SPAN),
    ("moduli.surface_ideal", "moduli", "surface_ideal", SPAN),
    ("moduli.grass_membership", "moduli", "grass_membership", SPAN),
]


def heis7_modules():
    return [importlib.import_module("heis7")] + [
        importlib.import_module(f"heis7.{m}") for m in HEIS7_MODULES
    ]


class Tracer:
    def __init__(self):
        self.records = []  # [name, start, end, parent record index, op id]
        self.calls = {}
        self.self_s = {}
        self.incl_s = {}
        self.extra = {"linalg.rref.max_cells": 0, "resolution.modulegb.pairs_processed": 0}
        self.binding_sites = {}
        self.op = -1
        self._open = []  # record indices of the open spans
        self._cover = [0.0]  # child-covered time of each open span, plus a root slot
        self._patched = []  # (owner, attribute or list index, original)
        self._cells = []  # (name, [count]) of the counting wrappers

    # -- aggregation ----------------------------------------------------

    def _account(self, name, dur, child):
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        self.incl_s[name] = self.incl_s.get(name, 0.0) + dur

    # -- wrappers -------------------------------------------------------

    def _span(self, name, fn, pre=None, post=None, rename=None):
        records, open_, cover = self.records, self._open, self._cover

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = pre(args) if pre else None
            rec = [name, 0.0, 0.0, open_[-1] if open_ else -1, self.op]
            records.append(rec)
            open_.append(len(records) - 1)
            cover.append(0.0)
            result = None
            t0 = now()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = now()
                open_.pop()
                child = cover.pop()
                cover[-1] += t1 - t0
                rec[1], rec[2] = t0, t1
                if rename is not None and result is not None:
                    rec[0] = rename(result)
                self._account(rec[0], t1 - t0, child)
                if post:
                    post(state, args)

        return wrapper

    def _timed(self, name, fn):
        cover = self._cover

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = now() - t0
                cover[-1] += dur
                self._account(name, dur, 0.0)

        return wrapper

    def _count(self, name, fn):
        cell = [0]
        self._cells.append((name, cell))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _rref_cells(self, args):
        rows = args[0]
        width = len(rows[0]) if rows else 0
        cells = len(rows) * width
        if cells > self.extra["linalg.rref.max_cells"]:
            self.extra["linalg.rref.max_cells"] = cells

    def _pairs_before(self, args):
        return args[0].pairs_processed

    def _pairs_after(self, before, args):
        self.extra["resolution.modulegb.pairs_processed"] += args[0].pairs_processed - before

    # -- installation ---------------------------------------------------

    def install(self):
        """Wrap every target at every binding site; idempotent per tracer."""
        if self._patched:
            return
        mods = heis7_modules()
        classes = {
            id(v): v
            for m in mods
            for v in vars(m).values()
            if isinstance(v, type) and v.__module__.startswith("heis7")
        }
        owners = mods + list(classes.values())
        for name, mod, path, kind in TARGETS:
            owner = importlib.import_module(f"heis7.{mod}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            if kind == SPAN:
                pre = post = None
                if name == "linalg.rref":
                    pre = self._rref_cells
                elif name == "resolution.modulegb_process_pairs":
                    pre, post = self._pairs_before, self._pairs_after
                wrapper = self._span(name, original, pre, post)
            elif kind == TIMED:
                wrapper = self._timed(name, original)
            else:
                wrapper = self._count(name, original)
            sites = 0
            for o in owners:
                for key, value in list(vars(o).items()):
                    if value is original:
                        setattr(o, key, wrapper)
                        self._patched.append((o, key, original))
                        sites += 1
            self.binding_sites[name] = sites
        checks = importlib.import_module("heis7.checks")
        for fns in checks.SUITES.values():
            for i, fn in enumerate(fns):
                fns[i] = self._span(
                    f"checks.{fn.__name__}", fn, rename=lambda res: f"checks.check.{res.id}"
                )
                self._patched.append((fns, i, fn))
        self.binding_sites["checks.check"] = sum(len(f) for f in checks.SUITES.values())

    def uninstall(self):
        for owner, key, original in reversed(self._patched):
            if isinstance(owner, list):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched = []
        for name, cell in self._cells:
            self.calls[name] = self.calls.get(name, 0) + cell[0]
        self._cells = []

    # -- output ---------------------------------------------------------

    def summary(self):
        """Per-name calls, self and inclusive seconds (after uninstall)."""
        out = {}
        for name in set(self.calls) | set(self.self_s):
            out[name] = {
                "calls": self.calls.get(name, 0),
                "self_s": self.self_s.get(name, 0.0),
                "incl_s": self.incl_s.get(name, 0.0),
            }
        return out

    def layer_self_s(self, layer):
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)
