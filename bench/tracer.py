"""Per-layer tracing of pal from outside its source.

`Tracer.install` replaces public functions of pal's modules by wrappers:
at the module attribute, at every name another pal module imported it
under, and at the class attribute for methods.  The wrappers keep spans
(name, start, end, parent) in memory and per-name call counts, total and
self times.  Self time is a span's duration minus the time its child spans
cover.  Only the traced run installs them; pal's source is not edited.

Three weights of wrapper keep the overhead bounded: field multiplication and
Frobenius are counted only (tens of millions of calls), rref, mat_inv and
meet are timed but keep no span record (hundreds of thousands), and the
layer functions above them keep a span record each.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import Counter, defaultdict
from math import comb

# (metric, unit, better): every per-layer metric the traced run prints.
# Suffixes: .calls counts calls, .s is inclusive seconds, .self_s is self
# seconds; the rest are counts derived from arguments and results.
METRICS = [
    ("fields.mul.calls", "count", "lower"),
    ("fields.frobenius.calls", "count", "lower"),
    ("projective.rref.calls", "count", "lower"),
    ("projective.rref.s", "s", "lower"),
    ("projective.mat_inv.calls", "count", "lower"),
    ("projective.meet.calls", "count", "lower"),
    ("projective.points.count", "count", "lower"),
    ("pseudoarcs.verify_pseudo_arc.s", "s", "lower"),
    ("pseudoarcs.verify_pseudo_arc.triples", "count", "lower"),
    ("pseudoarcs.tangent_spaces.s", "s", "lower"),
    ("pseudoarcs.extend_to_hyperoval.s", "s", "lower"),
    ("reduction.reduce_arc.self_s", "s", "lower"),
    ("reduction.rational_orbit_span.calls", "count", "lower"),
    ("spreads.regulus_through.calls", "count", "lower"),
    ("spreads.regulus_through.s", "s", "lower"),
    ("spreads.reguli_distinct_ratio", "ratio", "higher"),
    ("spreads.is_regular_spread.s", "s", "lower"),
    ("spreads.is_regular_spread.checked_triples", "count", "lower"),
    ("spreads.verify_spread.calls", "count", "lower"),
    ("spreads.verify_spread.s", "s", "lower"),
    ("spreads.dual_arc.s", "s", "lower"),
    ("sigma.recognize_regular.s", "s", "lower"),
    ("sigma.build_sigma.s", "s", "lower"),
    ("sigma.spread_transversals.s", "s", "lower"),
    ("sigma.plane_model.s", "s", "lower"),
    ("theorems.check_theorem.s", "s", "lower"),
    ("theorems.regulus_blocks.s", "s", "lower"),
    ("theorems.check_design.s", "s", "lower"),
    ("io.save.s", "s", "lower"),
    ("io.save.bytes", "bytes", "lower"),
    ("io.load.s", "s", "lower"),
    ("cli.construct.s", "s", "lower"),
    ("cli.verify.s", "s", "lower"),
    ("cli.derive.s", "s", "lower"),
    ("cli.theorem.s", "s", "lower"),
    ("cli.design.s", "s", "lower"),
    ("trace.run_s", "s", "lower"),
]

COUNT, POINTS, HOT, SPAN = "count", "points", "hot", "span"


def _triples_swept(args, report) -> int:
    """Triples verify_pseudo_arc tested: all of them, or up to its witness."""
    k = len(args[1])
    if report.ok:
        return comb(k, 3)
    if report.witness_triple is None:
        return 0
    i, j, l = report.witness_triple
    before = sum(comb(k - 1 - x, 2) for x in range(i))
    before += sum(k - 1 - y for y in range(i + 1, j))
    return before + (l - j - 1) + 1


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.t0 = self.clock()
        self.stack: list[list] = []   # [child seconds, nearest recorded span id]
        self.spans: list = []         # (name, start, end, parent id)
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.hits: dict[str, list[int]] = {}
        self.reguli_seen: set = set()

    # -- wrappers ---------------------------------------------------------

    def _counted(self, name, fn):
        cell = self.hits.setdefault(name, [0])

        def wrapper(*args):
            cell[0] += 1
            return fn(*args)
        return wrapper

    def _timed(self, name, fn, record: bool, after=None):
        stack, spans, clock = self.stack, self.spans, self.clock
        calls, total, self_s = self.calls, self.total, self.self_s

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_id = parent[1] if parent else -1
            sid = len(spans) if record else parent_id
            if record:
                spans.append(None)
            frame = [0.0, sid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                calls[name] += 1
                total[name] += dur
                self_s[name] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                if record:
                    spans[sid] = (name, start - self.t0, end - self.t0, parent_id)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def _points(self, fn):
        counts = self.counts

        def wrapper(*args):
            result = fn(*args)
            counts["projective.points.count"] += len(result)
            return result
        return wrapper

    # -- hooks that derive counts from arguments and results ---------------

    def _after_verify_arc(self, args, report):
        self.counts["pseudoarcs.verify_pseudo_arc.triples"] += _triples_swept(args, report)

    def _after_regular(self, args, report):
        self.counts["spreads.is_regular_spread.checked_triples"] += report.checked_triples

    def _after_regulus(self, args, reg):
        key = reg.element_set()
        if key not in self.reguli_seen:
            self.reguli_seen.add(key)
            self.counts["spreads.reguli_distinct"] += 1

    def _after_save(self, args, result):
        self.counts["io.save.bytes"] += os.path.getsize(args[0])

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap pal's layer functions in every pal module that names them."""
        mods = {name: importlib.import_module(f"pal.{name}") for name in
                ("fields", "projective", "pseudoarcs", "reduction", "spreads",
                 "sigma", "theorems", "io")}
        targets = [
            ("fields", "FiniteField.mul", COUNT, None),
            ("fields", "FieldTower.frobenius", COUNT, None),
            ("projective", "rref", HOT, None),
            ("projective", "mat_inv", HOT, None),
            ("projective", "meet", HOT, None),
            ("projective", "ProjSpace.points", POINTS, None),
            ("projective", "Subspace.points", POINTS, None),
            ("projective", "Subspace.point_vectors", POINTS, None),
            ("pseudoarcs", "verify_pseudo_arc", SPAN, self._after_verify_arc),
            ("pseudoarcs", "tangent_spaces", SPAN, None),
            ("pseudoarcs", "extend_to_hyperoval", SPAN, None),
            ("reduction", "ReductionMap.reduce_arc", SPAN, None),
            ("reduction", "rational_orbit_span", SPAN, None),
            ("spreads", "regulus_through", SPAN, self._after_regulus),
            ("spreads", "is_regular_spread", SPAN, self._after_regular),
            ("spreads", "verify_spread", SPAN, None),
            ("spreads", "dual_arc", SPAN, None),
            ("sigma", "recognize_regular", SPAN, None),
            ("sigma", "build_sigma", SPAN, None),
            ("sigma", "spread_transversals", SPAN, None),
            ("sigma", "plane_model", SPAN, None),
            ("theorems", "check_theorem", SPAN, None),
            ("theorems", "regulus_blocks", SPAN, None),
            ("theorems", "check_design", SPAN, None),
            ("io", "save", SPAN, self._after_save),
            ("io", "load", SPAN, None),
        ]
        pal_mods = [m for n, m in sys.modules.items()
                    if n == "pal" or n.startswith("pal.")]
        for mod_name, attr, weight, after in targets:
            owner_name, _, fn_name = attr.rpartition(".")
            metric = f"{mod_name}.{fn_name}"
            owner = getattr(mods[mod_name], owner_name) if owner_name else mods[mod_name]
            orig = vars(owner)[fn_name]
            if weight == COUNT:
                wrapper = self._counted(metric, orig)
            elif weight == POINTS:
                wrapper = self._points(orig)
            else:
                wrapper = self._timed(metric, orig, weight == SPAN, after)
            if owner_name:
                setattr(owner, fn_name, wrapper)
                continue
            for mod in pal_mods:
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, name, wrapper)

    # -- operations and rounds ----------------------------------------------

    def op(self, kind: str, fn, arg):
        """Run one benchmark operation as a root span named after its kind."""
        self.reguli_seen.clear()
        return self._timed(kind, fn, True)(arg)

    def reset(self) -> None:
        """Start the per-layer aggregates of a new round; spans are kept."""
        for cell in self.hits.values():
            cell[0] = 0
        self.calls.clear()
        self.total.clear()
        self.self_s.clear()
        self.counts.clear()

    def metrics(self, run_s: float) -> dict[str, float]:
        """The per-layer values of the round since the last reset."""
        calls = Counter(self.calls)
        calls.update({name: cell[0] for name, cell in self.hits.items()})
        out = {}
        for name, _, _ in METRICS:
            base, _, kind = name.rpartition(".")
            if name == "trace.run_s":
                value = run_s
            elif name == "spreads.reguli_distinct_ratio":
                made = calls["spreads.regulus_through"]
                value = self.counts["spreads.reguli_distinct"] / made if made else 0.0
            elif kind == "calls":
                value = calls[base]
            elif kind == "s":
                value = self.total[base]
            elif kind == "self_s":
                value = self.self_s[base]
            else:
                value = self.counts[name]
            out[name] = value
        return out

    def write(self, path) -> None:
        """Write every recorded span as one JSON line: id, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": round(start, 7),
                                     "end": round(end, 7), "parent": parent}) + "\n")
