"""Run one benchmark workload of pal and print its metrics as one JSON line.

    python3 bench/run.py --workload theorem-q4n2 --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: pal is imported from ./src and nowhere
else.  The run sets up its inputs SETUP_REPEATS times, each time after a
fresh import of pal, then repeats whole rounds of the workload's operations
until the rounds add up to --seconds.  Every round must reproduce the
outputs of the first; the outputs of the last are checked after the peak
resident set is read.

--trace 0 prints the end-to-end metrics: setup_s (median set-up), run_s
(median round) and peak_rss_mb.  --trace 1 wraps pal's layer functions
(see tracer.py), prints the per-layer metrics (medians over rounds) and
writes the first round's spans to bench/out/trace-<workload>-<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_REPEATS = 5

from tracer import METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402


def fresh_pal():
    """Import pal from scratch, so every set-up pays for the import."""
    for name in [n for n in sys.modules if n == "pal" or n.startswith("pal.")]:
        del sys.modules[name]
    return importlib.import_module("pal")


def run_round(state, tracer):
    """Run every operation once; returns (outputs, failed, seconds)."""
    outputs, failed = [], 0
    start = time.perf_counter()
    for kind, fn, arg in state.ops:
        try:
            outputs.append(tracer.op(kind, fn, arg) if tracer else fn(arg))
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc()
            outputs.append(None)
            failed += 1
    return outputs, failed, time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pal" / "__init__.py").is_file():
        print(f"error: no pal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.pop("PAL_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)

    setup_s, state = [], None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            state.close()
        gc.collect()
        start = time.perf_counter()
        state = WORKLOADS[args.workload](fresh_pal(), args.seed, OUT)
        setup_s.append(time.perf_counter() - start)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    round_s, layers, attempted, failed = [], [], 0, 0
    correct, reference = True, None
    try:
        while not round_s or sum(round_s) < args.seconds:
            outputs = None  # the rounds' live data must not add up
            state.reset()
            gc.collect()
            if tracer:
                tracer.reset()
            outputs, n_failed, seconds = run_round(state, tracer)
            round_s.append(seconds)
            attempted += len(state.ops)
            failed += n_failed
            if tracer:
                layers.append(tracer.metrics(seconds))
                if len(layers) == 1:
                    first = len(tracer.spans)
                del tracer.spans[first:]  # only the first round's spans are written
            if n_failed:
                correct = False
                continue
            digest = state.digest(outputs)
            if reference is None:
                reference = digest
            elif digest != reference:
                print("check failed: a round differs from the first", file=sys.stderr)
                correct = False
        # the checks' own tables must not count as pal's memory
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if correct:  # the last round reproduced the first, so checking it checks both
            try:
                state.check(outputs)
            except CheckFailed as err:
                print(f"check failed: {err}", file=sys.stderr)
                correct = False
            except Exception:  # an output of unexpected shape is wrong too
                traceback.print_exc()
                correct = False
        if tracer:
            del tracer.spans[first:]  # calls the checks made
    finally:
        state.close()

    if tracer:
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
        metrics = {name: {"value": statistics.median(l[name] for l in layers), "unit": unit}
                   for name, unit, _ in METRICS}
    else:
        metrics = {"setup_s": {"value": statistics.median(setup_s), "unit": "s"},
                   "run_s": {"value": statistics.median(round_s), "unit": "s"},
                   "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"}}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
