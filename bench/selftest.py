"""Self-test of the benchmark: its checks catch wrong outputs, its traces repeat.

    python3 bench/selftest.py

Run it from the root of a checkout.  It runs one round of every workload and
confirms the checks pass; then, for every check, plants a wrong output (a
spread with one line moved, a flipped verdict, a spanning "witness" triple,
...) and confirms that the check fails.  Last, it runs every workload traced
twice and confirms the per-layer counts agree (exactly, but for
io.save.bytes, see SAVE_BYTES_SLACK), and that BENCHMARK.json names the
metrics the runs print.  Exits 1 on any miss; takes under two minutes.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import subprocess
import sys

import run
from tracer import METRICS
from workloads import (CheckFailed, RejectQ4Q8, ReduceQ4N3, TheoremQ4N2, check_constructed,
                       check_derived, check_dual_blocks, check_exit_codes, check_hall,
                       check_near_miss, check_partition, check_plane_model,
                       check_recovered_arc, check_spanning, check_theorem_report,
                       check_verify_report, conic_points, rows_of)
import gf2

missed: list[str] = []


def planted(name: str, fn, *args) -> None:
    """fn(*args) must raise CheckFailed on the planted output."""
    try:
        fn(*args)
    except CheckFailed:
        print(f"ok    {name}")
        return
    print(f"MISS  {name}: the check accepted a wrong output")
    missed.append(name)


def one_round(cls, pal):
    state = cls(pal, 7, run.OUT)
    outputs, failed, _ = run.run_round(state, None)
    if failed:
        raise SystemExit(f"{cls.__name__}: {failed} operations failed")
    state.check(outputs)
    print(f"ok    {cls.__name__}: checks pass on pal's outputs")
    return state, outputs


def theorem_plants(pal) -> None:
    state, outputs = one_round(TheoremQ4N2, pal)
    f4 = gf2.Field(0b111)
    tower = gf2.Tower(0b111, 0b10011)
    plane = conic_points(tower.top)
    oval, hyper = state._load("oval.json"), state._load("hyper.json")
    try:
        codes = [code for code, _ in outputs]
        planted("exit code of theorem 6.2 flipped", check_exit_codes,
                codes[:5] + [3] + codes[6:], [0] * len(codes))
        swapped = copy.deepcopy(oval)
        els = swapped["elements"]
        els[0], els[1] = els[1], els[0]
        planted("oval elements swapped", check_constructed, f4, tower, plane, swapped, hyper)
        planted("verify report flipped", check_verify_report,
                dict(json.loads(outputs[2][1]), ok=False), 18)
        report = state._load("deltas/derive_report.json")
        spreads = [state._load(f"deltas/delta_{i}.json") for i in range(18)]
        moved = copy.deepcopy(spreads)
        lines = moved[5]["elements"]
        lines[0]["rows"] = [lines[0]["rows"][0], lines[1]["rows"][0]]
        planted("derived spread with one line moved", check_derived, f4, report, moved)
        flipped = copy.deepcopy(report)
        flipped["spreads"][3]["regular"] = False
        planted("derived spread reported non-regular", check_derived, f4, flipped, spreads)
        t61 = state._load("t61.json")
        planted("theorem verdict flipped", check_theorem_report, dict(t61, verdict="inconsistent"))
        planted("theorem converse failed", check_theorem_report, dict(t61, converse="fail"))
        planted("recovered arc with a point moved", check_recovered_arc,
                plane[:-1] + [(0, 1, 0)], plane)
        model = copy.deepcopy(state._load("plane_model.json"))
        block = model["design"]["blocks"][0]
        block[0] = next(x for x in range(273) if x not in block)
        planted("plane model block with a point moved", check_plane_model, model)
        blocks = copy.deepcopy(state._load("dual_blocks.json"))
        blocks["design"]["blocks"][0] = blocks["design"]["blocks"][0][:5]
        planted("dual block with five members", check_dual_blocks, blocks)
    finally:
        state.close()


def reduce_plants(pal) -> None:
    state, outputs = one_round(ReduceQ4N3, pal)
    conic, trans, taus, nuc, hyper, spread, report = outputs
    els = list(conic.elements)
    els[3], els[4] = els[4], els[3]
    cases = {
        "n=3 arc elements swapped": (dataclasses.replace(conic, elements=tuple(els)),
                                     trans, taus, nuc, hyper, spread, report),
        "n=3 arc of the wrong kind": (dataclasses.replace(trans, kind="generalized-arc"),
                                      trans, taus, nuc, hyper, spread, report),
        "nucleus replaced by an arc element": (conic, trans, taus, conic.elements[0],
                                               hyper, spread, report),
        "tangent spaces swapped": (conic, trans, taus[1:2] + taus[:1] + taus[2:], nuc,
                                   hyper, spread, report),
        "extension element replaced": (
            conic, trans, taus, nuc,
            dataclasses.replace(hyper, elements=hyper.elements[:65] + conic.elements[:1]),
            spread, report),
        "derived spread reported invalid": (conic, trans, taus, nuc, hyper, spread,
                                            dataclasses.replace(report, ok=False)),
        "derived spread with a repeated element": (
            conic, trans, taus, nuc, hyper,
            dataclasses.replace(spread, elements=spread.elements[1:2] + spread.elements[1:]),
            report),
    }
    for name, bad in cases.items():
        planted(name, state.check, list(bad))
    rows = [rows_of(e) for e in conic.elements]
    rows[2] = rows[1]
    planted("sampled triple that does not span", check_spanning, gf2.Field(0b111), 9,
            rows, [(0, 1, 2)], "arc")


def reject_plants(pal) -> None:
    state, outputs = one_round(RejectQ4Q8, pal)
    hall = next(i for i, (kind, _, _) in enumerate(state.ops) if kind == "hall")
    near = next(i for i, (kind, _, _) in enumerate(state.ops) if kind == "near-miss")
    spread = state.ops[hall][2][0]
    sr, rr, raised = outputs[hall]
    f = gf2.Field(0b111 if spread.space.field.order == 4 else 0b1011)
    lines = [rows_of(e) for e in spread.elements]
    owner = {pt: tuple(lines[i]) for pt, i in check_partition(f, 4, lines, "Hall").items()}
    moved = list(lines)
    moved[0] = [lines[0][0], lines[1][0]]
    planted("Hall spread with one line moved", check_partition, f, 4, moved, "Hall")
    planted("Hall spread reported invalid", check_hall, f, lines, owner,
            dataclasses.replace(sr, ok=False), rr, raised)
    planted("Hall spread reported regular", check_hall, f, lines, owner, sr,
            dataclasses.replace(rr, regular=True, witness=None), raised)
    inside = dict(rr.witness, missing_element=[list(r) for r in lines[0]])
    planted("missing element inside the spread", check_hall, f, lines, owner, sr,
            dataclasses.replace(rr, witness=inside), raised)
    missing = [tuple(r) for r in rr.witness["missing_element"]]
    meets = next(i for i in range(len(lines)) if gf2.rank(f, missing + lines[i]) < 4)
    touching = dict(rr.witness, triple=[meets] + rr.witness["triple"][1:])
    planted("witness line meeting the missing element", check_hall, f, lines, owner, sr,
            dataclasses.replace(rr, witness=touching), raised)
    planted("transversals accepted a Hall spread", check_hall, f, lines, owner, sr, rr, False)
    space, elements = state.ops[near][2]
    f = gf2.Field(0b111 if space.field.order == 4 else 0b1011)
    rows = [rows_of(e) for e in elements]
    report = outputs[near]
    planted("near-miss reported as an arc", check_near_miss, f, rows,
            dataclasses.replace(report, ok=True, witness_triple=None))
    spanning = next(t for t in [(1, 2, 3), (2, 3, 4), (3, 4, 5)]
                    if gf2.rank(f, [r for i in t for r in rows[i]]) == 6)
    planted("spanning witness triple", check_near_miss, f, rows,
            dataclasses.replace(report, witness_triple=spanning))


# io.save.bytes varies with the digits of the "seconds" field that each of
# the two theorem reports of theorem-q4n2 carries (a known fault of pal, see
# CHANGES.md); every other count must repeat exactly.
SAVE_BYTES_SLACK = 8


def traced_counts(workload: str) -> dict:
    out = subprocess.run([sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                          "--seed", "7", "--seconds", "0", "--trace", "1"],
                         capture_output=True, text=True, check=True)
    metrics = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()
            if not name.endswith(".s") and not name.endswith("_s")}


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    run.OUT.mkdir(exist_ok=True)
    for plants in (theorem_plants, reduce_plants, reject_plants):
        plants(run.fresh_pal())
    for workload in ("theorem-q4n2", "reduce-q4n3", "reject-q4q8"):
        first, second = traced_counts(workload), traced_counts(workload)
        slack = abs(first.pop("io.save.bytes") - second.pop("io.save.bytes"))
        if first == second and slack <= SAVE_BYTES_SLACK:
            print(f"ok    {workload}: two traced runs give identical counts "
                  f"(io.save.bytes within {slack} bytes)")
        else:
            diff = sorted(k for k in first if first[k] != second.get(k))
            print(f"MISS  {workload}: traced counts differ in {diff}, "
                  f"io.save.bytes by {slack}")
            missed.append(workload)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if listed != METRICS or [m["name"] for m in spec["end_to_end"]] != \
            ["setup_s", "run_s", "peak_rss_mb"]:
        print("MISS  BENCHMARK.json does not list the metrics the runs print")
        missed.append("BENCHMARK.json")
    print(f"{'FAILED: ' + ', '.join(missed) if missed else 'all self-tests passed'}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
