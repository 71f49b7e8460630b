"""pal command line: construct, verify, derive, dualize and check.

Exit codes: 0 pass, 1 fail with witness, 2 invalid input, 3 theorem
inconsistent, 4 out of hypothesis.  All outputs are pal-v1 JSON with
deterministic ordering.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import io
from .fields import FieldTower, field_make, gf
from .planearcs import conic, translation_oval, verify_karc
from .projective import ProjSpace, plane_line_codes
from .pseudoarcs import (PseudoArc, extend_to_hyperoval, nucleus, tangent_spaces,
                         verify_pseudo_arc)
from .reduction import reduction_map
from .sigma import (NotRegularError, plane_model, recognize_regular,
                    spread_transversals)
from .spreads import (derive_spread_from_element, derive_spread_from_nucleus,
                      dual_arc, is_regular_spread, opposite_regulus,
                      regularity_reports, regulus_through, sweep_mode,
                      verify_spread)
from .theorems import (THEOREMS, DesignSpec, TheoremParams, check_design, check_theorem,
                       lines_design, regulus_blocks, spread_reguli_design)

DEFAULT_CAP = 64

PASS, FAIL, INVALID, INCONSISTENT, OUT_OF_HYP = 0, 1, 2, 3, 4


def _report(kind: str, payload: dict) -> dict:
    return {"schema": io.SCHEMA, "kind": kind, **payload}


def _emit(args, obj: dict) -> None:
    if getattr(args, "output", None):
        io.save(args.output, obj)
    else:
        sys.stdout.write(io.dumps(obj))


def _load_arc(path) -> PseudoArc:
    return io.pseudo_arc_from_json(io.load(path, "pseudo-arc"))


def _index_list(text: str | None) -> tuple[int, ...] | None:
    """A comma-separated list of integers, '' being the empty list; None
    when an item is not an integer."""
    try:
        return tuple(int(x) for x in text.split(",")) if text else ()
    except ValueError:
        return None


# -- construct ------------------------------------------------------------------


def cmd_construct(args) -> int:
    q, n = args.q, args.n
    if q < 2 or n < 1:
        print(f"error: construct needs q >= 2 and n >= 1, got q={q}, n={n}", file=sys.stderr)
        return INVALID
    if q & (q - 1):
        print(f"error: q={q} is not a power of two", file=sys.stderr)
        return INVALID
    if q**n > DEFAULT_CAP and not args.force:
        print(f"error: q^n = {q ** n} exceeds the cap {DEFAULT_CAP} (use --force)",
              file=sys.stderr)
        return INVALID
    source = args.source
    extend = False
    if source.startswith("hyperoval-from:"):
        extend = True
        source = source[len("hyperoval-from:"):]
    if source == "conic":
        plane = conic(q**n)
    elif source.startswith("translation:"):
        exponent = source.split(":", 1)[1]
        try:
            k = int(exponent)
        except ValueError:
            raise ValueError(f"bad translation exponent {exponent!r}") from None
        plane = translation_oval(q**n, k)
    else:
        print(f"error: unknown source {args.source!r}", file=sys.stderr)
        return INVALID
    arc = reduction_map(q, n).reduce_arc(plane)
    if extend:
        arc = extend_to_hyperoval(arc)
    io.save(args.output, io.pseudo_arc_to_json(arc))
    print(f"wrote {arc.kind} with {len(arc)} elements of PG({3 * n - 1}, {q}) "
          f"to {args.output}")
    return PASS


# -- verify ---------------------------------------------------------------------


def cmd_verify(args) -> int:
    obj = io.load(args.input)
    kind = io.kind_of(obj)
    if kind == "plane-arc":
        rep = verify_karc(*io.plane_arc_items(obj))
        out = _report("verify-report", {
            "input_kind": kind, "ok": rep.ok, "k": rep.k, "max_k": rep.max_k,
            "witness": None if rep.collinear_witness is None
            else {"kind": "collinear-triple", "indices": list(rep.collinear_witness)},
            "reason": rep.reason})
    elif kind == "pseudo-arc":
        rep = verify_pseudo_arc(*io.pseudo_arc_items(obj))
        out = _report("verify-report", {
            "input_kind": kind, "ok": rep.ok, "k": rep.k, "n": rep.n,
            "max_k": rep.max_k,
            "witness": None if rep.witness_triple is None
            else {"kind": "non-spanning-triple", "indices": list(rep.witness_triple)},
            "reason": rep.reason})
    elif kind == "spread":
        spread = io.spread_from_json(obj)
        rep = verify_spread(spread)
        out = _report("verify-report", {
            "input_kind": kind, "ok": rep.ok, "count": rep.count,
            "expected": rep.expected, "witness": rep.witness, "reason": rep.reason})
    else:
        print(f"error: cannot verify kind {kind!r}", file=sys.stderr)
        return INVALID
    _emit(args, out)
    return PASS if rep.ok else FAIL


# -- tangents ---------------------------------------------------------------------


def cmd_tangents(args) -> int:
    arc = _load_arc(args.input)
    taus = tangent_spaces(arc)
    payload = {"ok": True, "count": len(taus),
               "tangents": [io.subspace_to_json(t) for t in taus],
               "nucleus": None}
    if arc.q % 2 == 0:
        payload["nucleus"] = io.subspace_to_json(nucleus(arc))
    _emit(args, _report("tangents-report", payload))
    return PASS


# -- derive -----------------------------------------------------------------------


def cmd_derive(args) -> int:
    if args.index is not None and args.all:
        # --all already derives spread I; both would derive it twice
        print("error: choose --index or --all, not both", file=sys.stderr)
        return INVALID
    arc = _load_arc(args.input)
    jobs: list[tuple[str, object]] = []
    if args.nucleus or (args.all and arc.kind == "pseudo-oval"):
        jobs.append(("nucleus", None))
    if args.index is not None:
        jobs.append((f"{args.index}", args.index))
    if args.all:
        jobs.extend((f"{i}", i) for i in range(len(arc.elements)))
    if not jobs:
        print("error: choose --index, --all or --nucleus", file=sys.stderr)
        return INVALID
    # derive every spread before writing: the derive functions raise on a
    # refused job and on a spread that fails verification
    spreads = [derive_spread_from_nucleus(arc) if idx is None
               else derive_spread_from_element(arc, idx) for _, idx in jobs]
    outdir = Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise io.PalFileError(f"cannot write {outdir}: {err}") from None

    entries = []
    for (name, _), spread, rr in zip(jobs, spreads, regularity_reports(spreads)):
        path = outdir / f"delta_{name}.json"
        io.save(path, io.spread_to_json(spread))
        entries.append({"index": name, "file": str(path), "spread_ok": True,
                        "regular": rr.regular, "vacuous": rr.vacuous,
                        "witness": rr.witness})
        print(f"delta[{name}]: spread=ok "
              f"regular={'yes' if rr.regular else 'NO'}"
              f"{' (vacuous q=2)' if rr.vacuous else ''}")
    io.save(outdir / "derive_report.json",
            _report("derive-report", {"ok": True, "spreads": entries}))
    return PASS


# -- dualize -----------------------------------------------------------------------


def cmd_dualize(args) -> int:
    arc = _load_arc(args.input)
    da = dual_arc(arc)
    gammas = [{"index": i, "spread": io.spread_to_json(g),
               "regular": rr.regular, "vacuous": rr.vacuous}
              for i, (g, rr) in enumerate(zip(da.gammas, regularity_reports(da.gammas)))]
    out = _report("dual-arc", {
        "betas": [io.subspace_to_json(b) for b in da.betas],
        "gammas": gammas,
        "extended": len(da.arc.elements) != len(arc.elements)})
    _emit(args, out)
    return PASS


# -- regulus -----------------------------------------------------------------------


def cmd_regulus(args) -> int:
    spread = io.spread_from_json(io.load(args.input, "spread"))
    idx = _index_list(args.elements) or ()
    if len(idx) != 3 or not all(0 <= i < len(spread) for i in idx):
        print(f"error: bad element indices {args.elements!r}", file=sys.stderr)
        return INVALID
    reg = regulus_through(*(spread.elements[i] for i in idx))
    contained = reg.element_set() <= spread.element_set()
    out = io.regulus_to_json(reg)
    out["contained_in_spread"] = contained
    if args.opposite:
        out["opposite"] = io.regulus_to_json(opposite_regulus(reg))
    _emit(args, out)
    return PASS


# -- check-regular ------------------------------------------------------------------


def cmd_check_regular(args) -> int:
    spread = io.spread_from_json(io.load(args.input, "spread"))
    sr = verify_spread(spread)
    if not sr.ok:
        _emit(args, _report("regularity-report",
                            {"ok": False, "spread_ok": False, "witness": sr.witness,
                             "reason": sr.reason}))
        return FAIL
    rr = is_regular_spread(spread, mode=args.mode)
    payload = {"ok": rr.regular, "spread_ok": True, "regular": rr.regular,
               "vacuous": rr.vacuous, "mode": rr.mode,
               "checked_triples": rr.checked_triples, "witness": rr.witness,
               "reason": rr.reason, "transversals": None}
    if args.transversals:
        n = spread.elements[0].rank
        fld = spread.space.field
        try:
            tower = FieldTower(fld, field_make(fld.m * n))
            # the transversals read the 'auto' report: rr when the modes agree
            auto = rr if rr.mode == sweep_mode(spread) else None
            lines = spread_transversals(spread, tower, auto)
            payload["transversals"] = {
                "ok": True, "lines": [io.subspace_to_json(u) for u in lines]}
        except NotRegularError as err:
            payload["transversals"] = {
                "ok": False, "reason": str(err),
                "witness": err.witness}
            payload["ok"] = False
    _emit(args, _report("regularity-report", payload))
    return PASS if payload["ok"] else FAIL


# -- theorem ------------------------------------------------------------------------


def cmd_theorem(args) -> int:
    arc = _load_arc(args.input)
    given = None if args.given is None else _index_list(args.given)
    if args.given is not None and given is None:
        print(f"error: bad --given indices {args.given!r}", file=sys.stderr)
        return INVALID
    params = TheoremParams(args.id, rho=args.rho, delta0=args.delta0, given=given)
    rep = check_theorem(arc, params)
    out = _report("theorem-report", {
        "theorem": rep.theorem, "hypothesis": rep.hypothesis,
        "spreads": rep.spreads, "forward": rep.forward,
        "converse": rep.converse, "recognition": rep.recognition,
        "verdict": rep.verdict})
    _emit(args, out)
    print(f"theorem {rep.theorem}: {rep.verdict} "
          f"(forward={rep.forward}, converse={rep.converse})")
    return rep.exit_code()


# -- design -------------------------------------------------------------------------


def _pg2_lines_design(q: int) -> DesignSpec:
    space = ProjSpace(2, gf(q))
    index = {space.encode(p.coords): i for i, p in enumerate(space.points())}
    lines = sorted(tuple(sorted(map(index.__getitem__, codes)))
                   for codes in plane_line_codes(space))
    return lines_design(range(len(index)), lines)


def cmd_design(args) -> int:
    if args.exceptions is not None and args.spread_reguli is None:
        print("error: --exceptions applies only to --spread-reguli", file=sys.stderr)
        return INVALID
    if args.check is not None:
        spec = io.design_from_json(io.load(args.check, "design"))
    elif args.pg2_lines is not None:
        spec = _pg2_lines_design(args.pg2_lines)
    elif args.spread_reguli is not None:
        spread = io.spread_from_json(io.load(args.spread_reguli, "spread"))
        exc = _index_list(args.exceptions)
        if exc is None or not all(0 <= x < len(spread) for x in exc):
            print(f"error: bad --exceptions indices {args.exceptions!r}", file=sys.stderr)
            return INVALID
        spec = spread_reguli_design(spread, exc)
    elif args.plane_model_from is not None:
        arc = _load_arc(args.plane_model_from)
        res = recognize_regular(arc)
        if not res.regular:
            print("error: arc was not recognized as regular", file=sys.stderr)
            return FAIL
        model = plane_model(res.scaffold)
        spec = lines_design(range(len(model.spread.elements)), model.members)
    else:
        # the source group is required, so --dual-blocks is the one left
        spec = regulus_blocks(dual_arc(_load_arc(args.dual_blocks)))
    rep = check_design(spec)
    out = _report("design-report", {
        "ok": rep.ok, "t": spec.t, "v": spec.v, "k": spec.k, "lambda": spec.lam,
        "blocks": len(spec.blocks),
        "exceptions": sorted(spec.exceptions),
        "multiplicities": {str(m): c for m, c in sorted(rep.multiplicities.items())},
        "witness": rep.witness, "reason": rep.reason,
        "design": io.design_to_json(spec) if args.save_design else None})
    _emit(args, out)
    print(f"design {spec.t}-({spec.v},{spec.k},{spec.lam}): "
          f"{'valid' if rep.ok else 'NOT valid'}; "
          f"multiplicities {out['multiplicities']}")
    if args.tabulate:
        return PASS
    return PASS if rep.ok else FAIL


# -- report -------------------------------------------------------------------------


def cmd_report(args) -> int:
    print("\n".join(io.summary(io.load(args.input))))
    return PASS


# -- parser -------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="pal",
                                 description="pseudo-arc construction and checks")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a pseudo-arc by field reduction")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--source", required=True,
                   help="conic | translation:K | hyperoval-from:<source>")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--force", action="store_true")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("verify", help="verify an arc or spread file")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("tangents", help="tangent spaces and nucleus of a pseudo-oval")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_tangents)

    p = sub.add_parser("derive", help="derived spreads of a pseudo-arc")
    p.add_argument("input")
    p.add_argument("--index", type=int)
    p.add_argument("--all", action="store_true")
    p.add_argument("--nucleus", action="store_true")
    p.add_argument("--outdir", default=".")
    p.set_defaults(fn=cmd_derive)

    p = sub.add_parser("dualize", help="dual arc with its Gamma spreads")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_dualize)

    p = sub.add_parser("regulus", help="regulus through three spread elements")
    p.add_argument("input")
    p.add_argument("--elements", required=True, help="comma-separated indices")
    p.add_argument("--opposite", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_regulus)

    p = sub.add_parser("check-regular", help="regulus-closure regularity test")
    p.add_argument("input")
    p.add_argument("--mode", choices=("auto", "full", "fixed"), default="auto")
    p.add_argument("--transversals", action="store_true",
                   help="cross-check via extension transversal lines")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_check_regular)

    p = sub.add_parser("theorem", help="run a characterization-theorem check")
    p.add_argument("--id", required=True, choices=THEOREMS)
    p.add_argument("--rho", type=int)
    p.add_argument("--delta0", type=int, default=0)
    p.add_argument("--given", help="comma-separated indices of given spreads")
    p.add_argument("input")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_theorem)

    p = sub.add_parser("design", help="incidence-structure checks")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--check", help="a pal-v1 design file")
    src.add_argument("--pg2-lines", type=int, metavar="Q",
                     help="points/lines of PG(2, Q)")
    src.add_argument("--spread-reguli", metavar="SPREAD",
                     help="reguli of a regular spread as blocks")
    src.add_argument("--plane-model-from", metavar="ARC",
                     help="plane model of the spread generated from an arc")
    src.add_argument("--dual-blocks", metavar="ARC",
                     help="regulus blocks of the dual arc (tabulation)")
    p.add_argument("--exceptions", help="comma-separated exception points (Q set)")
    p.add_argument("--tabulate", action="store_true",
                   help="report multiplicities without failing")
    p.add_argument("--save-design", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=cmd_design)

    p = sub.add_parser("report", help="summarize any pal-v1 file")
    p.add_argument("input")
    p.set_defaults(fn=cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    # io.PalFileError, NotRegularError and every rejected argument are
    # ValueErrors: exit 2 with one line, never a traceback
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return INVALID


if __name__ == "__main__":
    sys.exit(main())
