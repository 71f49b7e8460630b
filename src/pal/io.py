"""pal-v1 JSON serialization.

Every file is a JSON object with a "schema" tag ("pal-v1") and a "kind".
Field elements are integer codes, subspaces are canonical RREF row lists,
and writes are byte-deterministic (sorted keys, fixed indentation), so
read(write(x)) round-trips byte-identically.
"""

from __future__ import annotations

import json
from pathlib import Path

from .fields import FieldTower, FiniteField
from .planearcs import PlaneArc, make_arc
from .projective import ProjSpace, Subspace
from .pseudoarcs import PseudoArc, make_pseudo_arc
from .reduction import ReductionMap
from .spreads import Regulus, Spread
from .theorems import DesignSpec

SCHEMA = "pal-v1"


class PalFileError(ValueError):
    """Malformed or mistyped pal-v1 file."""


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def save(path, obj: dict) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8")


def load(path, expect_kind: str | None = None) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise PalFileError(f"cannot read {path}: {err}") from None
    return load_obj(text, expect_kind, where=str(path))


def load_obj(text: str, expect_kind: str | None = None, where: str = "input") -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise PalFileError(f"cannot parse {where}: {err}") from None
    if not isinstance(obj, dict) or obj.get("schema") != SCHEMA:
        raise PalFileError(f"{where} is not a {SCHEMA} file")
    if expect_kind is not None and obj.get("kind") != expect_kind:
        raise PalFileError(f"{where} holds kind {obj.get('kind')!r}, "
                           f"expected {expect_kind!r}")
    return obj


def _need(obj: dict, *keys):
    for key in keys:
        if key not in obj:
            raise PalFileError(f"missing field {key!r}")
    return [obj[k] for k in keys]


# -- fields -------------------------------------------------------------------


def field_to_json(field: FiniteField) -> dict:
    return {"p": field.p, "m": field.m, "modulus_bits": field.modulus}


def field_from_json(obj: dict) -> FiniteField:
    p, m = _need(obj, "p", "m")
    modulus = obj.get("modulus_bits")
    try:
        return FiniteField(p, m, modulus)
    except ValueError as err:
        raise PalFileError(f"bad field spec: {err}") from None


def tower_to_json(tower: FieldTower) -> dict:
    return {"base": field_to_json(tower.base), "top": field_to_json(tower.top),
            "n": tower.n}


def tower_from_json(obj: dict) -> FieldTower:
    base, top, n = _need(obj, "base", "top", "n")
    tower = FieldTower(field_from_json(base), field_from_json(top))
    if tower.n != n:
        raise PalFileError(f"tower degree mismatch: {tower.n} != {n}")
    return tower


# -- subspaces ----------------------------------------------------------------


def subspace_to_json(sub: Subspace) -> dict:
    return {"ambient_dim": sub.ambient.dim, "rows": [list(r) for r in sub.rows]}


def subspace_from_json(obj: dict, space: ProjSpace) -> Subspace:
    dim, rows = _need(obj, "ambient_dim", "rows")
    if dim != space.dim:
        raise PalFileError(f"subspace ambient dim {dim} != {space.dim}")
    for row in rows:
        if len(row) != space.dim + 1:
            raise PalFileError("subspace row of wrong length")
        for x in row:
            space.field.check(x)
    sub = space.subspace([tuple(r) for r in rows])
    if [list(r) for r in sub.rows] != rows:
        raise PalFileError("subspace rows are not in canonical form")
    return sub


# -- arcs ---------------------------------------------------------------------


def plane_arc_to_json(arc: PlaneArc) -> dict:
    return {"schema": SCHEMA, "kind": "plane-arc",
            "field": field_to_json(arc.field),
            "points": [list(p.coords) for p in arc.points],
            "arc_kind": arc.kind}


def plane_arc_from_json(obj: dict) -> PlaneArc:
    fld = field_from_json(_need(obj, "field")[0])
    space = ProjSpace(2, fld)
    pts = [tuple(p) for p in obj["points"]]
    try:
        arc = make_arc(space, pts)
    except ValueError as err:
        raise PalFileError(f"plane arc failed verification: {err}") from None
    return arc


def pseudo_arc_to_json(arc: PseudoArc) -> dict:
    return {"schema": SCHEMA, "kind": "pseudo-arc",
            "field": field_to_json(arc.ambient.field),
            "n": arc.n,
            "elements": [subspace_to_json(e) for e in arc.elements],
            "arc_kind": arc.kind,
            "witness": arc.witness}


def pseudo_arc_from_json(obj: dict) -> PseudoArc:
    fld = field_from_json(_need(obj, "field")[0])
    n, elements = _need(obj, "n", "elements")
    space = ProjSpace(3 * n - 1, fld)
    subs = [subspace_from_json(e, space) for e in elements]
    try:
        arc = make_pseudo_arc(space, subs, obj.get("witness"))
    except ValueError as err:
        raise PalFileError(f"pseudo-arc failed verification: {err}") from None
    if arc.kind != obj.get("arc_kind"):
        raise PalFileError(f"arc kind {arc.kind!r} != declared {obj.get('arc_kind')!r}")
    return arc


# -- spreads and reguli ---------------------------------------------------------


def spread_to_json(spread: Spread) -> dict:
    out = {"schema": SCHEMA, "kind": "spread",
           "field": field_to_json(spread.space.field),
           "ambient_dim": spread.space.dim,
           "elements": [subspace_to_json(e) for e in spread.elements],
           "origin": spread.origin,
           "carrier": None}
    if spread.carrier is not None:
        out["carrier"] = {"ambient_dim": spread.carrier.ambient.dim,
                          "rows": [list(r) for r in spread.carrier.rows]}
    return out


def spread_from_json(obj: dict) -> Spread:
    fld = field_from_json(_need(obj, "field")[0])
    dim, elements = _need(obj, "ambient_dim", "elements")
    space = ProjSpace(dim, fld)
    subs = tuple(subspace_from_json(e, space) for e in elements)
    carrier = None
    if obj.get("carrier") is not None:
        cspace = ProjSpace(obj["carrier"]["ambient_dim"], fld)
        carrier = subspace_from_json(obj["carrier"], cspace)
    return Spread(space, subs, carrier, obj.get("origin", ""))


def regulus_to_json(reg: Regulus) -> dict:
    out = {"schema": SCHEMA, "kind": "regulus",
           "field": field_to_json(reg.space.field),
           "ambient_dim": reg.space.dim,
           "generators": [subspace_to_json(e) for e in reg.generators],
           "elements": [subspace_to_json(e) for e in reg.elements],
           "carrier": None}
    if reg.carrier is not None:
        out["carrier"] = {"ambient_dim": reg.carrier.ambient.dim,
                          "rows": [list(r) for r in reg.carrier.rows]}
    return out


def regulus_from_json(obj: dict) -> Regulus:
    fld = field_from_json(_need(obj, "field")[0])
    dim, gens, elements = _need(obj, "ambient_dim", "generators", "elements")
    space = ProjSpace(dim, fld)
    g = tuple(subspace_from_json(e, space) for e in gens)
    els = tuple(subspace_from_json(e, space) for e in elements)
    carrier = None
    if obj.get("carrier") is not None:
        cspace = ProjSpace(obj["carrier"]["ambient_dim"], fld)
        carrier = subspace_from_json(obj["carrier"], cspace)
    return Regulus(space, g, els, carrier)


# -- maps and designs -----------------------------------------------------------


def reduction_map_to_json(rmap: ReductionMap) -> dict:
    return {"schema": SCHEMA, "kind": "reduction-map",
            "tower": tower_to_json(rmap.tower),
            "source_dim": rmap.source_dim,
            "convention": rmap.convention}


def reduction_map_from_json(obj: dict) -> ReductionMap:
    if obj.get("convention") != "powerbasis-v1":
        raise PalFileError(f"unknown reduction convention {obj.get('convention')!r}")
    return ReductionMap(tower_from_json(obj["tower"]), obj.get("source_dim", 2))


def design_to_json(spec: DesignSpec) -> dict:
    return {"schema": SCHEMA, "kind": "design",
            "points": list(spec.points),
            "blocks": [sorted(b) for b in spec.blocks],
            "t": spec.t, "v": spec.v, "k": spec.k, "lambda": spec.lam,
            "exceptions": sorted(spec.exceptions)}


def design_from_json(obj: dict) -> DesignSpec:
    points, blocks, t, v, k = _need(obj, "points", "blocks", "t", "v", "k")
    lam = obj.get("lambda", 1)
    pts = tuple(tuple(p) if isinstance(p, list) else p for p in points)
    blks = tuple(frozenset(tuple(x) if isinstance(x, list) else x for x in b)
                 for b in blocks)
    exc = frozenset(tuple(x) if isinstance(x, list) else x
                    for x in obj.get("exceptions", []))
    return DesignSpec(pts, blks, t, v, k, lam, exc)
