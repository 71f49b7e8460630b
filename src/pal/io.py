"""pal-v1 JSON serialization.

Every file is a JSON object with a "schema" tag ("pal-v1") and a "kind".
Field elements are integer codes, subspaces are canonical RREF row lists,
and writes are byte-deterministic (sorted keys, fixed indentation), so
read(write(x)) round-trips byte-identically.  Readers check each key they
use (presence, JSON type, code range, canonical rows) and raise
PalFileError on any violation; no other module reads a file's keys.
"""

from __future__ import annotations

import json
from pathlib import Path

from .fields import FiniteField
from .planearcs import PlaneArc
from .projective import ProjSpace, Subspace
from .pseudoarcs import PseudoArc, make_pseudo_arc
from .spreads import Regulus, Spread
from .theorems import DesignSpec

SCHEMA = "pal-v1"


class PalFileError(ValueError):
    """Malformed or mistyped pal-v1 file."""


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def save(path, obj: dict) -> None:
    try:
        Path(path).write_text(dumps(obj), encoding="utf-8")
    except OSError as err:
        raise PalFileError(f"cannot write {path}: {err}") from None


def load(path, expect_kind: str | None = None) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise PalFileError(f"cannot read {path}: {err}") from None
    return load_obj(text, expect_kind, where=str(path))


def load_obj(text: str, expect_kind: str | None = None, where: str = "input") -> dict:
    try:
        obj = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as err:
        raise PalFileError(f"cannot parse {where}: {err}") from None
    if not isinstance(obj, dict) or obj.get("schema") != SCHEMA:
        raise PalFileError(f"{where} is not a {SCHEMA} file")
    kind = kind_of(obj)
    if expect_kind is not None and kind != expect_kind:
        raise PalFileError(f"{where} holds kind {kind!r}, expected {expect_kind!r}")
    return obj


# -- typed access -------------------------------------------------------------

_REQUIRED = object()
_JSON_NAMES = {dict: "an object", list: "a list", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}


def _check(value, types: tuple, what: str):
    """`value` if it has one of the JSON types `types`; a bool is no int."""
    if isinstance(value, bool) and bool not in types or not isinstance(value, types):
        names = " or ".join(_JSON_NAMES[t] for t in types)
        got = _JSON_NAMES.get(type(value), type(value).__name__)
        raise PalFileError(f"{what} must be {names}, not {got}")
    return value


def _get(obj: dict, key: str, *types: type, default=_REQUIRED):
    """obj[key] checked against `types`; a missing key takes `default`."""
    if key not in obj:
        if default is _REQUIRED:
            raise PalFileError(f"missing field {key!r}")
        return default
    return _check(obj[key], types, f"field {key!r}")


def _items(obj: dict, key: str, *types: type, default=_REQUIRED) -> list:
    """The list obj[key], each item checked against `types`."""
    values = _get(obj, key, list, default=default)
    return [_check(x, types, f"item {i} of {key!r}") for i, x in enumerate(values)]


def kind_of(obj: dict) -> str:
    return _get(obj, "kind", str)


# -- fields and spaces ----------------------------------------------------------


def field_to_json(field: FiniteField) -> dict:
    return {"p": field.p, "m": field.m, "modulus_bits": field.modulus}


def field_from_json(obj: dict) -> FiniteField:
    p, m = _get(obj, "p", int), _get(obj, "m", int)
    modulus = _get(obj, "modulus_bits", int, type(None), default=None)
    try:
        return FiniteField(p, m, modulus)
    except ValueError as err:
        raise PalFileError(f"bad field spec: {err}") from None


def _space(dim: int, field: FiniteField) -> ProjSpace:
    if dim < 1:
        raise PalFileError(f"projective dimension {dim} is below 1")
    return ProjSpace(dim, field)


# -- subspaces ----------------------------------------------------------------


def _vector(value, space: ProjSpace, what: str) -> tuple[int, ...]:
    """A coordinate list of `space`: dim + 1 element codes of its field."""
    _check(value, (list,), what)
    if len(value) != space.dim + 1:
        raise PalFileError(f"{what} has {len(value)} coordinates, "
                           f"expected {space.dim + 1}")
    order = space.field.order
    for x in value:
        if not 0 <= _check(x, (int,), "element code") < order:
            raise PalFileError(f"element code {x} is out of range for GF({order})")
    return tuple(value)


def subspace_to_json(sub: Subspace) -> dict:
    return {"ambient_dim": sub.ambient.dim, "rows": [list(r) for r in sub.rows]}


def subspace_from_json(obj: dict, space: ProjSpace) -> Subspace:
    dim = _get(obj, "ambient_dim", int)
    if dim != space.dim:
        raise PalFileError(f"subspace ambient dim {dim} != {space.dim}")
    rows = tuple(_vector(r, space, "subspace row") for r in _get(obj, "rows", list))
    sub = space.subspace(rows)
    if sub.rows != rows:
        raise PalFileError("subspace rows are not in canonical form")
    return sub


def _subspaces(obj: dict, key: str, space: ProjSpace) -> tuple[Subspace, ...]:
    return tuple(subspace_from_json(e, space) for e in _items(obj, key, dict))


def _carrier(obj: dict, field: FiniteField) -> Subspace | None:
    """The optional "carrier" subspace, in the space its ambient_dim names."""
    carrier = _get(obj, "carrier", dict, type(None), default=None)
    if carrier is None:
        return None
    return subspace_from_json(carrier, _space(_get(carrier, "ambient_dim", int), field))


# -- arcs ---------------------------------------------------------------------


def plane_arc_to_json(arc: PlaneArc) -> dict:
    return {"schema": SCHEMA, "kind": "plane-arc",
            "field": field_to_json(arc.field),
            "points": [list(p.coords) for p in arc.points],
            "arc_kind": arc.kind}


def plane_arc_items(obj: dict) -> tuple[ProjSpace, list[tuple[int, ...]]]:
    """The plane and point coordinates of a plane-arc file, not verified."""
    space = _space(2, field_from_json(_get(obj, "field", dict)))
    points = [_vector(p, space, "point") for p in _get(obj, "points", list)]
    if not all(any(p) for p in points):
        raise PalFileError("a point is the zero vector")
    return space, points


def pseudo_arc_to_json(arc: PseudoArc) -> dict:
    return {"schema": SCHEMA, "kind": "pseudo-arc",
            "field": field_to_json(arc.ambient.field),
            "n": arc.n,
            "elements": [subspace_to_json(e) for e in arc.elements],
            "arc_kind": arc.kind,
            "witness": arc.witness}


def pseudo_arc_items(obj: dict) -> tuple[ProjSpace, tuple[Subspace, ...]]:
    """The ambient PG(3n-1, q) and elements of a pseudo-arc file, not verified."""
    field = field_from_json(_get(obj, "field", dict))
    space = _space(3 * _get(obj, "n", int) - 1, field)
    return space, _subspaces(obj, "elements", space)


def pseudo_arc_from_json(obj: dict) -> PseudoArc:
    space, elements = pseudo_arc_items(obj)
    declared = _get(obj, "arc_kind", str)
    witness = _get(obj, "witness", dict, type(None), default=None)
    try:
        arc = make_pseudo_arc(space, elements, witness)
    except ValueError as err:
        raise PalFileError(f"pseudo-arc failed verification: {err}") from None
    if arc.kind != declared:
        raise PalFileError(f"arc kind {arc.kind!r} != declared {declared!r}")
    return arc


# -- spreads and reguli ---------------------------------------------------------


def spread_to_json(spread: Spread) -> dict:
    return {"schema": SCHEMA, "kind": "spread",
            "field": field_to_json(spread.space.field),
            "ambient_dim": spread.space.dim,
            "elements": [subspace_to_json(e) for e in spread.elements],
            "origin": spread.origin,
            "carrier": None if spread.carrier is None
            else subspace_to_json(spread.carrier)}


def spread_from_json(obj: dict) -> Spread:
    field = field_from_json(_get(obj, "field", dict))
    space = _space(_get(obj, "ambient_dim", int), field)
    return Spread(space, _subspaces(obj, "elements", space),
                  _carrier(obj, field), _get(obj, "origin", str, default=""))


def regulus_to_json(reg: Regulus) -> dict:
    return {"schema": SCHEMA, "kind": "regulus",
            "field": field_to_json(reg.space.field),
            "ambient_dim": reg.space.dim,
            "generators": [subspace_to_json(e) for e in reg.generators],
            "elements": [subspace_to_json(e) for e in reg.elements],
            "carrier": None if reg.carrier is None else subspace_to_json(reg.carrier)}


def regulus_from_json(obj: dict) -> Regulus:
    field = field_from_json(_get(obj, "field", dict))
    space = _space(_get(obj, "ambient_dim", int), field)
    return Regulus(space, _subspaces(obj, "generators", space),
                   _subspaces(obj, "elements", space), _carrier(obj, field))


# -- designs ------------------------------------------------------------------


def design_to_json(spec: DesignSpec) -> dict:
    return {"schema": SCHEMA, "kind": "design",
            "points": list(spec.points),
            "blocks": [list(b) for b in spec.blocks],
            "t": spec.t, "v": spec.v, "k": spec.k, "lambda": spec.lam,
            "exceptions": sorted(spec.exceptions)}


def design_from_json(obj: dict) -> DesignSpec:
    """A design file; its points, block members and exceptions are integers."""
    points = tuple(_items(obj, "points", int))
    blocks = [[_check(x, (int,), "block point") for x in b]
              for b in _items(obj, "blocks", list)]
    t, v, k = _get(obj, "t", int), _get(obj, "v", int), _get(obj, "k", int)
    lam = _get(obj, "lambda", int, default=1)
    if min(t, v, k, lam) < 0:
        raise PalFileError("design parameters must be non-negative")
    exc = _items(obj, "exceptions", int, default=[])
    return DesignSpec(points, blocks, t, v, k, lam, exc)


# -- summaries ------------------------------------------------------------------


def summary(obj: dict) -> list[str]:
    """The lines `pal report` prints for a loaded file, read like any other."""
    kind = kind_of(obj)
    lines = [f"pal-v1 file: kind={kind}"]
    if kind == "pseudo-arc":
        space, elements = pseudo_arc_items(obj)
        arc_kind = _get(obj, "arc_kind", str)
        witness = _get(obj, "witness", dict, type(None), default=None)
        fld = space.field
        lines.append(f"  q={fld.p}^{fld.m}={fld.order}, n={(space.dim + 1) // 3}, "
                     f"{len(elements)} elements, kind={arc_kind}")
        if witness:
            lines.append(f"  witness: {witness.get('source_kind')} "
                         f"via {witness.get('convention')}")
    elif kind == "plane-arc":
        _, points = plane_arc_items(obj)
        lines.append(f"  |points|={len(points)}, kind={_get(obj, 'arc_kind', str)}")
    elif kind == "spread":
        spread = spread_from_json(obj)
        lines.append(f"  {len(spread)} elements in PG({spread.space.dim}, "
                     f"{spread.space.field.order}), origin={spread.origin or 'n/a'}")
    elif kind == "theorem-report":
        theorem, verdict, forward, converse = (
            _get(obj, key, str) for key in ("theorem", "verdict", "forward", "converse"))
        lines.append(f"  theorem {theorem}: {verdict} "
                     f"(forward={forward}, converse={converse})")
    elif kind == "design-report":
        t, v, k, lam, blocks = (
            _get(obj, key, int) for key in ("t", "v", "k", "lambda", "blocks"))
        lines.append(f"  {t}-({v},{k},{lam}): ok={_get(obj, 'ok', bool)}, "
                     f"blocks={blocks}")
    elif kind == "regulus":
        reg = regulus_from_json(obj)
        contained = _get(obj, "contained_in_spread", bool, default=None)
        lines.append(f"  {len(reg)} elements in PG({reg.space.dim}, "
                     f"{reg.space.field.order}), contained_in_spread={contained}")
    elif kind == "dual-arc":
        betas = _items(obj, "betas", dict)
        gammas = _items(obj, "gammas", dict)
        regular = sum(_get(g, "regular", bool) for g in gammas)
        lines.append(f"  {len(betas)} dual elements; "
                     f"regular spreads: {regular}/{len(gammas)}")
    elif kind in ("verify-report", "regularity-report", "derive-report",
                  "tangents-report", "design", "reduction-map"):
        types = {"ok": bool, "reason": str, "count": int, "regular": bool}
        lines.append("  " + ", ".join(f"{key}={_get(obj, key, typ)}"
                                      for key, typ in types.items() if key in obj))
    else:
        lines.append("  (no summary available)")
    return lines
