"""Arcs, ovals and hyperovals of PG(2, Q).

Q is a power of two for everything; odd prime Q is admitted only so the
odd-order facts (no nucleus, no hyperoval completion, tangent-spread spot
checks) can be demonstrated.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .fields import FiniteField, gf
from .projective import (Point, ProjSpace, Subspace, _normalized_vectors, kernel,
                         meet, vec_mat)


@dataclass(frozen=True)
class ArcReport:
    ok: bool
    k: int
    max_k: int
    collinear_witness: tuple[int, int, int] | None
    reason: str


@dataclass(frozen=True)
class PlaneArc:
    ambient: ProjSpace
    points: tuple[Point, ...]
    kind: str  # karc | oval | hyperoval

    @property
    def field(self) -> FiniteField:
        return self.ambient.field


def det3(field: FiniteField, a, b, c) -> int:
    m, s = field.mul, field.sub
    t1 = m(a[0], s(m(b[1], c[2]), m(b[2], c[1])))
    t2 = m(a[1], s(m(b[0], c[2]), m(b[2], c[0])))
    t3 = m(a[2], s(m(b[0], c[1]), m(b[1], c[0])))
    return field.add(s(t1, t2), t3)


def verify_karc(ambient: ProjSpace, points) -> ArcReport:
    """No-three-collinear sweep plus the k <= Q+1 / Q+2 size bound."""
    pts = list(points)
    if len(pts) < 3:
        raise ValueError("an arc needs at least 3 points")
    coords = [p.coords if isinstance(p, Point) else tuple(p) for p in pts]
    if len(set(coords)) != len(coords):
        raise ValueError("duplicate points")
    field = ambient.field
    q = field.order
    max_k = q + 2 if q % 2 == 0 else q + 1
    if len(coords) > max_k:
        return ArcReport(False, len(coords), max_k, None,
                         f"{len(coords)} points exceed the bound {max_k} for q={q}")
    for i, j, k in combinations(range(len(coords)), 3):
        if det3(field, coords[i], coords[j], coords[k]) == 0:
            return ArcReport(False, len(coords), max_k, (i, j, k),
                             f"points {i},{j},{k} are collinear")
    return ArcReport(True, len(coords), max_k, None, "ok")


def make_arc(ambient: ProjSpace, points) -> PlaneArc:
    """Verify an arbitrary point list and tag it by its size."""
    pts = tuple(ambient.point(p.coords if isinstance(p, Point) else p) for p in points)
    report = verify_karc(ambient, pts)
    if not report.ok:
        raise ValueError(report.reason)
    q = ambient.field.order
    kind = "oval" if len(pts) == q + 1 else "hyperoval" if len(pts) == q + 2 else "karc"
    return PlaneArc(ambient, pts, kind)


def conic(Q: int | FiniteField) -> PlaneArc:
    """The standard conic {(1, t, t^2)} + {(0,0,1)}; Q+1 points."""
    field = Q if isinstance(Q, FiniteField) else gf(Q)
    ambient = ProjSpace(2, field)
    coords = [(1, t, field.mul(t, t)) for t in field.elements()]
    coords.append((0, 0, 1))
    return make_arc(ambient, coords)


def translation_oval(Q: int | FiniteField, k: int) -> PlaneArc:
    """{(1, t, t^(2^k))} + {(0,0,1)} for gcd(k, m) = 1; k = 1 is the conic."""
    field = Q if isinstance(Q, FiniteField) else gf(Q)
    if field.p != 2:
        raise ValueError("translation ovals need even order")
    m = field.m
    if not 1 <= k < m or gcd(k, m) != 1:
        raise ValueError(f"exponent k={k} needs gcd(k, {m}) = 1 and 1 <= k < {m}")
    ambient = ProjSpace(2, field)
    e = 1 << k
    coords = [(1, t, field.pow(t, e)) for t in field.elements()]
    coords.append((0, 0, 1))
    return make_arc(ambient, coords)


def lines_through_point(p: Point) -> list[Subspace]:
    """The pencil of Q+1 lines through p, via the dual line's points."""
    space = p.ambient
    duals = kernel(space.field, [p.coords], 3)
    lines = []
    for c in _normalized_vectors(space.field, 2):
        coeff = vec_mat(space.field, c, duals)
        lines.append(space.subspace(kernel(space.field, [coeff], 3)))
    return lines


def tangent_lines(arc: PlaneArc) -> list[Subspace]:
    """Per oval point, the unique line meeting the arc only there."""
    if arc.kind != "oval":
        raise ValueError("tangent lines are computed for ovals")
    out = []
    for p in arc.points:
        tangents = []
        for line in lines_through_point(p):
            hits = sum(1 for x in arc.points if line.contains_point(x))
            if hits == 1:
                tangents.append(line)
        if len(tangents) != 1:
            raise ValueError(f"point {p} has {len(tangents)} tangent lines; not an oval")
        out.append(tangents[0])
    return out


def oval_nucleus_and_complete(arc: PlaneArc) -> tuple[Point, PlaneArc]:
    """Common point of all tangents and the completed hyperoval (Q even)."""
    field = arc.field
    if field.p != 2:
        raise ValueError(f"q={field.order} is odd: ovals have no nucleus and do not complete")
    tangents = tangent_lines(arc)
    common = tangents[0]
    for t in tangents[1:]:
        common = meet(common, t)
    if common.rank != 1:
        raise ValueError("tangent lines do not concur")
    nucleus = arc.ambient.point(common.rows[0])
    completed = make_arc(arc.ambient, list(arc.points) + [nucleus])
    if completed.kind != "hyperoval":
        raise AssertionError("completion did not verify as a hyperoval")
    return nucleus, completed
