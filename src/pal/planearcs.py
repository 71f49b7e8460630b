"""Arcs, ovals and hyperovals of PG(2, Q).

A k-arc is a generalized arc with n = 1, its points read as rank-1
subspaces, so the arc check, the tangent lines, the nucleus and the
hyperoval completion are those of `pseudoarcs`.

Q is a power of two for everything; odd prime Q is admitted only so the
odd-order facts (no nucleus, no hyperoval completion, tangent-spread spot
checks) can be demonstrated.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .fields import FiniteField, gf
from .projective import Point, ProjSpace, Subspace
from .pseudoarcs import PseudoArc, extend_to_hyperoval, tangent_spaces, verify_pseudo_arc


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


def verify_karc(ambient: ProjSpace, points) -> ArcReport:
    """No-three-collinear check plus the k <= Q+1 / Q+2 size bound.

    `verify_pseudo_arc` with n = 1: nonzero vectors are collinear iff they do
    not span the plane.  Duplicates are raw coordinates, so scaled copies of
    one point are reported as a collinear triple.
    """
    pts = list(points)
    if len(pts) < 3:
        raise ValueError("an arc needs at least 3 points")
    coords = [p.coords if isinstance(p, Point) else tuple(p) for p in pts]
    if not all(any(c) for c in coords):
        raise ValueError("a point is the zero vector")
    if len(set(coords)) != len(coords):
        raise ValueError("duplicate points")
    rep = verify_pseudo_arc(ambient, [ambient.subspace([c]) for c in coords])
    if rep.ok:
        reason = "ok"
    elif rep.witness_triple is None:
        reason = f"{rep.k} points exceed the bound {rep.max_k} for q={ambient.field.order}"
    else:
        reason = "points {},{},{} are collinear".format(*rep.witness_triple)
    return ArcReport(rep.ok, rep.k, rep.max_k, rep.witness_triple, reason)


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


def _pseudo_oval(arc: PlaneArc) -> PseudoArc:
    """The oval as a pseudo-oval with n = 1: each point a rank-1 subspace.
    Only `make_arc` tags a plane arc as an oval, after verifying it, so the
    arc is not verified again."""
    if arc.kind != "oval":
        raise ValueError("tangent lines are computed for ovals")
    elements = tuple(arc.ambient.subspace([p.coords]) for p in arc.points)
    return PseudoArc(arc.ambient, 1, elements, "pseudo-oval")


def tangent_lines(arc: PlaneArc) -> list[Subspace]:
    """Per oval point, the unique line meeting the arc only there."""
    return tangent_spaces(_pseudo_oval(arc))


def oval_nucleus_and_complete(arc: PlaneArc) -> tuple[Point, PlaneArc]:
    """Common point of all tangents and the completed hyperoval (Q even).

    `extend_to_hyperoval` finds the nucleus and checks the triples through it.
    """
    field = arc.field
    if field.p != 2:
        raise ValueError(f"q={field.order} is odd: ovals have no nucleus and do not complete")
    hyper = extend_to_hyperoval(_pseudo_oval(arc))
    nucleus = arc.ambient.point(hyper.elements[-1].rows[0])
    return nucleus, PlaneArc(arc.ambient, (*arc.points, nucleus), "hyperoval")
