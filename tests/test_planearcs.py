from __future__ import annotations

import random
from itertools import combinations
from math import gcd

import pytest

from pal import (ProjSpace, conic, field_make, gf, make_arc, meet, oval_nucleus_and_complete,
                 span, tangent_lines, translation_oval, verify_karc)
from pal.planearcs import ArcReport
from pal.projective import QuotientMap

from helpers import contains_point, lines_through_point


def test_conic_sizes():
    assert len(conic(2).points) == 3
    assert len(conic(4).points) == 5
    assert len(conic(16).points) == 17
    assert conic(16).kind == "oval"


def test_conic_verifies_as_arc():
    arc = conic(16)
    rep = verify_karc(arc.ambient, arc.points)
    assert rep.ok and rep.k == 17 and rep.max_k == 18


def test_collinear_witness():
    space = ProjSpace(2, gf(4))
    rep = verify_karc(space, [(1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1)])
    assert not rep.ok
    assert rep.collinear_witness == (0, 1, 2)


def test_duplicate_points_error():
    space = ProjSpace(2, gf(4))
    with pytest.raises(ValueError, match="duplicate"):
        verify_karc(space, [(1, 0, 0), (1, 0, 0), (0, 0, 1)])


def test_size_bound_violation():
    # 7 points claimed at q=4 exceed q+2 = 6; the bound is reported first
    space = ProjSpace(2, gf(4))
    pts = [p.coords for p in space.points()[:7]]
    rep = verify_karc(space, pts)
    assert not rep.ok
    assert "bound" in rep.reason and rep.max_k == 6


def test_odd_q_bound():
    space = ProjSpace(2, gf(5))
    rep = verify_karc(space, [p.coords for p in conic(gf(5)).points])
    assert rep.ok and rep.max_k == 6  # q+1 for odd q


def test_nucleus_of_conic():
    for q in (4, 16):
        nuc, hyper = oval_nucleus_and_complete(conic(q))
        assert nuc.coords == (0, 1, 0)
        assert hyper.kind == "hyperoval"
        assert len(hyper.points) == q + 2


def test_translation_ovals():
    assert translation_oval(16, 1).points == conic(16).points
    t = translation_oval(16, 3)
    assert len(t.points) == 17
    assert {p.coords for p in t.points} != {p.coords for p in conic(16).points}
    nuc, hyper = oval_nucleus_and_complete(t)
    assert len(hyper.points) == 18
    with pytest.raises(ValueError, match="gcd"):
        translation_oval(16, 2)
    with pytest.raises(ValueError):
        translation_oval(gf(5), 1)


def test_odd_order_has_no_completion():
    with pytest.raises(ValueError, match="odd"):
        oval_nucleus_and_complete(conic(gf(5)))


def test_odd_order_tangents_do_not_concur():
    arc = conic(gf(5))
    taus = tangent_lines(arc)
    common = taus[0]
    for t in taus[1:]:
        common = meet(common, t)
    assert common.rank == 0


@pytest.mark.parametrize("q,k", [(2, 1), (4, 1), (8, 1), (8, 2), (16, 1), (16, 3)])
def test_even_tangents_concur_exhaustive(q, k):
    arc = translation_oval(q, k) if k > 1 else conic(q)
    taus = tangent_lines(arc)
    assert len(taus) == q + 1
    common = taus[0]
    for t in taus[1:]:
        common = meet(common, t)
    assert common.rank == 1
    # each tangent meets the arc exactly once
    for t, p in zip(taus, arc.points):
        assert contains_point(t, p)
        assert sum(1 for x in arc.points if contains_point(t, x)) == 1


@pytest.mark.parametrize("q", [2, 4, 16])
def test_hyperoval_maximality_exhaustive(q):
    _, hyper = oval_nucleus_and_complete(conic(q))
    coords = {p.coords for p in hyper.points}
    for extra in hyper.ambient.points():
        if extra.coords in coords:
            continue
        rep = verify_karc(hyper.ambient, list(hyper.points) + [extra])
        assert not rep.ok


def test_pencil_size():
    space = ProjSpace(2, gf(16))
    pencil = lines_through_point(space.point((1, 5, 7)))
    assert len(pencil) == 17
    assert len(set(pencil)) == 17
    for line in pencil:
        assert contains_point(line, (1, 5, 7))


def test_line_through_two_arc_points_is_secant():
    arc = conic(16)
    line = span([arc.points[0], arc.points[1]])
    hits = sum(1 for p in arc.points if contains_point(line, p))
    assert hits == 2


def test_make_arc_kinds():
    space = ProjSpace(2, gf(4))
    karc = make_arc(space, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    assert karc.kind == "karc"
    assert make_arc(space, [p.coords for p in conic(4).points]).kind == "oval"


def test_zero_vector_rejected():
    space = ProjSpace(2, gf(4))
    with pytest.raises(ValueError, match="a point is the zero vector"):
        verify_karc(space, [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])


# -- oracles: the plane-only routines verify_karc, tangent_lines and
# oval_nucleus_and_complete ran before they became the n = 1 pseudo-arc ones


def det3(field, a, b, c) -> int:
    m, s = field.mul, field.sub
    t1 = m(a[0], s(m(b[1], c[2]), m(b[2], c[1])))
    t2 = m(a[1], s(m(b[0], c[2]), m(b[2], c[0])))
    t3 = m(a[2], s(m(b[0], c[1]), m(b[1], c[0])))
    return field.add(s(t1, t2), t3)


def karc_by_triple_sweep(space, coords) -> ArcReport:
    """The size bound, then the first triple in combinations order with det3 = 0."""
    q, k = space.field.order, len(coords)
    max_k = q + 2 if q % 2 == 0 else q + 1
    if k > max_k:
        return ArcReport(False, k, max_k, None, f"{k} points exceed the bound {max_k} for q={q}")
    for i, j, l in combinations(range(k), 3):
        if det3(space.field, coords[i], coords[j], coords[l]) == 0:
            return ArcReport(False, k, max_k, (i, j, l), f"points {i},{j},{l} are collinear")
    return ArcReport(True, k, max_k, None, "ok")


def tangents_by_pencil_scan(arc):
    """Per point, the one line of its pencil that meets the arc only there."""
    out = []
    for p in arc.points:
        tangents = [line for line in lines_through_point(p)
                    if sum(1 for x in arc.points if contains_point(line, x)) == 1]
        assert len(tangents) == 1
        out.append(tangents[0])
    return out


def _point_sets(space, rnd):
    """Seeded coordinate lists: shuffled conics, conics with a planted point,
    random sets up to past the size bound, and sets with a scaled copy."""
    field = space.field
    q = field.order
    base = [p.coords for p in conic(field).points]

    def random_vec():
        while True:
            v = tuple(rnd.randrange(q) for _ in range(3))
            if any(v):
                return v

    def scaled(v):
        c = rnd.randrange(2, q)
        return tuple(field.mul(c, x) for x in v)

    sets = []
    for _ in range(4):
        pts = base[:]
        rnd.shuffle(pts)
        sets.append(pts)
        extra = random_vec()
        if extra not in pts:
            sets.append(pts[:rnd.randrange(2, len(pts))] + [extra])
    for size in range(3, q + 5):
        pts = list(dict.fromkeys(random_vec() for _ in range(size)))
        if len(pts) >= 3:
            sets.append(pts)
    sets.append([p.coords for p in space.points()[:q + 3]])
    if q > 2:
        for _ in range(4):
            pts = rnd.sample(base, rnd.randrange(2, len(base)))
            v = rnd.choice(pts)
            sets.append(pts + [scaled(v)])
        sets.append([(1, 1, 0), (0, 0, 1), scaled((1, 1, 0)), (1, 0, 0)])
    return sets


@pytest.mark.parametrize("order", [2, 4, 16, 3, 5, 7])
def test_verify_karc_matches_triple_sweep(order):
    space = ProjSpace(2, gf(order))
    rnd = random.Random(order)
    sets = _point_sets(space, rnd)
    reports = [verify_karc(space, pts) for pts in sets]
    for pts, rep in zip(sets, reports):
        assert rep == karc_by_triple_sweep(space, pts), pts
    # every kind of verdict occurs
    assert any(r.ok for r in reports)
    assert any(r.collinear_witness is not None for r in reports)
    assert any(not r.ok and r.collinear_witness is None for r in reports)


def test_verify_karc_matches_triple_sweep_without_tables():
    """GF(512) has no byte tables, so its images take `image_vec`: a prefix
    of its conic is an arc, and a point planted on the chord of two prefix
    points makes collinear triples, the first of which is the sweep's."""
    field = gf(512)
    space = ProjSpace(2, field)
    prefix = [(1, t, field.mul(t, t)) for t in range(3, 43)]
    chord = tuple(a ^ b for a, b in zip(prefix[17], prefix[29]))
    planted = prefix[:23] + [chord] + prefix[23:]
    reports = [verify_karc(space, pts) for pts in (prefix, planted)]
    assert reports == [karc_by_triple_sweep(space, pts) for pts in (prefix, planted)]
    assert reports[0].ok and reports[1].collinear_witness is not None


def _ovals(q):
    """The conic and the translation ovals of PG(2, q)."""
    m = q.bit_length() - 1
    field = field_make(m)
    return [conic(field)] + [translation_oval(field, k) for k in range(2, m) if gcd(k, m) == 1]


@pytest.mark.parametrize("q", [2, 4, 8, 16, 32])
def test_tangent_lines_match_pencil_scan_even(q):
    for arc in _ovals(q):
        assert tangent_lines(arc) == tangents_by_pencil_scan(arc)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_tangent_lines_match_pencil_scan_odd(p):
    arc = conic(gf(p))
    assert tangent_lines(arc) == tangents_by_pencil_scan(arc)


@pytest.mark.parametrize("q", [2, 4, 8, 16, 32])
def test_nucleus_and_completion_match_meet_of_tangents(q):
    for arc in _ovals(q):
        taus = tangents_by_pencil_scan(arc)
        common = taus[0]
        for t in taus[1:]:
            common = meet(common, t)
        assert common.rank == 1
        expected = arc.ambient.point(common.rows[0])
        nuc, hyper = oval_nucleus_and_complete(arc)
        assert nuc == expected
        assert hyper == make_arc(arc.ambient, list(arc.points) + [expected])


def _count_images(monkeypatch) -> dict[str, int]:
    """Images made by `QuotientMap._packed_images` (the batch behind
    `images` and `image_codes` over a table field), and calls of
    `image_vec`, which `image_codes` makes once per rank-1 image over a
    field without byte tables."""
    calls = {"images": 0, "image_vec": 0}
    packed, image_vec = QuotientMap._packed_images, QuotientMap.image_vec

    def counted_images(self, subspaces, reduced):
        out = packed(self, subspaces, reduced)
        calls["images"] += len(out)
        return out

    def counted_vec(self, v):
        calls["image_vec"] += 1
        return image_vec(self, v)
    monkeypatch.setattr(QuotientMap, "_packed_images", counted_images)
    monkeypatch.setattr(QuotientMap, "image_vec", counted_vec)
    return calls


def test_verify_karc_work_count(monkeypatch):
    """One packed quotient image per later point for each of the 63 centers
    that start a triple: 64 + 63 + ... + 2 = 2,079 for the 65 conic points,
    and no image vector."""
    arc = conic(64)
    calls = _count_images(monkeypatch)
    assert verify_karc(arc.ambient, arc.points).ok
    assert calls == {"images": 2079, "image_vec": 0}


def test_verify_karc_work_count_without_tables(monkeypatch):
    """GF(5) has no byte tables: one image vector per later point for each
    of the 4 centers of the 6 conic points, 5 + 4 + 3 + 2 = 14, and no
    packed image."""
    arc = conic(5)
    calls = _count_images(monkeypatch)
    assert verify_karc(arc.ambient, arc.points).ok
    assert calls == {"images": 0, "image_vec": 14}


def test_oval_wrappers_do_not_verify_the_oval_again(monkeypatch):
    """`make_arc` verified the conic, so the tangent lines take two
    partitions of 64 images each and one pass of 65 images through the
    nucleus.  The completion takes those images again for its own
    pseudo-oval, and no more: that nucleus pass checks the triples through
    the nucleus."""
    arc = conic(64)
    calls = _count_images(monkeypatch)
    tangent_lines(arc)
    assert calls == {"images": 2 * 64 + 65, "image_vec": 0}
    calls.update(images=0, image_vec=0)
    oval_nucleus_and_complete(arc)
    assert calls == {"images": 2 * 64 + 65, "image_vec": 0}
