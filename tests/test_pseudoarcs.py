from __future__ import annotations

import random
from itertools import combinations
from math import gcd

import pytest

from pal import (ProjSpace, QuotientMap, conic, extend_to_hyperoval, field_make, gf,
                 make_pseudo_arc, meet, nucleus, reduction_map, span,
                 tangent_lines, tangent_spaces, translation_oval, verify_pseudo_arc)
from pal.projective import point_owners, rank, row_columns, rref
from pal.pseudoarcs import PseudoArc, PseudoArcReport, _first_failing_pair, _tangent

from helpers import contains


def test_conic_reduction_verifies(conic_oval):
    rep = verify_pseudo_arc(conic_oval.ambient, conic_oval.elements)
    assert rep.ok and rep.k == 17 and rep.n == 2 and rep.max_k == 18
    assert conic_oval.kind == "pseudo-oval"


def test_triples_span(conic_hyperoval):
    full = conic_hyperoval.ambient.dim + 1
    for t in combinations(conic_hyperoval.elements[:6], 3):
        assert span(list(t)).rank == full


def test_corrupted_arc_fails_with_witness(conic_oval):
    space = conic_oval.ambient
    elements = list(conic_oval.elements)
    # replace the last element by one meeting element 0
    meetr = space.subspace([elements[0].rows[0], (0, 0, 0, 0, 1, 2)])
    rep = verify_pseudo_arc(space, elements[:-1] + [meetr])
    assert not rep.ok
    assert rep.witness_triple is not None
    assert 16 in rep.witness_triple


def _triple_sweep(ambient, elements):
    """Plain sweep over every triple in order: the reference for the
    quotient pass of verify_pseudo_arc."""
    n = elements[0].rank
    q = ambient.field.order
    max_k = q**n + 2 if q % 2 == 0 else q**n + 1
    for t in combinations(range(len(elements)), 3):
        rows = sum((elements[x].rows for x in t), ())
        if len(rref(ambient.field, rows)[0]) != ambient.dim + 1:
            return PseudoArcReport(False, len(elements), n, max_k, t,
                                   "elements {},{},{} do not span the space".format(*t))
    return PseudoArcReport(True, len(elements), n, max_k, None, "ok")


def _near_miss(elements, p, b, a=0):
    """Element p replaced by a space inside <e_a, e_b> skew to both: the
    graph of the map that sends the basis of e_a to that of e_b."""
    ea, eb = elements[a], elements[b]
    fld = ea.ambient.field
    x = ea.ambient.subspace([tuple(fld.add(u, v) for u, v in zip(ra, rb))
                             for ra, rb in zip(ea.rows, eb.rows)])
    assert meet(x, ea).rank == 0 and meet(x, eb).rank == 0
    return elements[:p] + [x] + elements[p + 1:]


def _odd_q_arc():
    arc5 = conic(gf(5))
    return arc5.ambient, [span([p]) for p in arc5.points]


def _conic_points(field):
    """The points of the conic of PG(2, field) as rank-1 subspaces, unverified."""
    space = ProjSpace(2, field)
    coords = [(1, t, field.mul(t, t)) for t in field.elements()] + [(0, 0, 1)]
    return space, [space.subspace([c]) for c in coords]


def test_quotient_sweep_matches_triple_sweep(conic_oval, arc_q4n3):
    oval43 = arc_q4n3
    space42, elems42 = conic_oval.ambient, list(conic_oval.elements)
    space5, elems5 = _odd_q_arc()
    oval25 = reduction_map(2, 5).reduce_arc(conic(32))
    space256, elems256 = _conic_points(gf(256))
    space512, elems512 = _conic_points(gf(512))

    def meeting(elems, x, y):
        """Element x replaced by a line through a point of element y."""
        line = space42.subspace([elems[y].rows[0], (0, 0, 0, 0, 1, 2)])
        return elems[:x] + [line] + elems[x + 1:]

    cases = [
        (space42, _near_miss(elems42, 9, 14)),
        (space42, _near_miss(elems42, 14, 13)),
        (oval43.ambient, _near_miss(list(oval43.elements), 30, 50)),
        (space42, meeting(elems42, 1, 0)),
        (space42, meeting(elems42, 16, 0)),
        (space5, elems5),
        (space5, _near_miss(elems5, 3, 5)),
        # failing pairs (1,10) and (2,5) under center 0: inserting codes in
        # ascending order meets (2,5) first; likewise (3,12) before (2,13)
        (space42, _near_miss(_near_miss(elems42, 10, 1), 5, 2)),
        (space42, _near_miss(_near_miss(elems42, 13, 2), 12, 3)),
        # in the quotient by e_0 of the full oval, a line meeting image 15
        # also meets another image, so the last-pair case keeps 6 elements
        (space42, meeting(elems42[:6], 5, 4)),
        (space42, elems42[:9] + [elems42[5]] + elems42[10:]),
        (space5, elems5[:4] + [elems5[1]]),
        (space42, elems42[:3]),
        (space42, elems42[:4]),
        (space42, _near_miss(elems42[:3], 2, 1)),
        (space42, _near_miss(elems42[:4], 3, 2, a=1)),
        (space42, _near_miss(elems42, 2, 3)),
        (space42, _near_miss(elems42, 3, 2, a=1)),
        (oval43.ambient, _near_miss(list(oval43.elements), 3, 2, a=1)),
        # only the last center, i = k - 3, fails
        (oval43.ambient, _near_miss(list(oval43.elements[:34]), 33, 32, a=31)),
        # quotient points of 10 coordinates, read chunk by chunk: center 15 fails
        (oval25.ambient, _near_miss(list(oval25.elements[:18]), 17, 16, a=15)),
        # collinear plants over GF(256), with byte tables, and GF(512), without
        (space256, _near_miss(elems256, 40, 20)),
        (space512, _near_miss(elems512, 40, 20)),
    ]
    for space, elems in cases:
        assert verify_pseudo_arc(space, elems) == _triple_sweep(space, elems)
    witnesses = [verify_pseudo_arc(space, elems).witness_triple
                 for space, elems in cases]
    assert witnesses == [(0, 9, 14), (0, 13, 14), (0, 30, 50), (0, 1, 2),
                         (0, 1, 16), None, (0, 3, 5),
                         (0, 1, 10), (0, 2, 13), (0, 4, 5), (0, 5, 9), (0, 1, 4),
                         None, None, (0, 1, 2), (1, 2, 3), (0, 2, 3), (1, 2, 3),
                         (1, 2, 3), (31, 32, 33), (15, 16, 17), (0, 20, 40), (0, 20, 40)]

    # a late center's pass on its slice of the columns of all 17 elements:
    # the first image of its suffix bad, the last one, and the last one
    # after a meeting pair that starts at the first image
    late, full = 12, space42.dim + 1
    for elems, pair in ((meeting(elems42, late + 1, late), (0, 1)),
                        (meeting(elems42, 16, late), (0, 3)),
                        (meeting(meeting(elems42, 16, late), 15, late + 1), (0, 2))):
        suffix = elems[late + 1:]
        assert next((a, b) for a, b in combinations(range(len(suffix)), 2) if rank(
            space42.field, elems[late].rows + suffix[a].rows + suffix[b].rows) < full) == pair
        columns = [c[(late + 1) * 2:] for c in row_columns(space42, elems)]
        assert _first_failing_pair(elems[late], columns, 2) == pair


def _count_images(monkeypatch) -> list[int]:
    """The number of images each batch makes: each `QuotientMap._packed_images`
    call, which `images` and `image_codes` make once per batch over a
    table field."""
    made = []
    packed = QuotientMap._packed_images

    def counted(self, columns, ranks, reduced):
        out = packed(self, columns, ranks, reduced)
        made.append(len(out))
        return out
    monkeypatch.setattr(QuotientMap, "_packed_images", counted)
    return made


def test_quotient_sweep_work_count(arc_q4n3, monkeypatch):
    """One image per later element and center, in one batch per center:
    sum_{i <= k-3} (k-1-i) images, where a per-triple sweep would do
    C(k, 3) rank checks."""
    import pal.pseudoarcs
    made = _count_images(monkeypatch)
    k = len(arc_q4n3)
    assert verify_pseudo_arc(arc_q4n3.ambient, arc_q4n3.elements).ok
    assert made == [k - 1 - i for i in range(k - 2)]
    assert sum(made) == 2079
    assert not hasattr(pal.pseudoarcs, "rank")


def test_size_bound(conic_hyperoval):
    space = conic_hyperoval.ambient
    extra = space.subspace([(1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 1, 0)])
    rep = verify_pseudo_arc(space, list(conic_hyperoval.elements) + [extra])
    assert not rep.ok and "bound" in rep.reason and rep.max_k == 18


def test_elements_of_another_space_are_refused(conic_oval, arc_q8n2):
    """Elements of PG(5, 8) passed with the ambient PG(5, 4), all of them
    or one in a list, raise before any image is built."""
    space = conic_oval.ambient
    for elems in (arc_q8n2.elements[:17],
                  conic_oval.elements[:9] + arc_q8n2.elements[9:10] + conic_oval.elements[10:]):
        with pytest.raises(ValueError, match="^ambient spaces differ$"):
            verify_pseudo_arc(space, elems)


def _rank_sweep(ambient, elements):
    """The first non-spanning triple in `combinations` order by one rank
    check per triple, or None."""
    full = ambient.dim + 1
    return next((t for t in combinations(range(len(elements)), 3)
                 if rank(ambient.field, sum((elements[x].rows for x in t), ())) != full),
                None)


def _seeded_misses(arc, rnd, count=50):
    """`count` element lists from `arc`: prefixes of 3..24 elements, each
    with one or two elements replaced by a space inside the span of two
    others (skew to both), or by one through a point of another element
    (the center of its pass), placed right after it or later."""
    elems = list(arc.elements)
    space, n = arc.ambient, arc.n
    out = []
    for case in range(count):
        size = rnd.randint(3, min(24, len(elems)))
        cur = elems[:size]
        for _ in range(1 + case % 2):
            if case % 3:
                p, a, b = rnd.sample(range(size), 3)
                cur = _near_miss(cur, p, b, a)
                continue
            c = rnd.randrange(size - 1)
            p = c + 1 if case % 4 == 0 else rnd.randrange(size)
            if p == c:
                continue
            while True:
                rows = [cur[c].rows[rnd.randrange(n)]] + [
                    tuple(rnd.randrange(space.field.order) for _ in range(space.dim + 1))
                    for _ in range(n - 1)]
                line = space.subspace(rows)
                if line.rank == n:
                    break
            cur = cur[:p] + [line] + cur[p + 1:]
        out.append(cur)
    return out


def test_quotient_pass_matches_rank_sweep_on_seeded_misses(
        conic_oval, arc_q8n2, small_arc, arc_q4n3):
    """50 seeded near-misses at each of (4,2), (8,2), (2,3) and (4,3): the
    witness is the first failing triple of a plain rank sweep."""
    rnd = random.Random(25)
    found = 0
    for arc in (conic_oval, arc_q8n2, small_arc, arc_q4n3):
        for elems in _seeded_misses(arc, rnd):
            rep = verify_pseudo_arc(arc.ambient, elems)
            assert rep.witness_triple == _rank_sweep(arc.ambient, elems)
            assert rep.ok == (rep.witness_triple is None)
            found += not rep.ok
    assert found >= 150


def test_mixed_dimension_error(conic_oval):
    space = conic_oval.ambient
    plane = space.subspace([(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0),
                            (0, 0, 1, 0, 0, 0)])
    with pytest.raises(ValueError, match="mixed"):
        verify_pseudo_arc(space, list(conic_oval.elements[:3]) + [plane])


def test_tangent_spaces(conic_oval):
    taus = tangent_spaces(conic_oval)
    assert len(taus) == 17
    for i, tau in enumerate(taus):
        assert tau.dim == 3
        assert contains(tau, conic_oval.elements[i])
        for j, e in enumerate(conic_oval.elements):
            if j != i:
                assert meet(tau, e).rank == 0


def test_uncovered_quotient_count(conic_oval):
    # 85 points of PG(3,4); 16 other-element images cover 80; 5 uncovered
    qm = QuotientMap(conic_oval.elements[0])
    covered = set()
    for j in range(1, 17):
        covered.update(qm.images([conic_oval.elements[j]])[0].point_vectors())
    assert len(covered) == 80
    assert qm.space.n_points - len(covered) == 5


def test_tangents_on_hyperoval_rejected(conic_hyperoval):
    with pytest.raises(ValueError, match="pseudo-oval"):
        tangent_spaces(conic_hyperoval)


def test_nucleus(conic_oval, rmap42):
    nuc = nucleus(conic_oval)
    assert nuc.dim == 1
    assert nuc == rmap42.reduce_point((0, 1, 0))
    taus = tangent_spaces(conic_oval)
    # any two tangent 3-spaces of PG(5,4) already meet in at least a line
    for j in range(1, 5):
        assert meet(taus[0], taus[j]).dim >= 1


def test_nucleus_odd_q_rejected():
    # n = 1: a plane oval is a pseudo-oval whose elements are points
    pa = make_pseudo_arc(*_odd_q_arc())
    assert pa.kind == "pseudo-oval" and pa.n == 1
    with pytest.raises(ValueError, match="odd"):
        nucleus(pa)


def test_degenerate_n1_tangents_match_plane_tangents():
    arc = conic(4)
    pa = make_pseudo_arc(arc.ambient, [span([p]) for p in arc.points])
    taus = tangent_spaces(pa)
    plane_taus = tangent_lines(arc)
    assert taus == plane_taus


def test_extension(conic_oval):
    hyper = extend_to_hyperoval(conic_oval)
    assert hyper.kind == "pseudo-hyperoval"
    assert len(hyper.elements) == 18
    assert hyper.elements[:17] == conic_oval.elements  # nucleus appended last
    with pytest.raises(ValueError):
        extend_to_hyperoval(hyper)


def test_exhaustive_maximality_q2_n2():
    rm = reduction_map(2, 2)
    oval = rm.reduce_arc(conic(4))
    hyper = extend_to_hyperoval(oval)
    assert len(hyper.elements) == 6
    space = hyper.ambient
    pts = [p.coords for p in space.points()]
    lines = set()
    for a, b in combinations(range(len(pts)), 2):
        lines.add(space.subspace([pts[a], pts[b]]))
    assert len(lines) == 651
    present = set(hyper.elements)
    full = space.dim + 1
    for line in lines:
        if line in present:
            continue
        ok = all(span([line, x, y]).rank == full
                 for x, y in combinations(hyper.elements, 2))
        assert not ok, "some line extends the hyperoval: maximality broken"


def test_small_arc(small_arc):
    assert small_arc.kind == "pseudo-oval"
    assert len(small_arc.elements) == 9
    assert small_arc.ambient == ProjSpace(8, gf(2))
    hyper = extend_to_hyperoval(small_arc)
    assert len(hyper.elements) == 10


def test_tangent_meeting_an_element_is_an_invariant_failure(conic_oval):
    """A point of the tangent space owned by another element breaks the
    tangent invariant, which names that element."""
    tau = tangent_spaces(conic_oval)[0]
    owner = point_owners(conic_oval.elements)
    owner[next(c for c in tau.point_codes() if owner.get(c) != 0)] = 3
    with pytest.raises(AssertionError, match="tangent space at 0 meets element 3"):
        _tangent(conic_oval, 0, owner)


def _fresh(arc):
    """The same pseudo-oval with an empty tangent cache."""
    return PseudoArc(arc.ambient, arc.n, arc.elements, arc.kind)


def _even_ovals(conic_oval, translation_arc, small_arc, arc_q8n2, arc_q4n3):
    """The q-even pseudo-ovals: the (4,2) conic and translation ovals, the
    conics at (2,3), (8,2) and (4,3), the (4,3) translation oval t -> t^32,
    and the plane conics and translation ovals of PG(2, Q), Q = 2..64."""
    arcs = [conic_oval, translation_arc, small_arc, arc_q8n2, arc_q4n3,
            reduction_map(4, 3).reduce_arc(translation_oval(64, 5))]
    for m in range(1, 7):
        field = field_make(m)
        plane = [conic(field)] + [translation_oval(field, k) for k in range(2, m)
                                  if gcd(k, m) == 1]
        arcs += [make_pseudo_arc(a.ambient, [span([p]) for p in a.points]) for a in plane]
    return arcs


def test_tangents_through_nucleus_match_partition_oracle(
        conic_oval, translation_arc, small_arc, arc_q8n2, arc_q4n3):
    """For q even, the route through the nucleus gives the tangent spaces of
    partition completion at every element, and the nucleus is the common
    (n-1)-space of all k of them."""
    arcs = _even_ovals(conic_oval, translation_arc, small_arc, arc_q8n2, arc_q4n3)
    assert len(arcs) == 6 + 12
    for arc in arcs:
        assert arc.kind == "pseudo-oval" and arc.q % 2 == 0
        owner = point_owners(arc.elements)
        oracle = [_tangent(arc, i, owner) for i in range(len(arc.elements))]
        fresh = _fresh(arc)
        assert tangent_spaces(fresh) == oracle
        common = oracle[0]
        for t in oracle[1:]:
            common = meet(common, t)
        assert common.rank == arc.n
        assert nucleus(fresh) == common == nucleus(_fresh(arc))


def test_tangents_through_nucleus_work_count(arc_q4n3, monkeypatch):
    """Two partitions of 64 images each and one pass of 65 images through
    the nucleus, where partition completion at every element takes
    65 * 64 = 4,160."""
    made = _count_images(monkeypatch)
    tangent_spaces(_fresh(arc_q4n3))
    assert made == [64, 64, 65]
    assert sum(made) == 2 * 64 + 65


def test_extension_reuses_the_nucleus_pass(arc_q4n3, monkeypatch):
    """Extending a fresh (4,3) oval takes only the tangent spaces' images:
    the nucleus pass that certified them is not run again."""
    made = _count_images(monkeypatch)
    hyper = extend_to_hyperoval(_fresh(arc_q4n3))
    assert made == [64, 64, 65]
    assert sum(made) == 2 * 64 + 65
    assert hyper.elements[-1] == nucleus(arc_q4n3)


def test_tangents_through_nucleus_invariants(conic_oval, monkeypatch):
    """A forged tau_1 whose meet with tau_0 is not an (n-1)-space, or is a
    line that does not span with every pair of elements, is an invariant
    failure."""
    import pal.pseudoarcs
    elems = conic_oval.elements
    tau0 = tangent_spaces(conic_oval)[0]
    # a line of tau_0 through a point of e_0: the nucleus pass fails at (0, 1)
    line = conic_oval.ambient.subspace([elems[0].rows[0], nucleus(conic_oval).rows[0]])
    through_line = span([elems[1], line])
    assert meet(tau0, through_line) == line
    tangent = pal.pseudoarcs._tangent
    for forged, message in (
            (tau0, "^nucleus has rank 4, expected 2$"),
            (through_line, "^elements 0,1 and the nucleus do not span the space: "
                           "tangent spaces have no common \\(n-1\\)-space$")):
        monkeypatch.setattr(pal.pseudoarcs, "_tangent",
                            lambda arc, i, owner: forged if i == 1 else tangent(arc, i, owner))
        with pytest.raises(AssertionError, match=message):
            tangent_spaces(_fresh(conic_oval))
