"""Cap-scale instances (q^n = 64): GF(8) < GF(64) and GF(4) < GF(64).

The q=4, n=3 case is the strongest in-hypothesis instance reachable under
the default cap (q > 2 with n an odd prime).
"""

from __future__ import annotations

import pytest

from pal import (derive_spread_from_element, extend_to_hyperoval,
                 is_regular_spread, make_pseudo_arc, nucleus, recognize_regular,
                 reduction_map, tangent_spaces, verify_spread)


def test_q8_construction(arc_q8n2):
    assert arc_q8n2.kind == "pseudo-oval"
    assert len(arc_q8n2.elements) == 65
    assert arc_q8n2.ambient.dim == 5
    assert all(e.dim == 1 for e in arc_q8n2.elements)


def test_q8_derived_spread(arc_q8n2):
    d0 = derive_spread_from_element(arc_q8n2, 0)
    assert len(d0.elements) == 65
    assert verify_spread(d0).ok
    rep = is_regular_spread(d0, mode="fixed")
    assert rep.regular and rep.checked_triples == 2016


def test_q4n3_construction_and_tangents(arc_q4n3):
    assert arc_q4n3.kind == "pseudo-oval"
    assert len(arc_q4n3.elements) == 65
    assert arc_q4n3.ambient.dim == 8
    assert all(e.dim == 2 for e in arc_q4n3.elements)
    taus = tangent_spaces(arc_q4n3)
    assert len(taus) == 65 and all(t.dim == 5 for t in taus)
    nuc = nucleus(arc_q4n3)
    assert nuc.dim == 2
    assert nuc == reduction_map(4, 3).reduce_point((0, 1, 0))
    hyper = extend_to_hyperoval(arc_q4n3)
    assert len(hyper.elements) == 66


def test_q4n3_derived_spread(arc_q4n3):
    d0 = derive_spread_from_element(arc_q4n3, 0)
    assert len(d0.elements) == 65
    assert d0.space.dim == 5
    assert verify_spread(d0).ok
    rep = is_regular_spread(d0, mode="fixed")
    assert rep.regular


def test_q4n3_recognition_round_trip(arc_q4n3):
    rm = reduction_map(4, 3)
    res = recognize_regular(arc_q4n3)
    assert res.regular
    assert res.identification["convention"] == "powerbasis-v1"
    back = rm.reduce_arc(res.plane_arc)
    assert list(back.elements) == list(arc_q4n3.elements)


def test_generalized_arc_reduction():
    # a plain 4-point arc reduces to a verified generalized arc
    rm = reduction_map(4, 2)
    from pal import make_arc
    karc = make_arc(rm.source, [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)])
    reduced = rm.reduce_arc(karc)
    assert reduced.kind == "generalized-arc"
    assert len(reduced.elements) == 4
    with pytest.raises(ValueError, match="pseudo-oval or pseudo-hyperoval"):
        derive_spread_from_element(reduced, 0)
