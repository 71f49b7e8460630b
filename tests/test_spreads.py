from __future__ import annotations

import random
from itertools import combinations, permutations, product

import pytest

import pal.spreads
from pal import (Chart, NotRegularError, ProjSpace, Spread, conic, count_reguli_through_pair,
                 derive_spread_from_element, derive_spread_from_nucleus,
                 derive_tangent_spread_odd, desarguesian_spread, dual_arc,
                 extend_to_hyperoval, gf, is_regular_spread, make_pseudo_arc, meet,
                 opposite_regulus, reduction_map, regularity_reports, regulus_through, span,
                 spread_reguli_design, tangent_spaces, transversal_lines,
                 verify_spread)
from pal.projective import Subspace, mat_inv, rank
from pal.spreads import RegularityReport, Regulus, SpreadReport, sweep_mode

from helpers import alpha_internal, empty


@pytest.fixture(scope="module")
def pg34_spread():
    return desarguesian_spread(4, 2)


def all_lines(space):
    pts = [p.coords for p in space.points()]
    return {space.subspace([pts[a], pts[b]])
            for a, b in combinations(range(len(pts)), 2)}


# -- verify_spread ------------------------------------------------------------


def test_verify_spread_passes(pg34_spread):
    rep = verify_spread(pg34_spread)
    assert rep.ok and rep.count == 17 and rep.expected == 17


def test_verify_spread_drop_element(pg34_spread):
    rep = verify_spread(Spread(pg34_spread.space, pg34_spread.elements[:-1]))
    assert not rep.ok and rep.witness["kind"] == "wrong-count"
    # with the count right but a line replaced by a duplicate, points go uncovered
    elems = pg34_spread.elements[:-1] + (pg34_spread.elements[0],)
    rep2 = verify_spread(Spread(pg34_spread.space, elems))
    assert not rep2.ok
    assert rep2.witness["kind"] in ("duplicate-element", "not-skew")


def _with_crooked_line(spread, pos, i, j):
    """`spread` with element pos replaced by a line joining points of
    elements i and j, so it meets both and equals neither."""
    space, elems = spread.space, spread.elements
    crooked = space.subspace([elems[i].rows[0], elems[j].rows[-1]])
    return Spread(space, elems[:pos] + (crooked,) + elems[pos + 1:])


def _not_skew(pair, point):
    return SpreadReport(False, 17, 17, {"kind": "not-skew", "pair": pair, "point": point},
                        f"elements {pair[0]} and {pair[1]} meet")


def test_verify_spread_meeting_pair(pg34_spread):
    rep = verify_spread(_with_crooked_line(pg34_spread, 16, 0, 1))
    assert rep == _not_skew([0, 16], [0, 0, 1, 0])


@pytest.mark.parametrize("pos, i, j, pair, point", [
    (0, 3, 9, [0, 3], [1, 0, 0, 1]),
    (5, 8, 14, [4, 5], [1, 2, 2, 1]),
    (16, 2, 8, [8, 16], [0, 1, 0, 3]),
])
def test_verify_spread_meeting_witness(pg34_spread, pos, i, j, pair, point):
    """The witness names the first element, in order, that meets an earlier
    one, the earliest such earlier element, and their first common point in
    the later element's point order (a line meets q+1 spread elements, so
    the pair need not be the joined ones)."""
    assert verify_spread(_with_crooked_line(pg34_spread, pos, i, j)) == _not_skew(pair, point)


@pytest.mark.parametrize("q, n", [(4, 2), (2, 3)])
def test_verify_spread_lists_each_elements_points_once(q, n, monkeypatch):
    """One `point_codes_of` call over exactly the spread's elements, in
    order, and no point list of a single element."""
    spread = desarguesian_spread(q, n)
    calls = []
    point_codes_of = pal.spreads.point_codes_of

    def counted(subspaces):
        calls.append(list(subspaces))
        return point_codes_of(calls[-1])
    monkeypatch.setattr(pal.spreads, "point_codes_of", counted)
    monkeypatch.setattr(Subspace, "point_codes", lambda self: calls.append(self))
    assert verify_spread(spread).ok
    assert calls == [list(spread.elements)]


def test_verify_spread_refuses_elements_of_another_space(conic_oval):
    """Elements of PG(3, 8), or lines of PG(5, 4), labelled as a spread of
    PG(3, 4) are refused before any rank or count check."""
    space = desarguesian_spread(4, 2).space
    for elements in (desarguesian_spread(8, 2).elements[:17], conic_oval.elements,
                     desarguesian_spread(4, 2).elements[:16] + conic_oval.elements[:1]):
        assert verify_spread(Spread(space, tuple(elements))) == SpreadReport(
            False, 17, -1, {"kind": "ambient-mismatch"}, "elements do not lie in PG(3, 4)")


def test_degenerate_spreads_are_rejected_not_raised(pg34_spread):
    """verify_spread reports degenerate inputs; spread_reguli_design verifies
    its input first and raises with the report's reason."""
    space = pg34_spread.space
    rep = verify_spread(Spread(space, (empty(space),) * 17))
    assert not rep.ok and rep.witness["kind"] == "dimension-mismatch"
    rep = verify_spread(Spread(space, ()))
    assert (rep.ok, rep.count, rep.witness, rep.reason) == (
        False, 0, {"kind": "wrong-count"}, "no elements")
    with pytest.raises(ValueError, match="^not a spread: no elements$"):
        spread_reguli_design(Spread(space, ()))
    with pytest.raises(ValueError, match="^not a spread: 3 elements, expected 17$"):
        spread_reguli_design(Spread(space, pg34_spread.elements[:3]))
    point = space.subspace([pg34_spread.elements[0].rows[0]])
    rep = verify_spread(Spread(space, pg34_spread.elements[1:] + (point,)))
    assert (rep.ok, rep.count, rep.expected, rep.witness, rep.reason) == (
        False, 17, -1, {"kind": "mixed-dimensions"}, "elements have mixed dimensions")

# -- regulus_through -----------------------------------------------------------


def test_regulus_q2_is_its_generators():
    spread = desarguesian_spread(2, 2)
    a, b, c = spread.elements[:3]
    reg = regulus_through(a, b, c)
    assert len(reg.elements) == 3
    assert reg.element_set() == {a, b, c}


def test_regulus_q4_transversal_incidence(pg34_spread):
    a, b, c = pg34_spread.elements[:3]
    reg = regulus_through(a, b, c)
    assert len(reg.elements) == 5
    trans = transversal_lines(a, b, c)
    assert len(trans) == 5
    for t in trans:
        for e in reg.elements:
            assert meet(t, e).rank == 1
    # brute-force oracle: the transversals are exactly the lines of PG(3,4)
    # meeting all five regulus elements
    oracle = {line for line in all_lines(pg34_spread.space)
              if all(meet(line, e).rank == 1 for e in reg.elements)}
    assert oracle == set(trans)


def test_regulus_permutation_invariance(pg34_spread):
    a, b, c = pg34_spread.elements[:3]
    base = regulus_through(a, b, c).element_set()
    for p in permutations((a, b, c)):
        assert regulus_through(*p).element_set() == base


def test_regulus_determined_by_any_three(pg34_spread):
    reg = regulus_through(*pg34_spread.elements[:3])
    for t in combinations(reg.elements, 3):
        assert regulus_through(*t).element_set() == reg.element_set()


def _line_through(x, skew_to):
    """The first line joining a point of x to another point that meets x in
    that point alone and misses every subspace of `skew_to`."""
    space = x.ambient
    for p, r in product(x.point_vectors(), (pt.coords for pt in space.points())):
        line = space.subspace([p, r])
        if line.rank == 2 and meet(line, x).rank == 1 and \
                all(meet(line, s).rank == 0 for s in skew_to):
            return line
    raise AssertionError("no such line")


def test_regulus_rejects_bad_generators(pg34_spread):
    """Each bad triple raises the frame's whole message: a span of the wrong
    rank is reported before a meeting pair, in PG(3, 4) and in a chart of
    PG(5, 4)."""
    a, c, b = pg34_spread.elements[:3]
    space = pg34_spread.space
    skew = "generators are not pairwise skew"
    plane = [a, space.subspace([a.rows[0], c.rows[0]]), space.subspace([a.rows[1], c.rows[0]])]
    cases = [
        ((a, _line_through(a, [c]), c), skew),             # b meets a
        ((a, _line_through(c, [a]), c), skew),             # b meets c
        ((a, b, _line_through(a, [b])), skew),             # a meets c
        (tuple(plane), "generators span rank 3, expected 4"),
        ((a, a, a), "generators span rank 2, expected 4"),
        ((a, space.subspace([b.rows[0]]), c), "generators have different dimensions"),
    ]
    big = ProjSpace(5, gf(4))
    chart = Chart(big.subspace([(1, 0, 0, 0, 1, 1), (0, 1, 0, 0, 1, 0),
                                (0, 0, 1, 0, 0, 1), (0, 0, 0, 1, 1, 1)]))
    lifted = [tuple(chart.to_ambient(s) for s in gens) for gens, _ in cases[:4]]
    off_hull = big.subspace([(0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)])
    cases += [
        (lifted[0], skew),
        (lifted[2], skew),
        (lifted[3], "generators span rank 3, expected 4"),
        ((lifted[0][0], lifted[0][2], off_hull), "generators span rank 6, expected 4"),
        ((a, b, chart.to_ambient(c)), "ambient spaces differ"),
    ]
    for gens, message in cases:
        for fn in (regulus_through, transversal_lines):
            with pytest.raises(ValueError) as err:
                fn(*gens)
            assert str(err.value) == message, (gens, fn)


def _regulus_by_scaled_maps(a, b, c):
    """Reference regulus through a, b, c: the span's chart when it is
    proper, then one `_graph_rows` call per lambda on the entrywise scaled
    matrix lambda.F."""
    hull = span([a, b, c])
    chart = Chart(hull) if hull.rank != a.ambient.dim + 1 else None
    if chart is not None:
        a, b, c = (chart.to_internal(s) for s in (a, b, c))
    space = a.ambient
    fld = space.field
    m_inv = mat_inv(fld, list(a.rows) + list(c.rows))
    fmap = pal.spreads._graph_map(fld, m_inv, b.rows, a.rank)
    elements = [a, c]
    for lam in range(1, fld.order):
        scaled = [tuple(fld.mul(lam, x) for x in row) for row in fmap]
        elements.append(space.subspace(pal.spreads._graph_rows(fld, a.rows, scaled, c.rows)))
    assert b in elements
    if chart is None:
        return Regulus(space, (a, b, c), tuple(sorted(elements, key=lambda s: s.rows)))
    out = tuple(sorted((chart.to_ambient(e) for e in elements), key=lambda s: s.rows))
    gens = tuple(chart.to_ambient(s) for s in (a, b, c))
    return Regulus(chart.ambient, gens, out, carrier=hull)


def _skew_triples(space, n, rng, count):
    """`count` seeded triples of pairwise-skew random (n-1)-spaces of PG(2n-1, q)."""
    fld = space.field
    found = []
    while len(found) < count:
        gens = [space.subspace([tuple(rng.randrange(fld.order) for _ in range(2 * n))
                                for _ in range(n)]) for _ in range(3)]
        if all(rank(fld, x.rows + y.rows) == 2 * n for x, y in combinations(gens, 2)):
            found.append(gens)
    return found


@pytest.mark.parametrize("q, n", [(4, 2), (8, 2), (4, 3), (3, 2)])
def test_regulus_matches_scaled_map_construction(q, n):
    """Elements a_k + lambda.G_k, G = F.C, are the graphs of the scaled maps."""
    rng = random.Random(1000 * q + n)
    if q % 2:
        space, triples = ProjSpace(2 * n - 1, gf(q)), []
    else:
        spread = desarguesian_spread(q, n)
        space = spread.space
        triples = [rng.sample(spread.elements, 3) for _ in range(12)]
    triples += _skew_triples(space, n, rng, 6)
    for gens in triples:
        assert regulus_through(*gens) == _regulus_by_scaled_maps(*gens)


def test_regulus_of_dual_arc_alphas_matches_scaled_maps(conic_dual):
    """beta_i ^ beta_j read in PG(5, 4) span the proper hull beta_i: the chart path."""
    rng = random.Random(7)
    k = len(conic_dual.betas)
    for _ in range(12):
        i = rng.randrange(k)
        chart = Chart(conic_dual.gammas[i].carrier)
        gens = [chart.to_ambient(alpha_internal(conic_dual, i, j))
                for j in rng.sample([j for j in range(k) if j != i], 3)]
        reg = regulus_through(*gens)
        assert reg.carrier == conic_dual.betas[i]
        assert reg == _regulus_by_scaled_maps(*gens)


# -- opposite regulus -----------------------------------------------------------


def test_opposite_regulus_involution(pg34_spread):
    reg = regulus_through(*pg34_spread.elements[:3])
    opp = opposite_regulus(reg)
    assert opposite_regulus(opp).element_set() == reg.element_set()
    for x in reg.elements:
        for y in opp.elements:
            assert meet(x, y).rank == 1  # the two rulings meet pointwise
    for y1, y2 in combinations(opp.elements, 2):
        assert meet(y1, y2).rank == 0


def test_opposite_regulus_needs_lines():
    spread = desarguesian_spread(2, 3)
    reg = regulus_through(*spread.elements[:3])
    with pytest.raises(ValueError, match="n=2"):
        opposite_regulus(reg)


# -- regularity ------------------------------------------------------------------


def test_regular_closure_full_sweep(pg34_spread):
    rep = is_regular_spread(pg34_spread, mode="full")
    assert rep.regular and rep.checked_triples == 680


def test_fixed_element_mode_agrees(pg34_spread):
    rep = is_regular_spread(pg34_spread, mode="fixed")
    assert rep.regular and rep.checked_triples == 120


def test_swapped_regulus_breaks_regularity(pg34_spread):
    reg = regulus_through(*pg34_spread.elements[:3])
    opp = opposite_regulus(reg)
    elems = tuple(e for e in pg34_spread.elements
                  if e not in reg.element_set()) + opp.elements
    bad = Spread(pg34_spread.space, elems)
    assert verify_spread(bad).ok  # still a spread
    rep = is_regular_spread(bad)
    assert not rep.regular
    assert rep.witness["kind"] == "regulus-closure"
    assert "triple" in rep.witness and "missing_element" in rep.witness


def test_q2_closure_is_vacuous():
    spread = desarguesian_spread(2, 2)
    rep = is_regular_spread(spread)
    assert rep.regular and rep.vacuous and rep.mode == "vacuous"
    assert "vacuous" in rep.reason


# -- the distinct-reguli enumerator against a plain triple sweep ------------------


def hall_spread(q, seed=None):
    """The Desarguesian spread of PG(3, q) with one regulus swapped for its
    opposite.  Unshuffled, it starts with two lines a, b and the lines x whose
    regulus <a, b, x> stays inside, so a sweep meets covered triples before
    its witness; `seed` shuffles the elements instead."""
    desarg = desarguesian_spread(q, 2)
    reg = regulus_through(*desarg.elements[:3])
    lines = [e for e in desarg.elements if e not in reg.element_set()]
    lines += opposite_regulus(reg).elements
    if seed is not None:
        random.Random(seed).shuffle(lines)
        return Spread(desarg.space, tuple(lines))
    present = set(lines)
    a = lines[0]
    for b in lines[1:]:
        rest = [x for x in lines if x not in (a, b)]
        inside = [x for x in rest if regulus_through(a, b, x).element_set() <= present]
        if len(inside) >= 2 * (q - 1):
            break
    ordered = [a, b] + inside + [x for x in rest if x not in inside]
    return Spread(desarg.space, tuple(ordered))


def plain_regularity(spread, mode):
    """(regular, checked_triples, witness) of a sweep that builds every regulus."""
    elems = spread.elements
    k = len(elems)
    if mode == "full":
        triples = combinations(range(k), 3)
    else:
        triples = ((0, i, j) for i, j in combinations(range(1, k), 2))
    present = spread.element_set()
    checked = 0
    for t in triples:
        checked += 1
        for e in regulus_through(*(elems[i] for i in t)).elements:
            if e not in present:
                return False, checked, {"kind": "regulus-closure", "triple": list(t),
                                        "missing_element": [list(r) for r in e.rows]}
    return True, checked, None


@pytest.fixture(scope="module")
def hall_fixtures():
    return [hall_spread(4), hall_spread(4, seed=1), hall_spread(8), hall_spread(8, seed=2)]


def test_enumerator_matches_plain_sweep(pg34_spread, hall_fixtures):
    for spread in [pg34_spread] + hall_fixtures:
        for mode in ("full", "fixed"):
            rep = is_regular_spread(spread, mode=mode)
            expected = plain_regularity(spread, mode)
            assert (rep.regular, rep.checked_triples, rep.witness) == expected
    # the unshuffled Hall spreads fail only after covered triples
    for spread, q in ((hall_fixtures[0], 4), (hall_fixtures[2], 8)):
        assert is_regular_spread(spread).checked_triples > 2 * (q - 1)


def test_full_sweep_builds_each_regulus_once(pg34_spread, monkeypatch):
    calls = []

    def counting(*gens):
        calls.append(gens)
        return regulus_through(*gens)

    monkeypatch.setattr(pal.spreads, "regulus_through", counting)
    sweep = list(pal.spreads.distinct_reguli(pg34_spread, combinations(range(17), 3)))
    assert len(sweep) == 680  # every triple is yielded
    built = [frozenset(members) for _, _, members in sweep if members is not None]
    assert len(calls) == len(built) == len(set(built)) == 68  # q^2 (q^2 + 1), not C(17, 3)
    assert all(len(members) == 5 for members in built)
    # the regularity test stops building at the certificate
    calls.clear()
    rep = is_regular_spread(pg34_spread, mode="full")
    assert rep.regular and rep.checked_triples == 680
    assert len(calls) == pal.spreads.CERTIFICATE_AFTER


# -- the spread-set certificate against the plain regulus sweep -------------------


def _outcome(spread, mode):
    try:
        return is_regular_spread(spread, mode=mode)
    except ValueError as err:
        return type(err), str(err)


def test_certificate_keeps_reports(pg34_spread, conic_hyperoval, arc_q8n2, arc_q4n3,
                                   hall_fixtures, zero_divisor_set, subfield_closed_set,
                                   monkeypatch):
    """Reports and raised errors with the certificate equal those of the
    plain sweep (certificate off) in every mode."""
    regular = ([pg34_spread]
               + [derive_spread_from_element(conic_hyperoval, i) for i in (0, 17)]
               + [derive_spread_from_element(arc_q8n2, i) for i in (0, 64)]
               + [derive_spread_from_element(arc_q4n3, 5)])
    # element 14 lies on the last of the five reguli through elements 0 and
    # 1; moved to the end and then dropped or overwritten, it leaves the
    # other four inside, so the sweep reaches the certificate
    elems = pg34_spread.elements
    elems = elems[:14] + elems[15:] + (elems[14],)
    planted = [zero_divisor_set(4), subfield_closed_set(4),
               Spread(pg34_spread.space, elems[:-1] + (elems[5],)),  # a repeat
               Spread(pg34_spread.space, elems[:-1])]                # q^n elements
    inputs = regular + hall_fixtures + planted
    certify = pal.spreads.spread_field
    verdicts = {}

    def spy(spread):
        field = certify(spread)
        verdicts[id(spread)] = field is not None
        return field

    monkeypatch.setattr(pal.spreads, "spread_field", spy)
    modes = ("full", "fixed", "auto")
    on = [[_outcome(s, m) for m in modes] for s in inputs]
    verdicts_on = dict(verdicts)
    # the sweep compares CERTIFICATE_AFTER with a count of at least 1
    monkeypatch.setattr(pal.spreads, "CERTIFICATE_AFTER", 0)
    off = [[_outcome(s, m) for m in modes] for s in inputs]
    assert verdicts == verdicts_on  # the sweep no longer asks the certificate
    assert on == off
    # the regular inputs take the certificate; the planted ones reach it, are
    # refused, and then fail the sweep
    assert [verdicts.get(id(s)) for s in regular] == [True] * len(regular)
    assert [verdicts.get(id(s)) for s in planted] == [False] * len(planted)
    assert not any(isinstance(o, RegularityReport) and o.regular
                   for row in off[-len(planted):] for o in row)


def _shuffled(spread, seed):
    elems = list(spread.elements)
    random.Random(seed).shuffle(elems)
    return Spread(spread.space, tuple(elems))


def _check_shared_reports(spreads, monkeypatch):
    """regularity_reports(spreads) equals the per-spread reports; the
    certificate's data stays only on the first spread of each certified
    element set, and each such set is certified once.  Returns the reports
    and the spread_field verdicts in call order."""
    expected = [is_regular_spread(s) for s in spreads]
    certify = pal.spreads.spread_field
    verdicts = []

    def spy(spread):
        field = certify(spread)
        verdicts.append(field is not None)
        return field

    monkeypatch.setattr(pal.spreads, "spread_field", spy)
    reports = regularity_reports(spreads)
    monkeypatch.undo()
    assert reports == expected
    assert [r.mode for r in reports] == [sweep_mode(s) for s in spreads]
    firsts = {}
    for s, r in zip(spreads, expected):
        if r.spread_set is not None:
            firsts.setdefault(s.element_set(), s)
    assert [r.spread_set is not None for r in reports] == \
        [firsts.get(s.element_set()) is s for s in spreads]
    assert verdicts.count(True) == len(firsts)
    return reports, verdicts


@pytest.mark.parametrize("q", [4, 8])
def test_shared_reports_of_derived_spreads(q, conic_hyperoval, arc_q8n2, monkeypatch):
    """The k derived spreads of a conic hyperoval are one element set: one
    certificate for all of them."""
    arc = conic_hyperoval if q == 4 else extend_to_hyperoval(arc_q8n2)
    derived = [derive_spread_from_element(arc, i) for i in range(len(arc.elements))]
    assert len({s.element_set() for s in derived}) == 1
    assert _check_shared_reports(derived, monkeypatch)[1] == [True]


@pytest.mark.parametrize("q", [4, 8])
def test_shared_reports_of_shuffled_desarguesian_spreads(q, monkeypatch):
    """Seeded element orders of one Desarguesian spread, and a second spread
    of PG(3, q): one certificate per element set."""
    desarg = desarguesian_spread(q, 2)
    spreads = [_shuffled(desarg, seed) for seed in range(4)]
    # reversing the coordinates is a collineation: the image is a spread
    spreads.insert(2, Spread(desarg.space, tuple(
        desarg.space.subspace([r[::-1] for r in e.rows]) for e in desarg.elements)))
    n_sets = len({s.element_set() for s in spreads})
    assert n_sets == 2
    assert _check_shared_reports(spreads, monkeypatch)[1] == [True] * n_sets


def test_shared_reports_keep_refusals_apart(hall_fixtures, pg34_spread, monkeypatch):
    """Hall spreads keep their own sweeps and witnesses, also when two share
    an element set; q = 2 spreads stay vacuous; Desarguesian spreads between
    them share one certificate."""
    vacuous = [desarguesian_spread(2, 2), desarguesian_spread(2, 3),
               _shuffled(desarguesian_spread(2, 2), 5)]
    spreads = [hall_fixtures[0], vacuous[0], pg34_spread, hall_fixtures[1], vacuous[1],
               _shuffled(pg34_spread, 9), hall_fixtures[2], vacuous[2], hall_fixtures[3]]
    assert hall_fixtures[0].element_set() == hall_fixtures[1].element_set()
    assert hall_fixtures[0].elements != hall_fixtures[1].elements
    reports, _ = _check_shared_reports(spreads, monkeypatch)
    hall = [any(s is h for h in hall_fixtures) for s in spreads]
    assert [r.vacuous for r in reports] == [s.space.field.order == 2 for s in spreads]
    assert [r.regular for r in reports] == [not h for h in hall]
    assert all(r.witness is not None for r, h in zip(reports, hall) if h)


def test_reguli_design_and_pair_count_match_plain_sweep(pg34_spread, hall_fixtures):
    elems = pg34_spread.elements
    index_of = {e: i for i, e in enumerate(elems)}
    blocks = set()
    for t in combinations(range(len(elems)), 3):
        reg = regulus_through(*(elems[i] for i in t))
        blocks.add(frozenset(index_of[e] for e in reg.elements))
    assert set(map(frozenset, spread_reguli_design(pg34_spread).blocks)) == blocks
    for spread, (ai, bi) in product([pg34_spread] + hall_fixtures, ((0, 1), (5, 2))):
        a, b = spread.elements[ai], spread.elements[bi]
        seen = {}
        for x in spread.elements:
            if x not in (a, b):
                reg = regulus_through(a, b, x)
                seen.setdefault(reg.element_set(), reg)
        count, reguli, contained = count_reguli_through_pair(spread, ai, bi)
        assert count == len(seen)
        assert [r.generators for r in reguli] == [r.generators for r in seen.values()]
        assert contained == [key <= spread.element_set() for key in seen]


def test_reguli_design_rejects_hall_spread(hall_fixtures):
    spread = hall_fixtures[0]
    _, _, witness = plain_regularity(spread, "full")
    with pytest.raises(NotRegularError) as err:
        spread_reguli_design(spread)
    assert err.value.witness == witness


# -- derived spreads ---------------------------------------------------------------


def test_derived_spread_hyperoval(conic_hyperoval):
    for i in (0, 7, 17):
        spread = derive_spread_from_element(conic_hyperoval, i)
        assert len(spread.elements) == 17
        assert spread.space == ProjSpace(3, gf(4))
        assert verify_spread(spread).ok


def test_derived_spread_oval_includes_tangent_image(conic_oval):
    spread = derive_spread_from_element(conic_oval, 3)
    assert len(spread.elements) == 17
    assert verify_spread(spread).ok
    from pal.projective import QuotientMap
    qm = QuotientMap(conic_oval.elements[3])
    eta = qm.images([tangent_spaces(conic_oval)[3]])[0]
    assert spread.elements[3] == eta  # index-aligned insertion


def test_derived_regularity(conic_hyperoval):
    for i in (0, 9):
        spread = derive_spread_from_element(conic_hyperoval, i)
        assert is_regular_spread(spread).regular


def test_nucleus_spread_equals_extension_derivation(conic_oval, conic_hyperoval):
    from_nucleus = derive_spread_from_nucleus(conic_oval)
    from_extension = derive_spread_from_element(conic_hyperoval, 17)
    assert from_nucleus.element_set() == from_extension.element_set()
    assert verify_spread(from_nucleus).ok
    assert is_regular_spread(from_nucleus).regular


def test_nucleus_spread_odd_q_rejected(conic_hyperoval):
    with pytest.raises(ValueError):
        derive_spread_from_nucleus(conic_hyperoval)


def test_tangent_spread_odd_n1():
    arc5 = conic(gf(5))
    pa = make_pseudo_arc(arc5.ambient, [span([p]) for p in arc5.points])
    spread = derive_tangent_spread_odd(pa, 2)
    assert len(spread.elements) == 6
    assert verify_spread(spread).ok
    assert spread.carrier == tangent_spaces(pa)[2]
    assert spread.elements[2].rows  # pi_i sits at its own index


def test_tangent_spread_rejects_even_q(conic_oval):
    with pytest.raises(ValueError, match="odd"):
        derive_tangent_spread_odd(conic_oval, 0)


# -- dual arc ---------------------------------------------------------------------


def test_dual_arc_structure(conic_dual):
    assert len(conic_dual.betas) == 18
    for beta in conic_dual.betas:
        assert beta.dim == 3
    for i, gamma in enumerate(conic_dual.gammas):
        assert len(gamma.elements) == 17
        assert verify_spread(gamma).ok
        assert gamma.carrier == conic_dual.betas[i]


def test_dual_alpha_dimensions(conic_dual):
    for i, j in ((0, 1), (3, 11), (16, 17)):
        assert meet(conic_dual.betas[i], conic_dual.betas[j]).dim == 1


def test_dual_gamma_regularity_matches_delta(conic_hyperoval, conic_dual):
    for i in (0, 5, 17):
        delta = derive_spread_from_element(conic_hyperoval, i)
        dv = is_regular_spread(delta).regular
        gv = is_regular_spread(conic_dual.gammas[i]).regular
        assert dv == gv


@pytest.mark.parametrize("arc_name", ["conic_hyperoval", "small_arc"])
def test_dual_arc_alphas_match_meet(arc_name, request):
    """Every Gamma_i element, built as one kernel in beta_i's frame, is the
    meet of beta_i and beta_j read in beta_i's chart, at (4, 2) and (2, 3)."""
    da = dual_arc(request.getfixturevalue(arc_name))
    k = len(da.betas)
    for i in range(k):
        chart = Chart(da.betas[i])
        for j in range(k):
            if j != i:
                expected = chart.to_internal(meet(da.betas[i], da.betas[j]))
                assert alpha_internal(da, i, j) == expected


def test_dual_arc_of_oval_appends_nucleus(conic_oval):
    da = dual_arc(conic_oval)
    assert len(da.betas) == 18
    assert len(da.arc.elements) == 18


def test_dual_arc_odd_q_rejected():
    arc5 = conic(gf(5))
    pa = make_pseudo_arc(arc5.ambient, [span([p]) for p in arc5.points])
    with pytest.raises(ValueError):
        dual_arc(pa)


# -- regulus counting ----------------------------------------------------------------


def test_count_reguli_q4(pg34_spread):
    count, reguli, contained = count_reguli_through_pair(pg34_spread, 0, 1)
    assert count == 5  # (q^n - 1)/(q - 1) = 15/3
    assert all(contained)
    assert all(len(r.elements) == 5 for r in reguli)
    # consistency: the 15 other elements split into 5 regulus-remainders of q-1
    rest = set(pg34_spread.elements[2:])
    remainders = [r.element_set() - {pg34_spread.elements[0], pg34_spread.elements[1]}
                  for r in reguli]
    assert sorted(len(x) for x in remainders) == [3, 3, 3, 3, 3]
    assert set().union(*remainders) == rest


def test_count_reguli_q2():
    spread = desarguesian_spread(2, 2)
    count, reguli, contained = count_reguli_through_pair(spread, 0, 1)
    assert count == 3
    assert all(contained)
    assert all(len(r.elements) == 3 for r in reguli)


def test_count_reguli_bad_indices(pg34_spread):
    with pytest.raises(ValueError):
        count_reguli_through_pair(pg34_spread, 0, 0)
