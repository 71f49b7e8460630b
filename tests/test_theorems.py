from __future__ import annotations

from itertools import combinations

import pytest

from pal import (DesignSpec, NotRegularError, RecognitionResult, TheoremParams,
                 check_design, check_theorem, desarguesian_spread, dual_arc,
                 extend_to_hyperoval, gf, lines_design, make_pseudo_arc, regulus_blocks,
                 spread_reguli_design)
from pal import theorems
from pal.cli import _pg2_lines_design


def test_theorem_61(conic_hyperoval):
    rep = check_theorem(conic_hyperoval, TheoremParams("6.1"))
    assert rep.verdict == "consistent"
    assert rep.forward == "pass" and rep.converse == "pass"
    assert rep.hypothesis["in_hypothesis"]
    assert len(rep.spreads) == 18
    assert all(e["spread_ok"] and e["regular"] for e in rep.spreads)
    assert rep.recognition["regular"]
    assert rep.exit_code() == 0


def test_theorem_62(conic_oval):
    rep = check_theorem(conic_oval, TheoremParams("6.2"))
    assert rep.verdict == "consistent"
    assert len(rep.spreads) == 17
    assert rep.forward == "pass" and rep.converse == "pass"


def test_theorem_63_default_and_explicit(conic_hyperoval):
    rep = check_theorem(conic_hyperoval, TheoremParams("6.3", rho=15))
    assert rep.verdict == "consistent"
    assert sum(1 for e in rep.spreads if e["given"]) == 15
    rep2 = check_theorem(conic_hyperoval,
                         TheoremParams("6.3", given=tuple(range(2, 18))))
    assert rep2.verdict == "consistent"
    assert rep2.recognition["regular"]


def test_theorem_63_rho_bound(conic_hyperoval):
    with pytest.raises(ValueError, match="rho"):
        check_theorem(conic_hyperoval, TheoremParams("6.3", rho=14))


def test_theorem_71(conic_hyperoval):
    rep = check_theorem(conic_hyperoval, TheoremParams("7.1", delta0=2))
    assert rep.verdict == "consistent"
    with pytest.raises(ValueError, match="delta0"):
        check_theorem(conic_hyperoval, TheoremParams("7.1", delta0=3))  # q-2 = 2


def test_converse_fails_when_recognition_raises(conic_hyperoval, monkeypatch):
    """A NotRegularError from recognition is a failed converse; its message
    and witness go into the report."""
    witness = {"kind": "regulus-closure", "spread": "gamma[0]", "triple": [1, 2, 3]}

    def refuse(arc, given=None):
        raise NotRegularError("Gamma_0 is not regular", witness)
    monkeypatch.setattr(theorems, "recognize_regular", refuse)
    rep = check_theorem(conic_hyperoval, TheoremParams("6.1"))
    assert rep.recognition == {"regular": False, "error": "Gamma_0 is not regular",
                               "witness": witness}
    assert (rep.forward, rep.converse, rep.verdict) == ("pass", "fail", "inconsistent")
    assert rep.exit_code() == 3


def test_forward_not_applicable_without_witness(conic_hyperoval, monkeypatch):
    """An arc with no construction witness that recognition does not accept
    is not believed regular, so the forward direction does not apply."""
    arc = make_pseudo_arc(conic_hyperoval.ambient, conic_hyperoval.elements)
    assert arc.witness is None
    failed = RecognitionResult(False, None, None, None, {}, None)
    monkeypatch.setattr(theorems, "recognize_regular", lambda arc, given=None: failed)
    rep = check_theorem(arc, TheoremParams("6.1"))
    assert all(e["regular"] for e in rep.spreads)
    assert (rep.forward, rep.converse, rep.verdict) == ("not-applicable", "fail", "inconsistent")
    assert rep.exit_code() == 3


def test_theorem_kind_gate(conic_oval, conic_hyperoval):
    with pytest.raises(ValueError, match="pseudo-hyperoval"):
        check_theorem(conic_oval, TheoremParams("6.1"))
    with pytest.raises(ValueError, match="pseudo-oval"):
        check_theorem(conic_hyperoval, TheoremParams("6.2"))
    with pytest.raises(ValueError):
        TheoremParams("6.4")


def test_out_of_hypothesis_q2(small_arc):
    hyper = extend_to_hyperoval(small_arc)
    rep = check_theorem(hyper, TheoremParams("6.1"))
    assert rep.verdict == "out-of-hypothesis"
    assert not rep.hypothesis["h_greater_one"]
    assert rep.hypothesis["n_prime"]
    assert rep.exit_code() == 4
    # the checks themselves still ran and are internally consistent
    assert rep.forward == "pass" and rep.converse == "pass"
    assert all(e["vacuous"] for e in rep.spreads)


# -- design checker -----------------------------------------------------------


def test_pg24_lines_design():
    spec = _pg2_lines_design(4)
    assert (spec.t, spec.v, spec.k, spec.lam) == (2, 21, 5, 1)
    rep = check_design(spec)
    assert rep.ok
    assert rep.multiplicities == {1: 210}


def test_fano_design():
    spec = _pg2_lines_design(2)
    assert (spec.v, spec.k) == (7, 3)
    assert check_design(spec).ok


def test_deleted_block_yields_uncovered_pair():
    spec = _pg2_lines_design(4)
    broken = DesignSpec(spec.points, spec.blocks[1:], 2, spec.v, spec.k, 1)
    rep = check_design(broken)
    assert not rep.ok
    assert rep.witness["kind"] == "cover"
    assert rep.witness["count"] == 0
    assert set(rep.witness["subset"]) <= set(spec.blocks[0])


def test_point_count_and_exception_set_violations():
    spec = _pg2_lines_design(2)
    cases = [(spec.points[:-1], frozenset(), "point-count", "6 points, expected v=7"),
             (spec.points[:-1] + (0,), frozenset(), "point-count", "7 points, expected v=7"),
             (spec.points, frozenset({0, 99}), "exception-set",
              "exception set is not a subset of the points")]
    for points, exceptions, kind, reason in cases:
        rep = check_design(DesignSpec(points, spec.blocks, 2, spec.v, spec.k, 1, exceptions))
        assert (rep.ok, rep.multiplicities, rep.witness, rep.reason) == (
            False, {}, {"kind": kind}, reason)


def test_block_size_violation():
    spec = _pg2_lines_design(2)
    bad = DesignSpec(spec.points, spec.blocks + (frozenset({0, 1}),),
                     2, spec.v, spec.k, 1)
    rep = check_design(bad)
    assert not rep.ok and rep.witness["kind"] == "block-size"


def test_spread_reguli_3_design():
    spread = desarguesian_spread(4, 2)
    spec = spread_reguli_design(spread)
    assert (spec.t, spec.v, spec.k, spec.lam) == (3, 17, 5, 1)
    assert len(spec.blocks) == 68
    rep = check_design(spec)
    assert rep.ok
    assert rep.multiplicities == {1: 680}


def test_exception_set_passes_on_full_design():
    spread = desarguesian_spread(4, 2)
    spec = spread_reguli_design(spread, exceptions=(0, 1))
    rep = check_design(spec)
    assert rep.ok  # exactly-one cover satisfies the relaxed rule too


def test_exception_set_rejects_damaged_instance():
    spread = desarguesian_spread(4, 2)
    spec = spread_reguli_design(spread, exceptions=(0, 1))
    kept = tuple(b for b in spec.blocks if not {0, 1} <= set(b))
    damaged = DesignSpec(spec.points, kept, 3, spec.v, spec.k, 1,
                         exceptions=frozenset({0, 1}))
    rep = check_design(damaged)
    # triples with one point in Q lose their unique block: condition (iii) fails
    assert not rep.ok
    assert rep.witness["kind"] == "cover"
    assert len(set(rep.witness["subset"]) & {0, 1}) <= 1


def test_regulus_blocks_tabulation(conic_dual):
    spec = regulus_blocks(conic_dual)
    assert (spec.t, spec.v, spec.k, spec.lam) == (4, 18, 6, 1)
    assert all(len(b) == 6 for b in spec.blocks)
    rep = check_design(spec)
    # the regular case does not produce a 4-design; Kantor's classification
    # would otherwise force q = 2
    assert not rep.ok
    assert sum(rep.multiplicities.values()) == 3060  # C(18, 4)
    assert set(rep.multiplicities) == {1, 4, 13}


def test_regulus_blocks_match_per_gamma_sweep(conic_dual, monkeypatch):
    """One sweep per distinct element set gives the blocks of a sweep of every
    Gamma_s, also when some Gamma_s list the shared set in another order."""
    import pal.spreads
    from pal import DualArc, Spread, regulus_through
    from pal.spreads import distinct_reguli
    assert len({g.element_set() for g in conic_dual.gammas}) == 1
    gammas = list(conic_dual.gammas)
    for s in (3, 7):
        g = gammas[s]
        gammas[s] = Spread(g.space, tuple(reversed(g.elements)), carrier=g.carrier)
    k = len(gammas)
    expected = set()
    for s, g in enumerate(gammas):
        partner = [j for j in range(k) if j != s]
        for _, _, members in distinct_reguli(g, combinations(range(k - 1), 3)):
            if members is not None:
                expected.add(frozenset({s} | {partner[m] for m in members}))
    calls = []
    monkeypatch.setattr(pal.spreads, "regulus_through",
                        lambda *gens: calls.append(gens) or regulus_through(*gens))
    spec = regulus_blocks(DualArc(conic_dual.arc, conic_dual.betas, tuple(gammas)))
    assert set(map(frozenset, spec.blocks)) == expected
    assert len(calls) == 68  # the shared set's q^2 (q^2 + 1) reguli, built once
    assert spec.blocks != regulus_blocks(conic_dual).blocks


def test_regulus_blocks_rejects_irregular_gamma(conic_dual):
    """The block pass is also the closure check: a Hall spread in place of
    Gamma_2 fails with the witness of is_regular_spread."""
    from pal import (DualArc, NotRegularError, Spread, is_regular_spread,
                     opposite_regulus, regulus_through)
    desarg = desarguesian_spread(4, 2)
    reg = regulus_through(*desarg.elements[:3])
    hall = Spread(desarg.space,
                  tuple(e for e in desarg.elements if e not in reg.element_set())
                  + opposite_regulus(reg).elements)
    gammas = list(conic_dual.gammas)
    gammas[2] = hall
    bad = DualArc(conic_dual.arc, conic_dual.betas, tuple(gammas))
    with pytest.raises(NotRegularError, match="Gamma_2") as err:
        regulus_blocks(bad)
    assert err.value.witness == is_regular_spread(hall).witness


def enumerated_check(spec):
    """Reference check: walk every t-subset and count its blocks; returns
    (ok, multiplicities, witness) for a spec that passes the block checks."""
    mult, witness = {}, None
    for sub in combinations(sorted(spec.points), spec.t):
        c = sum(1 for b in spec.blocks if set(sub) <= set(b))
        mult[c] = mult.get(c, 0) + 1
        excess = len(set(sub) & spec.exceptions) > 1
        if witness is None and (c > spec.lam if excess else c != spec.lam):
            witness = {"kind": "cover", "subset": list(sub), "count": c,
                       "expected": f"<= {spec.lam}" if excess else spec.lam}
    return witness is None, mult, witness


def _design_cases():
    pg2 = _pg2_lines_design(4)
    reguli = spread_reguli_design(desarguesian_spread(4, 2), exceptions=(0, 1))
    pair = next(b for b in reguli.blocks if {0, 1} <= set(b))
    return {
        "valid": pg2,
        "missing-block": DesignSpec(pg2.points, pg2.blocks[:7] + pg2.blocks[8:],
                                    2, pg2.v, pg2.k, 1),
        "duplicated-block": DesignSpec(pg2.points, pg2.blocks + pg2.blocks[9:10],
                                       2, pg2.v, pg2.k, 1),
        "exceptions-valid": reguli,
        "exceptions-under-cover": DesignSpec(
            reguli.points, tuple(b for b in reguli.blocks if b != pair),
            3, reguli.v, reguli.k, 1, reguli.exceptions),
        "exceptions-over-cover": DesignSpec(
            reguli.points, reguli.blocks + (pair,),
            3, reguli.v, reguli.k, 1, reguli.exceptions),
        # a missing line whose points are all exceptions leaves only pairs
        # with two exception points uncovered, which the rule allows
        "exceptions-uncovered-valid": DesignSpec(
            pg2.points, pg2.blocks[1:], 2, pg2.v, pg2.k, 1, pg2.blocks[0]),
    }


@pytest.mark.parametrize("case", sorted(_design_cases()))
def test_check_design_matches_enumeration(case):
    spec = _design_cases()[case]
    rep = check_design(spec)
    assert (rep.ok, rep.multiplicities, rep.witness) == enumerated_check(spec)
    assert rep.ok == case.endswith("valid")


BLOCK_SHAPES = {"frozenset": frozenset, "list": list, "unsorted": lambda b: list(b)[::-1],
                "repeating": lambda b: list(b) + list(b)[:1]}


@pytest.mark.parametrize("case", sorted(_design_cases()))
def test_design_spec_normalizes_any_block_shape(case):
    """Blocks given as frozensets, lists, unsorted lists or lists with a
    repeated point make the same spec, hence the same report."""
    spec = _design_cases()[case]
    assert all(type(b) is tuple and list(b) == sorted(set(b)) for b in spec.blocks)
    for shape in BLOCK_SHAPES.values():
        other = DesignSpec(spec.points, [shape(b) for b in spec.blocks], spec.t,
                           spec.v, spec.k, spec.lam, tuple(spec.exceptions))
        assert other == spec
        assert check_design(other) == check_design(spec)


def test_repeated_points_count_once():
    """A repeated point counts once, as it did in a frozenset block: [1, 1, 2]
    with k = 3 is a block-size failure, and the witnesses list the block in
    increasing order."""
    short = DesignSpec((0, 1, 2, 3), ([1, 1, 2], [0, 1, 2]), 2, 4, 3, 1)
    assert short.blocks == ((1, 2), (0, 1, 2))
    rep = check_design(short)
    assert (rep.ok, rep.witness, rep.reason) == (
        False, {"kind": "block-size", "block": [1, 2]}, "block of size 2, expected k=3")
    stray = DesignSpec((0, 1, 2), ([2, 0], {9, 1}), 2, 3, 2, 1)
    rep = check_design(stray)
    assert (rep.ok, rep.witness) == (False, {"kind": "stray-block", "block": [1, 9]})


def _planted_designs():
    """t = 2, lambda = 1 designs without exceptions: PG(2, 4), and PG(2, 4)
    with a pair covered twice, with a line missing, and with both."""
    pg2 = _pg2_lines_design(4)
    extra = frozenset(sorted(pg2.blocks[0])[:2]
                      + sorted(set(pg2.blocks[1]) - set(pg2.blocks[0]))[:3])
    return {
        "valid": pg2,
        "double-cover": DesignSpec(pg2.points, pg2.blocks[:-1] + (extra,), 2, pg2.v, pg2.k, 1),
        "uncovered": DesignSpec(pg2.points, pg2.blocks[:-1], 2, pg2.v, pg2.k, 1),
        "duplicated-block": DesignSpec(pg2.points, pg2.blocks + pg2.blocks[:1],
                                       2, pg2.v, pg2.k, 1),
    }


@pytest.mark.parametrize("case", sorted(_planted_designs()))
def test_pair_bitsets_match_counting(case, monkeypatch):
    """The block-wise pair check gives the report of the counting path,
    which it falls back to at its first anomaly."""
    spec = _planted_designs()[case]
    rep = check_design(spec)
    assert (theorems._pair_partition(sorted(spec.points), spec.blocks) is not None) == rep.ok
    monkeypatch.setattr(theorems, "_pair_partition", lambda order, blocks: None)
    counted = check_design(spec)
    assert (rep.ok, rep.multiplicities, rep.witness, rep.reason) == \
        (counted.ok, counted.multiplicities, counted.witness, counted.reason)
    assert (rep.ok, rep.multiplicities, rep.witness) == enumerated_check(spec)
    assert rep.ok == (case == "valid")


@pytest.mark.parametrize("case", ["exceptions-valid", "exceptions-under-cover",
                                  "exceptions-uncovered-valid"])
def test_pair_bitsets_skip_exceptions_and_triples(case, monkeypatch):
    """An exception set or t = 3 takes the counting path only."""
    def refuse(order, blocks):
        raise AssertionError("bitset path taken")
    monkeypatch.setattr(theorems, "_pair_partition", refuse)
    spec = _design_cases()[case]
    rep = check_design(spec)
    assert (rep.ok, rep.multiplicities, rep.witness) == enumerated_check(spec)


def test_lines_design_builder():
    pts = ("a", "b", "c")
    blocks = [("a", "b"), ("b", "c"), ("a", "c")]
    spec = lines_design(pts, blocks)
    assert check_design(spec).ok


def test_exit_codes():
    from pal.theorems import TheoremReport
    base = dict(theorem="6.1", hypothesis={}, spreads=[], recognition=None)
    assert TheoremReport(forward="pass", converse="pass",
                         verdict="consistent", **base).exit_code() == 0
    assert TheoremReport(forward="fail", converse="pass",
                         verdict="inconsistent", **base).exit_code() == 3
    assert TheoremReport(forward="pass", converse="pass",
                         verdict="out-of-hypothesis", **base).exit_code() == 4
