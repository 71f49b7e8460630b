"""Executable checks of the characterization theorems and the design
conditions they lean on.

The harness verifies what is checkable at desk scale: the forward direction
(a regular arc has all derived spreads regular) exhaustively, and the
converse direction by running the recognition construction under the stated
hypotheses.  Converse results are reported as consistent, never as proven:
no non-regular pseudo-arc is known to test against.  Instances with q = 2
or n composite run anyway but are labelled out-of-hypothesis.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb
from operator import lt

from .pseudoarcs import PseudoArc
from .sigma import NotRegularError, recognize_regular
from .spreads import (DualArc, Spread, _closure_witness, derive_spread_from_element,
                      distinct_reguli, regularity_reports, verify_spread)

THEOREMS = ("6.1", "6.2", "6.3", "7.1")


@dataclass(frozen=True)
class TheoremParams:
    theorem: str
    rho: int | None = None            # 6.3: how many derived spreads are given
    delta0: int = 0                   # 7.1: slack, at most q - 2
    given: tuple[int, ...] | None = None  # explicit given indices

    def __post_init__(self):
        if self.theorem not in THEOREMS:
            raise ValueError(f"unknown theorem id {self.theorem!r}")
        # a parameter the theorem would ignore is refused
        if self.rho is not None and self.theorem != "6.3":
            raise ValueError(f"theorem {self.theorem} takes no rho")
        if self.rho is not None and self.given is not None:
            raise ValueError("theorem 6.3 takes rho or given indices, not both")
        if self.given is not None and self.theorem in ("6.1", "6.2"):
            raise ValueError(f"theorem {self.theorem} takes no given indices")
        if self.delta0 != 0 and self.theorem != "7.1":
            raise ValueError(f"theorem {self.theorem} takes no delta0")


@dataclass
class TheoremReport:
    theorem: str
    hypothesis: dict
    spreads: list
    forward: str       # pass | fail | not-applicable
    converse: str      # pass | fail | not-applicable
    recognition: dict | None
    verdict: str       # consistent | inconsistent | out-of-hypothesis

    def exit_code(self) -> int:
        if self.verdict == "out-of-hypothesis":
            return 4
        return 0 if self.verdict == "consistent" else 3


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n**0.5) + 1))


def check_theorem(arc: PseudoArc, params: TheoremParams) -> TheoremReport:
    """Run one theorem's checkable directions on a pseudo-arc."""
    q, n = arc.q, arc.n
    h = q.bit_length() - 1
    needs = "pseudo-oval" if params.theorem == "6.2" else "pseudo-hyperoval"
    if arc.kind != needs:
        raise ValueError(f"theorem {params.theorem} needs a {needs}, got {arc.kind}")
    hyp = {
        "q": q, "h": h, "n": n,
        "q_power_of_two": q == 1 << h,
        "h_greater_one": h > 1,
        "n_prime": _is_prime(n),
    }
    hyp["in_hypothesis"] = all((hyp["q_power_of_two"], hyp["h_greater_one"],
                                hyp["n_prime"]))
    k = len(arc.elements)
    given = _given_indices(params, q, n, k)

    # derive_spread_from_element raises unless the spread verifies
    derived = [derive_spread_from_element(arc, i) for i in range(k)]
    spreads = [{"index": i, "given": i in given, "spread_ok": True,
                "regular": rr.regular, "vacuous": rr.vacuous, "witness": rr.witness}
               for i, rr in enumerate(regularity_reports(derived))]
    regular_flags = {e["index"]: e["regular"] for e in spreads}

    believed_regular = arc.witness is not None
    recognition = None
    rec_given = sorted(given) if params.theorem in ("6.3", "7.1") else None
    converse = "not-applicable"
    if all(regular_flags[i] for i in given):
        try:
            res = recognize_regular(arc, given=rec_given)
            recognition = {"regular": res.regular, "choice": res.choice,
                           "identification": res.identification,
                           "line_counts": list(res.line_counts or ())}
            converse = "pass" if res.regular else "fail"
            if res.regular:
                believed_regular = True
        except NotRegularError as err:
            recognition = {"regular": False, "error": str(err), "witness": err.witness}
            converse = "fail"

    if believed_regular:
        forward = "pass" if all(regular_flags.values()) else "fail"
    else:
        forward = "not-applicable"

    if not hyp["in_hypothesis"]:
        verdict = "out-of-hypothesis"
    elif "fail" in (forward, converse):
        verdict = "inconsistent"
    else:
        verdict = "consistent"
    return TheoremReport(params.theorem, hyp, spreads, forward, converse,
                         recognition, verdict)


def _given_indices(params: TheoremParams, q: int, n: int, k: int) -> set[int]:
    """The given indices after every check that needs the arc, in order: index
    range, delta0 bounds (7.1), rho bounds (6.3), count of given spreads."""
    if params.theorem in ("6.1", "6.2"):
        return set(range(k))
    if params.given is not None:
        bad = [i for i in params.given if not 0 <= i < k]
        if bad:
            raise ValueError(f"given indices out of range: {bad}")
    if params.theorem == "7.1":
        if params.delta0 > q - 2:
            raise ValueError(f"theorem 7.1 needs delta0 <= q - 2 = {q - 2}")
        if params.delta0 < 0:
            raise ValueError("theorem 7.1 needs delta0 >= 0")
        least = rho = q**n + 1 - params.delta0
        bound = "q^n + 1 - delta0"
    else:
        # rho is None with given indices, and k passes both bounds
        least, bound = q**n - 1, f"q^n - 1 = {q ** n - 1}"
        rho = params.rho if params.rho is not None else k
        if rho < least:
            raise ValueError(f"theorem 6.3 needs rho >= {bound}")
        if rho > k:
            raise ValueError(f"theorem 6.3 needs rho <= k = {k}")
    given = set(range(k - rho, k) if params.given is None else params.given)
    if len(given) < least:
        raise ValueError(f"theorem {params.theorem} needs at least {bound} given spreads")
    return given


# -- incidence-structure checking --------------------------------------------


@dataclass(frozen=True)
class DesignSpec:
    """A candidate t-(v, k, lambda) design, with an optional exception set Q:
    t-subsets with more than one point in Q only need at-most-lambda cover.

    The one place that fixes the block format: a block given as any
    iterable is held as the strictly increasing tuple of its distinct points
    (a repeated point counts once), in the given block order, and no reader
    sorts it again.
    """

    points: tuple
    blocks: tuple[tuple[int, ...], ...]
    t: int
    v: int
    k: int
    lam: int
    exceptions: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(map(_block, self.blocks)))
        object.__setattr__(self, "exceptions", frozenset(self.exceptions))


def _block(b) -> tuple[int, ...]:
    """b as the strictly increasing tuple of its distinct points; a block
    already in that form is kept as it is."""
    if type(b) is tuple and all(map(lt, b, b[1:])):
        return b
    return tuple(sorted({*b}))


@dataclass
class DesignCheckReport:
    ok: bool
    multiplicities: dict
    witness: dict | None
    reason: str


def check_design(spec: DesignSpec) -> DesignCheckReport:
    """t-subset cover check with the exception rule.

    A linear space (t = 2, lambda = 1, no exceptions) is first checked block
    by block (`_pair_partition`).  Otherwise, and when that finds a pair
    covered twice or left uncovered, the histogram comes from the block
    counts of the covered t-subsets; t-subsets are walked, in lexicographic
    order, only to find the witness."""
    pts = list(spec.points)
    if len(pts) != spec.v or len(set(pts)) != spec.v:
        return DesignCheckReport(False, {}, {"kind": "point-count"},
                                 f"{len(pts)} points, expected v={spec.v}")
    pset = set(pts)
    if not spec.exceptions <= pset:
        return DesignCheckReport(False, {}, {"kind": "exception-set"},
                                 "exception set is not a subset of the points")
    for b in spec.blocks:
        if len(b) != spec.k:
            return DesignCheckReport(False, {}, {"kind": "block-size",
                                                 "block": list(b)},
                                     f"block of size {len(b)}, expected k={spec.k}")
        if not pset.issuperset(b):
            return DesignCheckReport(False, {}, {"kind": "stray-block",
                                                 "block": list(b)},
                                     "block contains unknown points")
    order = sorted(pts)
    if spec.t == 2 and spec.lam == 1 and not spec.exceptions:
        pairs = _pair_partition(order, spec.blocks)
        if pairs is not None:
            return DesignCheckReport(True, Counter({1: pairs} if pairs else {}), None, "ok")
    counts = Counter(sub for b in spec.blocks for sub in combinations(b, spec.t))
    mult = Counter(counts.values())
    uncovered = comb(spec.v, spec.t) - len(counts)
    if uncovered > 0:
        mult[0] = uncovered
    witness = None
    if any(m != spec.lam for m in mult):
        for sub in combinations(order, spec.t):
            c = counts.get(sub, 0)
            excess = len(set(sub) & spec.exceptions) > 1
            if c > spec.lam if excess else c != spec.lam:
                witness = {"kind": "cover", "subset": list(sub), "count": c,
                           "expected": f"<= {spec.lam}" if excess else spec.lam}
                break
    if witness is not None:
        return DesignCheckReport(False, mult, witness,
                                 f"{spec.t}-subset {witness['subset']} lies in "
                                 f"{witness['count']} blocks")
    return DesignCheckReport(True, mult, None, "ok")


def _pair_partition(order, blocks) -> int | None:
    """C(v, 2) when every pair of the v points in `order` lies in exactly
    one block; None at the first pair covered twice, or when one is left
    uncovered.

    Each point keeps an int bitmask of the points that share a block with
    it, and a block whose mask meets a member's bitmask covers a pair twice.
    With no pair covered twice the blocks cover sum C(|b|, 2) distinct
    pairs, so every pair is covered iff that sum is C(v, 2).
    """
    bit = {p: 1 << i for i, p in enumerate(order)}
    seen = dict.fromkeys(order, 0)
    covered = 0
    for b in blocks:
        mask = sum(map(bit.__getitem__, b))
        for p in b:
            others = mask ^ bit[p]
            if seen[p] & others:
                return None
            seen[p] |= others
        covered += comb(len(b), 2)
    return covered if covered == comb(len(order), 2) else None


def lines_design(space_points, lines) -> DesignSpec:
    """(points, lines) of a projective plane as a 2-(v, k, 1) candidate."""
    pts = tuple(space_points)
    lines = tuple(lines)
    return DesignSpec(pts, lines, 2, len(pts), len(set(lines[0])), 1)


def _inside_reguli(spread: Spread, reason: str):
    """Yield (regulus, members) for the distinct reguli of `spread`, in sweep
    order; the first one leaving it raises NotRegularError(reason) with
    the regularity sweep's witness."""
    triples = combinations(range(len(spread.elements)), 3)
    for t, reg, members in distinct_reguli(spread, triples):
        if members is None:
            continue
        if len(members) < len(reg):
            raise NotRegularError(reason, _closure_witness(spread, t, reg, members))
        yield reg, members


def spread_reguli_design(spread: Spread, exceptions=()) -> DesignSpec:
    """Blocks = the distinct reguli of a regular spread, as index sets.

    For a regular spread this is a 3-(q^n+1, q+1, 1) candidate: the circle
    structure behind the improvement hypothesis.  A non-spread raises ValueError.
    """
    report = verify_spread(spread)
    if not report.ok:
        raise ValueError(f"not a spread: {report.reason}")
    k = len(spread.elements)
    # members are sorted index lists, so their tuples are blocks as they stand
    blocks = sorted(tuple(members) for _, members in
                    _inside_reguli(spread, "spread is not regular: a regulus leaves it"))
    q = spread.space.field.order
    return DesignSpec(tuple(range(k)), blocks, 3, k, q + 1, 1, exceptions)


def regulus_blocks(da: DualArc) -> DesignSpec:
    """Blocks of dual-arc elements through the reguli of the dual spreads.

    Every regulus inside a spread Gamma_s yields the q+2 indices whose dual
    contains one of its elements (s itself plus the q+1 partners).  The
    result is tabulated against the 4-(q^n+2, q+2, 1) parameters but is not
    expected to verify for q > 2: a valid 4-design of these parameters
    exists only at q = 2, so the checker reports multiplicities instead.

    The reguli of a spread depend only on its element set, which the Gamma_s
    often share (all of them, for the conic), so each distinct set is swept
    once, at its first Gamma_s; its reguli are kept as member indices of
    that Gamma_s and read in every Gamma_s with the set through the
    Gamma_s's own indices.  An irregular set raises at its first Gamma_s,
    with that Gamma_s's witness.
    """
    k = len(da.betas)
    q = da.arc.q
    blocks: set[tuple[int, ...]] = set()
    reguli_of: dict[frozenset, tuple] = {}  # element set -> (swept Gamma_s, reguli)
    for s in range(k):
        gamma = da.gammas[s]
        key = gamma.element_set()
        if key not in reguli_of:
            reguli_of[key] = (gamma, [members for _, members in
                                      _inside_reguli(gamma, f"Gamma_{s} is not regular")])
        swept, reguli = reguli_of[key]
        index_of = {e: m for m, e in enumerate(gamma.elements)}
        # element m of Gamma_s is beta_s ^ beta_partner[m], as dual_arc lists
        # them; label[m] is that partner for element m of the swept Gamma
        partner = [j for j in range(k) if j != s]
        label = [partner[index_of[e]] for e in swept.elements]
        for members in reguli:
            block = tuple(sorted({s, *map(label.__getitem__, members)}))
            if len(block) != q + 2:
                raise AssertionError(f"block of size {len(block)}, expected {q + 2}")
            blocks.add(block)
    return DesignSpec(tuple(range(k)), sorted(blocks), 4, k, q + 2, 1)
