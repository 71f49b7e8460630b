"""Spreads, reguli and the derived-spread family of a pseudo-arc.

A spread here is any partition of a projective space into (n-1)-subspaces:
the derived spreads live in PG(2n-1, q) (or in a carrier (2n-1)-subspace of
PG(3n-1, q), stored with internal coordinates plus the carrier), and the
generated spreads of PG(3n-1, q) use the same type.

The regulus through three pairwise-skew (n-1)-spaces A, B, C spanning a
(2n-1)-space is {A, C} plus the graphs of the nonzero multiples of the
map f: A -> C whose graph is B.  Its frame aligns B to A modulo C.
Reduction modulo C (in RREF) projects along C onto W, the span of C's
non-pivot unit vectors, and sends the rows of A and B to a^ and b^.  One
RREF of the rows [b^_k | b_k] has W's unit rows as its b^ half iff B
misses C, and its b half B* then gives B'_k = sum_j a^_k[w_j] B*_j (w_j
the j-th non-pivot column), the vector of B congruent to a_k.  So G_k =
B'_k - a_k lies in C, G = F.C for the matrix F of f, and the graph of
lambda.f is spanned by the rows a_k + lambda.G_k.  A misses C iff a^ has
rank n, and then A misses B iff G has rank n.  Over a field with byte
tables each row is one int in the point-code layout; other fields take the
same steps on tuples.  Regularity of a spread means closure under reguli;
at q = 2 a regulus is its three generators, so closure is vacuous and
reports say so.

Every question about the reguli of a spread (closure, the 3-design of its
reguli, the dual-arc blocks, the reguli through a pair) walks index triples
through one enumerator, `distinct_reguli`.  It builds the regulus of a
triple only when no earlier regulus contains all three elements: exactly
one regulus passes through three pairwise-skew (n-1)-spaces spanning a
(2n-1)-space, so such a covered triple has the earlier regulus.  A full
sweep of a regular spread of PG(3, q) therefore builds each of its
q(q^2+1) reguli once instead of C(q+1, 3) times.  Covered triples still
count as checked, and a sweep that stops at the first regulus leaving the
spread stops at the same triple as a plain sweep, since a covered triple
has a regulus that was already found inside the spread; counts and
witnesses are those of the plain sweep.

A spread of PG(2n-1, q) also has a spread set: with elements 0 and 1 as
A and C, every other element is the graph of a map A -> C, and dividing by
the map of element 2 makes that one the identity.  When the q^n - 1
normalized maps are exactly the nonzero elements of a field of order q^n,
the spread is Desarguesian: A + C is a 2-dimensional vector space over
that field and the elements are its 1-dimensional subspaces.
`spread_field` is the one test of this; it returns the field's data, which
serves both the regularity certificate below and the transversal lines of
`sigma`.  A Desarguesian spread is regular for every q > 2 and every n:
the regulus through elements 0, 1 and 2 is {A, C} plus the graphs of the
scalars, so it lies in the spread, and the field's PGL(2, q^n), which
preserves reguli, is 3-transitive on the elements.  So `is_regular_spread`
returns "regular" on such a certificate without sweeping, with the report
a sweep would give: a sweep of a regular spread never stops early, so it
checks every triple of its mode.  Bruck's converse (Bruck-Bose 1964;
Bruck 1969: for q > 2 a regular spread is Desarguesian) explains why every
regular input takes this path; the verdicts do not rest on it.

A certified report depends on the element set alone: its mode and triple
count depend only on the number of elements, and it has no witness.  So
`regularity_reports` certifies each distinct element set once and gives
every later spread with that set the same report, without the
certificate's data, which is read in the first spread's element order.
The derived spreads of a conic hyperoval are one element set, so a
theorem check makes one certificate for all of them.  A refused or
vacuous report is not shared: each such spread is swept in its own
order, so its witness is the one its own sweep finds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations
from operator import itemgetter

from .projective import (Chart, ProjSpace, QuotientMap, Subspace, _codes_of,
                         _normalized_vectors, _packed, _packed_echelon, _unpacked,
                         dual, kernel, mat_inv, mat_mul, meet, rank, reduce_mod, rref, span,
                         vec_mat)
from .pseudoarcs import PseudoArc, extend_to_hyperoval, nucleus, tangent_spaces

# 'auto' regularity sweeps all triples up to this many; above it (spreads of
# --force instances past q^n = 64) only the triples through element 0
FULL_SWEEP_CAP = 10**5

# distinct reguli a regularity sweep builds before it tries the spread-set
# certificate: most irregular inputs show a witness by then, so they skip it
CERTIFICATE_AFTER = 4


@dataclass(frozen=True)
class Spread:
    """A partition of `space` into equal-dimensional subspaces.

    `carrier` records the ambient subspace this spread's space is a chart
    of, when it arose inside one (the beta_i of a dual arc).
    """

    space: ProjSpace
    elements: tuple[Subspace, ...]
    carrier: Subspace | None = None
    origin: str = ""

    def __len__(self):
        return len(self.elements)

    def element_set(self) -> frozenset[Subspace]:
        return frozenset(self.elements)


@dataclass(frozen=True)
class Regulus:
    space: ProjSpace
    generators: tuple[Subspace, Subspace, Subspace]
    elements: tuple[Subspace, ...]
    carrier: Subspace | None = None

    def __len__(self):
        return len(self.elements)

    def element_set(self) -> frozenset[Subspace]:
        return frozenset(self.elements)


@dataclass(frozen=True)
class SpreadReport:
    ok: bool
    count: int
    expected: int
    witness: dict | None
    reason: str


@dataclass(frozen=True)
class RegularityReport:
    """The verdict of `is_regular_spread`.  `spread_set` is the certificate's
    `spread_field` result when the certificate decided the verdict, else
    None; it is working data, left out of equality, repr and every file."""

    regular: bool
    vacuous: bool
    mode: str
    checked_triples: int
    witness: dict | None
    spread_set: tuple | None = field(default=None, compare=False, repr=False)

    @property
    def reason(self) -> str:
        if self.regular:
            return "regular (vacuous: q=2)" if self.vacuous else "regular"
        w = self.witness
        return f"triple {w['triple']} generates a regulus element outside the spread"


def verify_spread(spread: Spread) -> SpreadReport:
    """Count, pairwise skewness and exact point cover, with witnesses.

    Every element must lie in `spread.space`.  Points are keyed on their
    codes, one flat list for all elements (`_codes_of`).  A repeated code
    names a meeting pair; once the count is right, pairwise disjoint
    elements cover expected * (q^r-1)/(q-1) distinct points, which is every
    point of the space, so the cover needs no check of its own.  One set of
    the list settles a spread; only a repeat walks the elements' slices in
    order, and the first code of the first element that meets an earlier
    one is decoded back to the coordinate vector that names the meeting
    pair, the same witness a walk over `point_vectors` finds.
    """
    elems = spread.elements
    space = spread.space
    q = space.field.order
    if not elems:
        return SpreadReport(False, 0, -1, {"kind": "wrong-count"}, "no elements")
    if any(e.ambient is not space and e.ambient != space for e in elems):
        return SpreadReport(False, len(elems), -1, {"kind": "ambient-mismatch"},
                            f"elements do not lie in {space}")
    ranks = {e.rank for e in elems}
    if len(ranks) != 1:
        return SpreadReport(False, len(elems), -1, {"kind": "mixed-dimensions"},
                            "elements have mixed dimensions")
    r = ranks.pop()
    if r == 0 or (space.dim + 1) % r:
        return SpreadReport(False, len(elems), -1, {"kind": "dimension-mismatch"},
                            f"rank-{r} elements cannot partition {space}")
    expected = (q ** (space.dim + 1) - 1) // (q**r - 1)
    if len(set(elems)) != len(elems):
        return SpreadReport(False, len(elems), expected, {"kind": "duplicate-element"},
                            "duplicate elements")
    if len(elems) != expected:
        return SpreadReport(False, len(elems), expected, {"kind": "wrong-count"},
                            f"{len(elems)} elements, expected {expected}")
    flat = _codes_of(elems)
    if len(set(flat)) < len(flat):
        covered: dict[int, int] = {}
        for idx, codes in enumerate(flat[j::len(elems)] for j in range(len(elems))):
            if not covered.keys().isdisjoint(codes):
                code = next(c for c in codes if c in covered)
                other = covered[code]
                return SpreadReport(False, len(elems), expected,
                                    {"kind": "not-skew", "pair": [other, idx],
                                     "point": list(space.decode(code))},
                                    f"elements {other} and {idx} meet")
            covered.update(dict.fromkeys(codes, idx))
    return SpreadReport(True, len(elems), expected, None, "ok")


def verified_spread(spread: Spread, label: str) -> Spread:
    """`spread` after verify_spread; a failure breaks an invariant of the
    construction that built it, so it raises AssertionError, not ValueError."""
    report = verify_spread(spread)
    if not report.ok:
        raise AssertionError(f"{label} failed verification: {report.reason}")
    return spread


def _regulus_frame(a: Subspace, b: Subspace, c: Subspace):
    """The frame of three pairwise-skew (n-1)-spaces spanning a (2n-1)-space.

    Returns (chart, (a, b, c), g): the chart of their span (None when it is
    the whole ambient), the three in chart coordinates and the rows G_k of
    the aligned frame (module docstring) as tuples.  Only when a skewness
    check fails is the span's rank computed, to say which condition broke:
    a span of the wrong rank first, else a meeting pair.
    """
    if not (a.ambient == b.ambient == c.ambient):
        raise ValueError("ambient spaces differ")
    n = a.rank
    if b.rank != n or c.rank != n:
        raise ValueError("generators have different dimensions")
    chart = None
    if a.ambient.dim + 1 != 2 * n:
        hull = span([a, b, c])
        if hull.rank != 2 * n:
            raise ValueError(f"generators span rank {hull.rank}, expected {2 * n}")
        chart = Chart(hull)
        a, b, c = (chart.to_internal(s) for s in (a, b, c))
    g = _aligned_rows(a, b, c)
    if g is not None:
        return chart, (a, b, c), g
    fld = a.ambient.field
    r = rank(fld, a.rows + b.rows + c.rows)
    if r != 2 * n:
        raise ValueError(f"generators span rank {r}, expected {2 * n}")
    raise ValueError("generators are not pairwise skew")


def _aligned_rows(a: Subspace, b: Subspace, c: Subspace):
    """The rows G_k of the frame of a, b, c in PG(2n-1, q) (module
    docstring), or None when the three are not pairwise skew."""
    fld = a.ambient.field
    n, length = a.rank, a.ambient.dim + 1
    tables = fld.mul_bytes()
    if tables is None:
        def red(v):
            return reduce_mod(fld, v, c.rows, c.pivots)
        star, cols = rref(fld, [red(r) + r for r in b.rows])
        a_hat = [red(r) for r in a.rows]
        if cols[-1] >= length or rank(fld, a_hat) < n:
            return None
        b_star = [r[length:] for r in star]
        g = [tuple(map(fld.sub, vec_mat(fld, [x[w] for w in cols], b_star), r))
             for x, r in zip(a_hat, a.rows)]
        return g if rank(fld, g) == n else None
    half = 8 * length
    c_basis = [(8 * (length - 1 - p), bytes(r)) for p, r in zip(c.pivots, c.rows)]
    b_rows, a_rows = _packed(b.rows), _packed(a.rows)
    star = _packed_echelon([_packed_sum(r, r, c_basis, tables) << half | r for r in b_rows],
                           tables, 2 * length, True)
    a_hat = [_packed_sum(r, r, c_basis, tables) for r in a_rows]
    # the last RREF row has the highest pivot, in the b^ half iff they all are
    if not star[-1] >> half or len(_packed_echelon(a_hat, tables, length, False)) < n:
        return None
    b_star = [((r.bit_length() - 1 - half) & ~7, (r & (1 << half) - 1).to_bytes(length, "big"))
              for r in star]
    # a_k plus B'_k, which is G_k in characteristic 2
    g = [_packed_sum(x, y, b_star, tables) for x, y in zip(a_rows, a_hat)]
    if len(_packed_echelon(g, tables, length, False)) < n:
        return None
    return [tuple(x.to_bytes(length, "big")) for x in g]


def _packed_sum(x: int, y: int, basis, tables) -> int:
    """x plus c*r over the (s, r) of `basis`, with c the byte of y at bit
    shift s and r a row as bytes, all rows packed.  With y = x and an RREF
    basis, s at each pivot, this is x reduced modulo the basis."""
    for s, r in basis:
        c = y >> s & 255
        if c:
            x ^= int.from_bytes(r.translate(tables[c]), "big")
    return x


def regulus_through(a: Subspace, b: Subspace, c: Subspace) -> Regulus:
    """The q+1 maximal spaces through three pairwise-skew (n-1)-spaces.

    The three must span a (2n-1)-space; if that is a proper subspace of the
    ambient, the regulus is computed in its chart and mapped back.  The
    element of lambda in GF(q)* is spanned by the rows a_k + lambda.G_k
    (module docstring): over a table field one translate and one xor per
    packed row, then one packed RREF, decoded into its `Subspace` once.
    Lambda = 1 gives the rows B'_k of b, so that element must be b, and b
    takes its place, as a and c take those of A and C (in PG(2n-1, q) they
    are the generators themselves).  The elements are sorted by rows.
    """
    gens = (a, b, c)
    chart, (a, b, c), g = _regulus_frame(a, b, c)
    space = a.ambient
    fld = space.field
    tables = fld.mul_bytes()
    if tables is None:
        _, add_scaled, _ = fld.row_ops

        def element(lam):
            return space.subspace([add_scaled(x, lam, r) for x, r in zip(a.rows, g)])
        keyed = [(e.rows, e) for e in map(element, range(2, fld.order))]
        b_key, keys = element(1).rows, [s.rows for s in (a, b, c)]
    else:
        length = space.dim + 1
        a_rows, g_rows = _packed(a.rows), [bytes(r) for r in g]

        def element(lam):
            t = tables[lam]
            return tuple(_packed_echelon([x ^ int.from_bytes(r.translate(t), "big")
                                          for x, r in zip(a_rows, g_rows)], tables, length, True))
        keyed = [(rows, _unpacked(space, rows)) for rows in map(element, range(2, fld.order))]
        b_key, keys = element(1), [a_rows, _packed(b.rows), _packed(c.rows)]
    if b_key != keys[1]:
        raise AssertionError("graph parametrization missed a generator")
    keyed += zip(keys, (a, b, c))
    # codes are fixed-width big-endian, so packed rows sort as `rows` do
    keyed.sort(key=itemgetter(0))
    if chart is None:
        return Regulus(space, gens, tuple([e for _, e in keyed]))
    out = sorted((chart.to_ambient(e) for _, e in keyed), key=lambda s: s.rows)
    return Regulus(chart.ambient, gens, tuple(out), carrier=chart.carrier)


def transversal_lines(a: Subspace, b: Subspace, c: Subspace) -> list[Subspace]:
    """All (q^n-1)/(q-1) lines meeting every element of the regulus (a,b,c).

    With the rows G of the frame (module docstring), the transversal
    through the point x.A of a meets c in x.G and b in x.(A + G).
    """
    chart, (a, b, c), g = _regulus_frame(a, b, c)
    space = a.ambient
    fld = space.field
    lines = []
    for x in _normalized_vectors(fld, a.rank):
        line = space.subspace([vec_mat(fld, x, a.rows), vec_mat(fld, x, g)])
        lines.append(chart.to_ambient(line) if chart is not None else line)
    return lines


def opposite_regulus(reg: Regulus) -> Regulus:
    """For line reguli of a 3-space (n=2): the q+1 transversal lines."""
    n = reg.generators[0].rank
    if n != 2:
        raise ValueError("the opposite regulus exists for line reguli (n=2) only")
    lines = transversal_lines(*reg.generators)
    elements = tuple(sorted(lines, key=lambda s: s.rows))
    return Regulus(reg.space, tuple(elements[:3]), elements, reg.carrier)


def distinct_reguli(spread: Spread, triples):
    """Yield (triple, regulus, members) for the index triples of `spread`, in order.

    `members` lists, in increasing order, the spread indices of the
    regulus's elements, so the regulus lies in the spread exactly when
    len(members) == len(regulus).  Triples spanning more than a
    (2n-1)-space carry no regulus and are skipped (they occur only for
    spreads of PG(3n-1, q)).  After a regulus is built, every triple of its
    members is covered: it has the same regulus, since exactly one regulus
    passes through three pairwise-skew (n-1)-spaces spanning a
    (2n-1)-space.  A covered triple is yielded with that regulus and
    members=None; regulus_through runs only for the others.
    """
    elems = spread.elements
    if not elems:
        return
    fld = spread.space.field
    full_rank = 2 * elems[0].rank
    needs_filter = spread.space.dim + 1 > full_rank
    index_of = {e: i for i, e in enumerate(elems)}
    covered: dict[tuple, Regulus] = {}
    for t in triples:
        reg = covered.get(tuple(sorted(t)))
        if reg is not None:
            yield t, reg, None
            continue
        gens = [elems[i] for i in t]
        if needs_filter and rank(fld, [r for g in gens for r in g.rows]) != full_rank:
            continue
        reg = regulus_through(*gens)
        members = sorted(index_of[e] for e in reg.elements if e in index_of)
        covered.update(dict.fromkeys(combinations(members, 3), reg))
        yield t, reg, members


def _closure_witness(spread: Spread, triple, reg: Regulus, members) -> dict:
    """The witness of a regulus leaving the spread: its first element outside."""
    inside = {spread.elements[i] for i in members}
    missing = next(e for e in reg.elements if e not in inside)
    return {"kind": "regulus-closure", "triple": list(triple),
            "missing_element": [list(r) for r in missing.rows]}


def spread_field(spread: Spread):
    """The spread set of `spread` when it is a field of order q^n, else None.

    With elements 0 and 1 as A and C, element i >= 2 is the graph of a map
    M_i: A -> C, and M_i . M_2^-1 is its normalized matrix, so element 2
    gives the identity.  The walk over i = 2, 3, ... stops at the first
    failure.  X is the first matrix whose minimal polynomial has degree n
    (for n >= 2 it is not scalar), so GF(q)[X], spanned by I, X, ...,
    X^(n-1), has q^n elements.  The q^n - 1 matrices must be distinct,
    invertible and in GF(q)[X]: then they are all of its nonzero elements,
    each invertible, so GF(q)[X] is a field and the spread is Desarguesian
    (module docstring).  An input of any other shape (ambient, count,
    ranks, an element that is not a graph) gives None.

    M_i is G_i, of the frame of A, element i and C (module docstring), on
    C's pivot columns, since G_i = M_i.C and C is in RREF.

    Returns (a, c, g, mats, x, minpoly): g is G_2, mats maps each index
    i >= 2 to its normalized matrix, and minpoly is the monic minimal
    polynomial of X, low-degree coefficients first.
    """
    elems = spread.elements
    space = spread.space
    fld = space.field
    n = elems[0].rank
    if (space.dim + 1 != 2 * n or len(elems) != fld.order**n + 1
            or any(e.rank != n or e.ambient != space for e in elems)):
        return None
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    a, c = elems[0], elems[1]
    mats: dict[int, tuple] = {}
    seen: set[tuple] = set()
    basis = None  # RREF basis of GF(q)[X], matrices flattened
    for i in range(2, len(elems)):
        g_i = _aligned_rows(a, elems[i], c)
        if g_i is None:  # A and C meet, or element i meets one of them
            return None
        f = [[row[p] for p in c.pivots] for row in g_i]
        if i == 2:
            g, f_inv = g_i, mat_inv(fld, f)
        m = tuple(mat_mul(fld, f, f_inv))
        flat = tuple(x for row in m for x in row)
        if flat in seen:
            return None
        seen.add(flat)
        mats[i] = m
        if basis is None:
            powers = [identity]
            while len(powers) < n:
                powers.append(tuple(mat_mul(fld, powers[-1], m)))
            flats = [tuple(x for r in p for x in r) for p in powers]
            rows, pivots = rref(fld, flats)
            if len(rows) < n:
                continue
            basis, pending, gen = (rows, pivots), seen, m
        else:
            pending = (flat,)
        if any(any(reduce_mod(fld, v, *basis)) for v in pending):
            return None
    if basis is None:
        return None
    # powers and flats are still those of X and independent, so the relations
    # sum c_k X^k = 0 (Cayley-Hamilton gives one) are one line, with c_n != 0
    x_n = tuple(x for r in mat_mul(fld, powers[-1], gen) for x in r)
    (relation,), _ = kernel(fld, list(zip(*flats, x_n)), n + 1)
    minpoly = [fld.mul(fld.inv(relation[-1]), c) for c in relation]
    return a, c, g, mats, gen, minpoly


def sweep_mode(spread: Spread, mode: str = "auto") -> str:
    """The mode of `is_regular_spread(spread, mode)`'s report: 'vacuous' at
    q = 2, else `mode`, with 'auto' read as 'full' when the spread has at
    most FULL_SWEEP_CAP triples and as 'fixed' otherwise."""
    if spread.space.field.order == 2:
        return "vacuous"
    if mode == "auto":
        k = len(spread.elements)
        return "full" if k * (k - 1) * (k - 2) // 6 <= FULL_SWEEP_CAP else "fixed"
    if mode not in ("full", "fixed"):
        raise ValueError(f"unknown mode {mode!r}")
    return mode


def is_regular_spread(spread: Spread, mode: str = "auto") -> RegularityReport:
    """Regulus-closure test over distinct_reguli, shortened by the spread-set
    certificate.

    mode 'full' sweeps every triple, 'fixed' only triples containing the
    first element, 'auto' picks one of them (`sweep_mode`); at q = 2 the
    report is vacuous in every mode.  Covered triples count as checked
    without rebuilding their regulus; the sweep stops at the first triple
    whose regulus leaves the spread, so the witness is the first failing
    triple of the order.

    Once the sweep has built CERTIFICATE_AFTER reguli, all inside, it tries
    `spread_field`: when the spread set is a field, the spread is
    Desarguesian, hence regular (module docstring), and the sweep could
    only have checked every triple of its mode without stopping, so the
    report is returned as the finished sweep would give it: regular, no
    witness, C(k, 3) triples in 'full' and C(k-1, 2) in 'fixed'.  Without
    the certificate the same sweep resumes, and its witness, ValueError or
    count is the report.
    """
    mode = sweep_mode(spread, mode)
    if mode == "vacuous":
        return RegularityReport(True, True, "vacuous", 0, None)
    k = len(spread.elements)
    if mode == "full":
        triples = combinations(range(k), 3)
        n_triples = k * (k - 1) * (k - 2) // 6
    else:
        triples = ((0, i, j) for i, j in combinations(range(1, k), 2))
        n_triples = (k - 1) * (k - 2) // 2
    checked = built = 0
    for t, reg, members in distinct_reguli(spread, triples):
        checked += 1
        if members is None:
            continue
        if len(members) < len(reg):
            witness = _closure_witness(spread, t, reg, members)
            return RegularityReport(False, False, mode, checked, witness)
        built += 1
        if built == CERTIFICATE_AFTER:
            spread_set = spread_field(spread)
            if spread_set is not None:
                return RegularityReport(True, False, mode, n_triples, None, spread_set)
    return RegularityReport(True, False, mode, checked, None)


def regularity_reports(spreads) -> list[RegularityReport]:
    """`is_regular_spread(s)` for each of `spreads`, in order, with one
    certificate per element set (module docstring).

    A report the certificate decided is reused, with `spread_set` None,
    for every later spread with the same element set; equality ignores
    `spread_set`, so every report equals the one its own sweep gives.  A
    refused or vacuous spread is swept on its own.  The map of certified
    sets lives for this call only.
    """
    certified: dict[frozenset[Subspace], RegularityReport] = {}
    reports = []
    for spread in spreads:
        key = spread.element_set()
        report = certified.get(key)
        if report is None:
            report = is_regular_spread(spread)
            if report.spread_set is not None:
                certified[key] = replace(report, spread_set=None)
        reports.append(report)
    return reports


# -- derived spreads of a pseudo-arc -----------------------------------------


def _quotient_spread(center: Subspace, subspaces, origin: str, label: str) -> Spread:
    """The images of `subspaces` in the quotient by `center`, verified as a spread."""
    proj = QuotientMap(center)
    return verified_spread(Spread(proj.space, tuple(proj.images(subspaces)),
                                  origin=origin), label)


def derive_spread_from_element(arc: PseudoArc, i: int) -> Spread:
    """The spread of images of the other elements in the quotient by element i.

    For a pseudo-oval the tangent space's image fills the gap at index i, so
    indices stay aligned with the arc's.
    """
    if not 0 <= i < len(arc.elements):
        raise ValueError(f"element index {i} out of range")
    if arc.kind not in ("pseudo-oval", "pseudo-hyperoval"):
        raise ValueError(f"derived spreads need a pseudo-oval or pseudo-hyperoval, "
                         f"got {arc.kind}")
    others = list(arc.elements)
    if arc.kind == "pseudo-oval":
        others[i] = tangent_spaces(arc)[i]
    else:
        del others[i]
    return _quotient_spread(arc.elements[i], others, f"delta[{i}]", f"derived spread {i}")


def derive_spread_from_nucleus(arc: PseudoArc) -> Spread:
    """The spread of arc-element images in the quotient by the nucleus (q even)."""
    if arc.kind != "pseudo-oval":
        raise ValueError("the nucleus-derived spread is defined for pseudo-ovals")
    return _quotient_spread(nucleus(arc), arc.elements, "delta[nucleus]",
                            "nucleus-derived spread")


def derive_tangent_spread_odd(arc: PseudoArc, i: int) -> Spread:
    """For q odd: the spread {tau_i ^ tau_j, j != i} + {pi_i} of tau_i."""
    if arc.q % 2 == 0:
        raise ValueError("the tangent-space spread exists for q odd only")
    taus = tangent_spaces(arc)
    chart = Chart(taus[i])
    elements = []
    for j in range(len(arc.elements)):
        if j == i:
            elements.append(chart.to_internal(arc.elements[i]))
        else:
            delta = meet(taus[i], taus[j])
            if delta.rank != arc.n:
                raise AssertionError(f"tau_{i} ^ tau_{j} has rank {delta.rank}")
            elements.append(chart.to_internal(delta))
    return verified_spread(Spread(chart.space, tuple(elements), carrier=taus[i],
                                  origin=f"delta-star[{i}]"), "tangent spread")


@dataclass(frozen=True)
class DualArc:
    """The dual (2n-1)-spaces beta_i of a pseudo-hyperoval with their spreads
    Gamma_i = {beta_i ^ beta_j} read in beta_i-internal coordinates."""

    arc: PseudoArc  # the (extended, for ovals) arc that was dualized
    betas: tuple[Subspace, ...]
    gammas: tuple[Spread, ...]


def _completed_duals(arc: PseudoArc):
    """The pseudo-hyperoval to dualize, a pseudo-oval completed by its
    nucleus (q even), and the duals beta_i of its elements."""
    if arc.kind == "pseudo-oval":
        if arc.q % 2:
            raise ValueError("q odd: the dual-arc spreads need the nucleus completion")
        arc = extend_to_hyperoval(arc)
    elif arc.kind != "pseudo-hyperoval":
        raise ValueError(f"cannot dualize a {arc.kind}")
    return arc, tuple(dual(e) for e in arc.elements)


def _dual_spread(arc: PseudoArc, betas, i: int) -> Spread:
    """Gamma_i of the pseudo-hyperoval `arc` with duals `betas`, verified.

    Gamma_i is read in beta_i's own frame: with B_i the RREF basis of
    beta_i = dual(e_i), x.B_i lies in beta_j = dual(e_j) iff (E_j.B_i^T).x^T
    = 0, so element j of Gamma_i, the canonical rows of beta_i ^ beta_j in
    beta_i's chart, is the kernel of the n x 2n matrix E_j.B_i^T.
    """
    fld = arc.ambient.field
    beta = betas[i]
    space = ProjSpace(beta.rank - 1, fld)
    columns = list(zip(*beta.rows))
    elements = []
    for j, e in enumerate(arc.elements):
        if j != i:
            ker = kernel(fld, mat_mul(fld, e.rows, columns), beta.rank)
            elements.append(Subspace(space, *ker))
    return verified_spread(
        Spread(space, tuple(elements), carrier=beta, origin=f"gamma[{i}]"), f"Gamma_{i}")


def dual_arc(arc: PseudoArc) -> DualArc:
    """Dualize; pseudo-ovals are first completed by their nucleus (q even).
    Every Gamma_i is built and verified (`_dual_spread`)."""
    arc, betas = _completed_duals(arc)
    return DualArc(arc, betas, tuple(_dual_spread(arc, betas, i) for i in range(len(betas))))


def count_reguli_through_pair(spread: Spread, ai: int, bi: int):
    """Distinct reguli through two fixed spread elements, with containment.

    Returns (count, reguli, contained); for a regular spread the count is
    (q^n - 1)/(q - 1), every regulus is contained in the spread, and the
    reguli partition the remaining q^n - 1 elements into cells of size
    q - 1.  Consequently a third fixed element lies in exactly one of them,
    so the sub-count avoiding it is one less; demanding that all q^n - 2
    remaining elements fit into such avoiding reguli would need
    (q^n - 2)/(q - 1) of them, which is not an integer for q > 2.
    """
    elems = spread.elements
    if ai == bi or not (0 <= ai < len(elems) and 0 <= bi < len(elems)):
        raise ValueError("need two distinct element indices")
    triples = ((ai, bi, x) for x in range(len(elems)) if x not in (ai, bi))
    found = [(reg, members) for _, reg, members in distinct_reguli(spread, triples)
             if members is not None]
    return (len(found), [reg for reg, _ in found],
            [len(members) == len(reg) for reg, members in found])
