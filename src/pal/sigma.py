"""Transversal lines of regular spreads, the generated spread Sigma, its
plane model, and the recognition of regular pseudo-arcs.

A regular (n-1)-spread of PG(2n-1, q) carries a field structure: writing
every element as the graph of a map A -> C and normalizing by one of them
turns the element set into a field of matrices isomorphic to GF(q^n).
`spreads.spread_field` is the one test of that field, shared with the
regularity certificate, and it hands over the matrices, a generator X and
its minimal polynomial.  An eigenvector of X over GF(q^n) gives the
transversal line U_1 that every extended element meets in one point; with
the transversal T_1 of a regulus through the contact point u_1 it spans the
plane theta_1.  All else is rational, and x -> x^q fixes GF(q), so U_l,
u_l, T_l and theta_l are the Frobenius conjugates of the l = 1 ones, and
their checks run for l = 1 only.  The rational (n-1)-spaces meeting the
planes are the generated spread, held as one GF(q) matrix psi of rank 3n
that maps the field reduction of point c of PG(2, q^n) to the element of c.
Only the plane model builds the elements (`generated_spread`), and reads
its lines off the lines of PG(2, q^n).  Recognition runs the construction
on the dual of an arc, for one regulus choice, and asks whether psi^-1
maps every dual element to a line of PG(2, q^n).  One choice decides:
success reduces a recovered plane arc to the arc, and for a regular arc
every choice generates the Desarguesian spread that the dual elements are
spanned by (see `recognize_regular`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .fields import FieldTower, field_make
from .planearcs import PlaneArc, make_arc
from .projective import (Chart, ProjSpace, Subspace, Vec, _normalized_vectors,
                         dual, kernel, mat_inv, mat_mul, meet, normalize_point,
                         plane_lines, rank, span, vec_mat)
from .pseudoarcs import PseudoArc
from .reduction import (ReductionMap, _orbit_sums, extend_subspace, frobenius_subspace,
                        rationalize_subspace)
from .spreads import (RegularityReport, Regulus, Spread, _completed_duals, _dual_spread,
                      is_regular_spread, regulus_through, spread_field,
                      verified_spread)


class NotRegularError(ValueError):
    """A spread failed a regularity requirement; carries a witness."""

    def __init__(self, reason: str, witness: dict | None = None):
        super().__init__(reason)
        self.witness = witness or {}


@dataclass(frozen=True)
class SigmaScaffold:
    """The extension-field data behind a generated spread."""

    tower: FieldTower
    top_space: ProjSpace
    transversal_lines: tuple[Subspace, ...]    # U_l
    contact_points: tuple[Vec, ...]            # u_l
    regulus_transversals: tuple[Subspace, ...]  # T_l
    planes: tuple[Subspace, ...]               # theta_l
    psi: tuple[Vec, ...]                       # GF(q)^3n -> ambient, rank 3n


def spread_transversals(spread: Spread, tower: FieldTower,
                        report: RegularityReport | None = None) -> tuple[Subspace, ...]:
    """The n conjugate lines U_l over GF(q^n) meeting every extended element.

    Requires a verified regular spread of PG(2n-1, q) (n >= 2) and fails
    with a witness otherwise (see `_eigen_lines`): for q > 2 the
    regulus-closure witness of the regularity sweep, and at q = 2, where
    regulus closure is vacuous, the spread-set witness
    {"kind": "spread-set-not-field"}.  `report`, when the caller holds
    it, is `is_regular_spread(spread)` in mode 'auto'; it is used in place
    of a second sweep.
    """
    if tower.n < 2:
        raise ValueError("transversal lines need n >= 2")
    n = spread.elements[0].rank
    if n != tower.n or spread.space.field != tower.base:
        raise ValueError("tower does not match the spread")
    u_lines = _eigen_lines(spread, tower, "spread", report)
    top_space = u_lines[0].ambient
    # the elements are rational, so an element meets U_l as it meets U_1
    for e in spread.elements:
        if meet(extend_subspace(e, tower, top_space), u_lines[0]).rank != 1:
            raise AssertionError("extended element misses a transversal line")
    return tuple(u_lines)


def _eigen_lines(spread: Spread, tower: FieldTower, label: str,
                 closure: RegularityReport | None = None):
    """The transversal lines U_l of a regular spread: U_1 from an eigenvector
    of its matrix field, and U_l its Frobenius conjugates.

    Checks, in this order: regularity (NotRegularError with the sweep's
    witness), the shape PG(2n-1, q) (ValueError), and `spread_field`
    (NotRegularError with the spread-set witness); `label` names the spread
    in the messages.  The eigenvalues are the roots of the minimal
    polynomial of the field's generator X, which must be the n conjugates
    of the smallest root mu.  `closure`, when given, is the spread's report
    from `is_regular_spread` in mode 'auto', so the sweep is not run again.
    When the regularity certificate decided, the report carries its
    `spread_field` result, which is reused.

    X, A, C and the spread-set matrices are rational, so x -> x^q maps the
    mu-eigenvector v and its line <v.A, v.G> to those of mu^q: the checks
    on v hold for every root when they hold for mu, and U_l is U_1
    conjugated l - 1 times.
    """
    if closure is None:
        closure = is_regular_spread(spread)
    if not closure.regular:
        raise NotRegularError(f"{label} is not regular: " + closure.reason,
                              closure.witness)
    if spread.space.dim + 1 != 2 * spread.elements[0].rank:
        raise ValueError("spread-set structure needs a spread of PG(2n-1, q)")
    field = closure.spread_set or spread_field(spread)
    if field is None:
        raise NotRegularError(f"{label} is not regular: its spread set is not "
                              "a field of order q^n", {"kind": "spread-set-not-field"})
    a, c, g, mats, gen, mp = field
    fld = spread.space.field
    top = tower.top
    n = tower.n
    roots = top.roots([tower.embed(x) for x in mp])
    if len(roots) != n:
        raise AssertionError(f"minimal polynomial has {len(roots)} roots in GF(q^n)")
    mu = roots[0]
    if sorted(_conjugates(mu, tower.frobenius, n)) != roots:
        raise AssertionError("eigenvalues are not one Galois orbit")
    a_ext, g_ext, gen_ext = (_embed(m, tower) for m in (a.rows, g, gen))
    # right kernel of transpose(gen) - mu*I is the row eigenspace
    rows_t = [tuple(top.sub(gen_ext[i][j], mu if i == j else 0) for i in range(n))
              for j in range(n)]
    ker, _ = kernel(top, rows_t, n)
    if len(ker) != 1:
        raise AssertionError("eigenspace is not one-dimensional")
    avec = ker[0]
    for m in mats.values():
        img = vec_mat(top, avec, _embed(m, tower))
        if normalize_point(top, img) != normalize_point(top, avec):
            raise AssertionError("spread-set matrices are not simultaneously diagonal")
    u_1 = ProjSpace(spread.space.dim, top).subspace([vec_mat(top, avec, a_ext),
                                                     vec_mat(top, avec, g_ext)])
    return _conjugates(u_1, partial(frobenius_subspace, tower=tower), n)


def _conjugates(x, frobenius, n: int) -> list:
    """[x, x^q, ..., x^(q^(n-1))] with `frobenius` the map x -> x^q on x's
    kind: the orbit of length n that every U_l, u_l, T_l and theta_l is
    read from."""
    orbit = [x]
    while len(orbit) < n:
        orbit.append(frobenius(orbit[-1]))
    return orbit


def _embed(rows, tower: FieldTower) -> list[Vec]:
    """A matrix over GF(q) read over GF(q^n)."""
    return [tuple(tower.embed(x) for x in row) for row in rows]


def build_sigma(gamma: Regulus, gamma_i: Spread, tower: FieldTower):
    """The regular (n-1)-spread of PG(3n-1, q) generated by a regulus gamma
    (living in a carrier beta_j) and a regular spread gamma_i (in beta_i).

    Returns the scaffold, which holds sigma as the GF(q) matrix psi of rank
    3n (see `generated_spread`, which builds the elements).  The route:
    transversal lines U_l of gamma_i, contact points u_l on the common
    element, transversals T_l of gamma through them and planes
    theta_l = <T_l, U_l>, each computed for l = 1 and conjugated.  psi^-1
    must map every generating element to a point of PG(2, q^n).
    """
    if gamma.carrier is None or gamma_i.carrier is None:
        raise ValueError("build_sigma needs carrier subspaces on both inputs")
    beta_j, beta_i = gamma.carrier, gamma_i.carrier
    ambient = beta_j.ambient
    if beta_i.ambient != ambient:
        raise ValueError("carriers live in different spaces")
    top = tower.top
    n = tower.n
    alpha = meet(beta_i, beta_j)
    chart_j, chart_i = Chart(beta_j), Chart(beta_i)
    alpha_j = chart_j.to_internal(alpha)
    alpha_i = chart_i.to_internal(alpha)
    if alpha_j not in gamma.element_set():
        raise ValueError("beta_i ^ beta_j is not an element of gamma")
    if alpha_i not in gamma_i.element_set():
        raise ValueError("beta_i ^ beta_j is not an element of gamma_i")
    u_line_i = _eigen_lines(gamma_i, tower, "gamma_i")[0]

    top_ambient = ProjSpace(ambient.dim, top)
    u_line = Chart(extend_subspace(beta_i, tower, top_ambient)).to_ambient(u_line_i)
    pt = meet(extend_subspace(alpha, tower, top_ambient), u_line)
    if pt.rank != 1:
        raise AssertionError("contact point u_l is not a single point")
    u = pt.rows[0]

    # the transversal of gamma through u_l is the line through u_l meeting two
    # other elements a and c: a + c = beta_j, so <u_l, a> meets c in one point
    generators = [chart_j.to_ambient(e) for e in gamma.elements] \
        + [chart_i.to_ambient(e) for e in gamma_i.elements]
    generators_ext = [extend_subspace(e, tower, top_ambient) for e in generators]
    a_ext, c_ext = [g for e, g in zip(gamma.elements, generators_ext) if e != alpha_j][:2]
    pt = meet(top_ambient.subspace([u, *a_ext.rows]), c_ext)
    if pt.rank != 1:
        raise AssertionError("<u_l, a> does not meet c in one point")
    t_line = top_ambient.subspace([u, pt.rows[0]])
    if t_line.rank != 2:
        raise AssertionError("transversal through u_l is not a line")
    theta1 = span([t_line, u_line])
    if theta1.rank != 3:
        raise AssertionError("theta plane has wrong dimension")
    for e in generators_ext:
        if meet(theta1, e).rank != 1:
            raise AssertionError("theta plane misses a generating element")

    # beta_i, alpha, a, c and the generators are rational, so conjugating
    # u_1, T_1 and theta_1 gives u_l, T_l and theta_l, which pass the checks
    # above because their l = 1 versions do
    conjugate = partial(frobenius_subspace, tower=tower)
    u_lines, transversals, planes = (_conjugates(s, conjugate, n)
                                     for s in (u_line, t_line, theta1))
    contact = _conjugates(u, lambda v: tuple(map(tower.frobenius, v)), n)

    # row j*n + i of psi_rows is psi(x^i e_j), the orbit sums of theta_1's
    # row j restricted to GF(q) (see `generated_spread`)
    psi_rows = tuple(tuple(map(tower.restrict, acc))
                     for row in theta1.rows for acc in _orbit_sums(row, tower))
    if rank(tower.base, psi_rows) != 3 * n:
        raise AssertionError("psi does not have rank 3n")
    scaffold = SigmaScaffold(tower, top_ambient, tuple(u_lines), tuple(contact),
                             tuple(transversals), tuple(planes), psi_rows)
    # g is an element of sigma iff psi^-1(g) is GF(q^n).c for a point c
    if any(point.rank != 1 for point in _model_lines(scaffold, generators)):
        raise AssertionError("generating element missing from sigma")
    return scaffold


def generated_spread(scaffold: SigmaScaffold) -> Spread:
    """The spread sigma of `build_sigma`, built and verified: element i is
    psi of the field reduction of point i of PG(2, Q), Q = q^n, in
    `_normalized_vectors` order.

    Let psi(v) = sum_{l<n} (v.theta_1)^(q^l), coordinatewise: a GF(q)-linear
    map from GF(Q)^3 to the rational vectors, whose matrix on the field
    reduction is `scaffold.psi`.  `build_sigma` checked that it has rank 3n,
    so psi is a bijection, and it carries the field reduction of PG(2, Q), a
    spread of PG(3n-1, q), onto a spread.  For w = c.theta_1, psi(x.c) =
    sum_l x^(q^l) w^(q^l) lies in the rational span of the Frobenius orbit
    of w, which has rank at most n, so the element of c is that span.  A
    line of PG(2, Q) is a 2-dimensional W: psi(W) has rank 2n, holds the
    elements of the points on the line, and meets the element of any other
    point c' in psi(W ^ GF(Q).c') = 0.  So two elements span exactly the
    elements of the points on their joining line, and psi^-1 maps a
    (2n-1)-space holding Q + 1 elements to a line (see `_recognize_choice`).
    """
    base, rmap = scaffold.tower.base, ReductionMap(scaffold.tower)
    elements = tuple(rmap.target.subspace(mat_mul(base, rmap._blow_up([c]), scaffold.psi))
                     for c in _normalized_vectors(rmap.source.field, 3))
    return verified_spread(Spread(rmap.target, elements, origin="sigma(gamma, Gamma_i)"),
                           "generated spread")


@dataclass(frozen=True)
class PlaneModel:
    """Points = spread elements; lines = (2n-1)-spaces holding q^n+1 of them."""

    spread: Spread
    lines: tuple[Subspace, ...]
    members: tuple[frozenset[int], ...]
    points_per_line: int


def plane_model(scaffold: SigmaScaffold) -> PlaneModel:
    """The plane of order Q = q^n whose points are the elements of the
    spread that `build_sigma` generated.

    Element i of `generated_spread` is the image of point i of PG(2, Q), so
    the lines are the (2n-1)-spaces spanned by two elements, one per line of
    PG(2, Q), and their members are the positions of that line's points.
    Each line is the span of its first two members (an AssertionError
    unless it has rank 2n), and the lines are sorted by their basis rows.
    """
    sigma = generated_spread(scaffold)
    elems = sigma.elements
    plane = ProjSpace(2, scaffold.tower.top)
    model = []
    for members in plane_lines(plane):
        line = span([elems[members[0]], elems[members[1]]])
        if line.rank != 2 * scaffold.tower.n:
            raise AssertionError("two elements of sigma do not span a (2n-1)-space")
        model.append((line, frozenset(members)))
    model.sort(key=lambda lm: lm[0].rows)
    lines, members = zip(*model)
    return PlaneModel(sigma, lines, members, plane.field.order + 1)


@dataclass(frozen=True)
class RecognitionResult:
    regular: bool
    plane_arc: PlaneArc | None
    identification: dict | None
    scaffold: SigmaScaffold | None
    choice: dict
    line_counts: tuple[int, ...] | None


def recognize_regular(arc: PseudoArc, given: list[int] | None = None):
    """Run the dual-spread recognition of a regular pseudo-arc.

    Dualizes the arc (completing a pseudo-oval by its nucleus) and makes one
    regulus choice: j and i are the first two usable indices (every index
    but the nucleus dual's, or the members of `given`, which must lie in
    0..k-1 for the k dual elements), and gamma_j is the
    regulus through the intersections of beta_j with beta_i, the nucleus
    dual for ovals and the non-given duals, in that order, filled up to
    three from the lowest free indices.  `_recognize_choice` generates
    Sigma(gamma_j, Gamma_i) and asks whether psi^-1 maps every dual element
    to a line of PG(2, q^n), that is, whether it carries q^n + 1 elements of
    Sigma.  On success the plane arc is recovered in the fixed reduction
    frame when the arc is canonically reducible, and in the theta-plane
    frame (with a frame witness) otherwise.

    One choice decides.  Success recovers a plane arc whose reduction, in
    the canonical or the theta frame, is the arc, so the arc is regular.
    Conversely, if the arc is regular its dual elements are spanned by
    elements of one Desarguesian spread D, so gamma_j lies in Gamma_j,
    which lies in D, and Gamma_i lies in D; the lines U_l and T_l then lie
    in D's director planes theta_l, Sigma = D for every choice, and every
    dual element carries q^n + 1 elements.  A failed choice therefore
    reports an arc that is not regular.

    Only Gamma_j and Gamma_i are built, and both are verified as spreads.
    The other k - 2 dual spreads, which `dual_arc` builds and verifies,
    are not read: for a verified pseudo-hyperoval every Gamma_s is a
    spread, so verifying them checked an invariant that recognition never
    used.
    """
    if arc.n < 2:
        raise ValueError("recognition needs n >= 2")
    if arc.kind not in ("pseudo-oval", "pseudo-hyperoval"):
        raise ValueError(f"cannot recognize a {arc.kind}")
    ext, betas = _completed_duals(arc)
    k = len(betas)
    was_oval = arc.kind == "pseudo-oval"
    if given is not None:
        bad = [m for m in given if not 0 <= m < k]
        if bad:
            raise ValueError(f"given indices out of range: {bad}")
        usable = sorted(set(given))
    else:
        usable = list(range(k - 1 if was_oval else k))
    if len(usable) < 2:
        raise ValueError("need at least two usable indices")
    j, i = usable[:2]
    generators = [i]
    extra = [k - 1] if was_oval else []
    if given is not None:
        extra += [m for m in range(k) if m not in given]
    for m in extra + list(range(k)):
        if m != j and m not in generators and len(generators) < 3:
            generators.append(m)
    gamma_j, gamma_i = (_dual_spread(ext, betas, s) for s in (j, i))
    return _recognize_choice(arc, ext, betas, j, gamma_j, i, gamma_i, generators)


def _recognize_choice(arc: PseudoArc, ext: PseudoArc, betas, j: int, gamma_j: Spread,
                      i: int, gamma_i: Spread, generators: list[int]):
    """Recognition with gamma_j the regulus through the intersections of
    beta_j with the betas at `generators` and Gamma_i as the second spread.

    `ext` is the pseudo-hyperoval that was dualized (the arc, completed by
    its nucleus for ovals), `betas` its duals, and gamma_j and gamma_i are
    Gamma_j and Gamma_i as `dual_arc` lists them.  Raises NotRegularError
    when Gamma_j does not contain gamma_j; returns the failure result when
    some dual element beta_k does not carry q^n + 1 elements of Sigma, that
    is, when psi^-1(beta_k) spans a plane of PG(2, q^n), not a line.

    The two agree: the bijection psi maps GF(q^n).c onto the element of c
    (see `generated_spread`), so beta_k carries the elements of the points
    in W = psi^-1(beta_k), a 2n-dimensional GF(q)-space.  A line holds
    q^n + 1 points; conversely q^n + 1 points cover all q^2n - 1 nonzero
    vectors of W, so W is closed under GF(q^n), a line, and its
    GF(q^n)-span has rank 2, not 3."""
    field = arc.ambient.field
    tower = FieldTower(field, field_make(field.m * arc.n))
    # element m of Gamma_j is beta_j ^ beta_m, with index j left out
    reg = regulus_through(*(gamma_j.elements[m - (m > j)] for m in generators))
    if not reg.element_set() <= gamma_j.element_set():
        raise NotRegularError(
            f"Gamma_{j} is not closed under the regulus through "
            f"{tuple(generators)}; recognition requires regular dual spreads",
            {"kind": "regulus-closure", "spread": f"gamma[{j}]",
             "triple": list(generators)})
    reg = Regulus(reg.space, reg.generators, reg.elements, carrier=betas[j])
    scaffold = build_sigma(reg, gamma_i, tower)
    lines = _model_lines(scaffold, betas)
    if any(line.rank != 2 for line in lines):
        return RecognitionResult(False, None, None, None, {}, None)
    plane, ident = _recover(arc, ext, lines, scaffold)
    choice = {"j": j, "i": i, "generators": list(generators)}
    counts = tuple(line.n_points() for line in lines)
    return RecognitionResult(True, plane, ident, scaffold, choice, counts)


def _model_lines(scaffold: SigmaScaffold, subspaces) -> list[Subspace]:
    """psi^-1 of each subspace of the ambient space, read in PG(2, q^n): the
    GF(q^n)-span of the compressed preimages of its rows."""
    base, rmap = scaffold.tower.base, ReductionMap(scaffold.tower)
    psi_inv = mat_inv(base, list(scaffold.psi))
    return [rmap.source.subspace([rmap.compress_vec(vec_mat(base, r, psi_inv)) for r in s.rows])
            for s in subspaces]


def _recover(arc, ext, lines, scaffold):
    """The plane arc and its identification (frame) of a recognized arc;
    `lines` are the model lines psi^-1(beta_k) of its dual elements."""
    tower = scaffold.tower
    top = tower.top
    rmap = ReductionMap(tower)
    points = []
    canonical = True
    for el in ext.elements:
        p = rmap.invert_point(el)
        if p is None:
            canonical = False
            break
        points.append(p.coords)
    if canonical:
        ident = {"convention": rmap.convention, "frame": "canonical"}
    else:
        points = []
        theta1 = scaffold.planes[0]
        for idx, line in enumerate(lines):
            coeff, _ = kernel(top, line.rows, 3)
            points.append(normalize_point(top, coeff[0]))
            # frame witness: the dual of the rational span of the conjugate
            # model lines is the original arc element
            w = scaffold.top_space.subspace([vec_mat(top, r, theta1.rows) for r in line.rows])
            conjugates = _conjugates(w, partial(frobenius_subspace, tower=tower), tower.n)
            w_all = scaffold.top_space.subspace([r for c in conjugates for r in c.rows])
            rational = rationalize_subspace(w_all, tower, arc.ambient)
            if dual(rational) != ext.elements[idx]:
                raise AssertionError("theta-frame witness failed to reproduce "
                                     f"element {idx}")
        ident = {"convention": "theta-frame-v1",
                 "theta1_rows": [list(r) for r in theta1.rows],
                 "relation": "element_k = dual(rational span of the n conjugate "
                             "model lines of beta_k)"}
    if arc.kind == "pseudo-oval":
        points = points[:-1]
        ident["dropped_nucleus"] = True
    return make_arc(ProjSpace(2, top), points), ident
