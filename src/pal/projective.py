"""Projective spaces PG(d, q) with canonical subspace arithmetic.

A subspace is stored as its reduced-row-echelon basis matrix (rows of int
field codes, pivots strictly increasing, pivot columns cleared), so two
subspaces are equal iff their matrices are identical and sets of subspaces
hash cheaply.  The empty subspace has zero rows and projective dimension -1.

Duality is the orthogonal complement under the standard dot product; meets
are computed through it.  The quotient by a subspace is the canonical chart
on its non-pivot coordinates, which is the projection onto the complement
spanned by the non-pivot unit vectors (`QuotientMap` holds the proof).

One linear-algebra kernel serves every field: `rref`, `rank`,
`reduce_mod`, `kernel`, `vec_mat` and `mat_mul` are written once over
three row operations (scale, add and subtract a multiple), which each
field builds once (`FiniteField.row_ops`).  For the fields with byte
tables (`FiniteField.mul_bytes`: GF(2^m), m <= 8) these read the shared
multiplication table rows, so a row operation is `[a ^ T[c][b] ...]`;
odd prime fields and m > 8 call `field.mul` once per entry.  `kernel`
returns its basis in `rref`'s form, rows and pivots.  `rank` is forward
elimination only, for the "do these span?" checks that need no canonical
basis.

Point sets are keyed on point codes: a normalized coordinate vector packed
big-endian into one int, one byte per coordinate when the field has at most
256 elements (two bytes up to GF(2^16)).  In characteristic 2 with m <= 8
the xor of two codes is the code of the vector sum, so `_codes_of`
builds the points of many equal-rank subspaces at once: row k of every
subspace is laid end to end in one int, one chunk of W in {1, 2, 4, 8}
bytes each in the host's byte order (one `struct.pack`, read back by one
`memoryview` cast), and one xor per basis row makes a point of every
subspace.  A batch's codes are one flat list, point p of subspace j of E at
p * E + j, so one set tests the batch for a shared point.  A quotient pass
keeps one row layout: `row_columns` lays out a batch's rows once, a byte
string per coordinate; `QuotientMap.image_codes` reduces a run of them
column by column into big-endian chunks, unpacks the image rows as ints
in one call and puts them in echelon form, as `spreads` does for reguli.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, product
from operator import itemgetter
from struct import pack, unpack

from .fields import FiniteField

Vec = tuple[int, ...]

POINT_ENUM_CAP = 10**7


def _echelon(field: FiniteField, rows, reduced: bool):
    """Gaussian elimination on the nonzero rows, with every pivot scaled to 1.

    Returns (rows, pivot columns).  Entries below each pivot are cleared, and
    with `reduced` also those above it, which gives the RREF.
    """
    work = [r for r in rows if any(r)]
    scale, _, sub_scaled = field.row_ops
    inv = field.inv
    pivots = []
    r = 0
    for col in range(len(work[0]) if work else 0):
        piv = None
        for i in range(r, len(work)):
            if work[i][col]:
                piv = i
                break
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        prow = work[r]
        if prow[col] != 1:
            prow = work[r] = scale(inv(prow[col]), prow)
        for i in range(0 if reduced else r + 1, len(work)):
            if i != r:
                c = work[i][col]
                if c:
                    work[i] = sub_scaled(work[i], c, prow)
        pivots.append(col)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def rref(field: FiniteField, rows) -> tuple[tuple[Vec, ...], tuple[int, ...]]:
    """Canonical reduced row echelon form; returns (rows, pivot columns)."""
    work, pivots = _echelon(field, rows, True)
    return tuple(tuple(row) for row in work), tuple(pivots)


def rank(field: FiniteField, rows) -> int:
    """Rank by forward elimination only; always equals len(rref(field, rows)[0]).

    For the "do these span?" checks, which need no canonical basis.
    """
    return len(_echelon(field, rows, False)[1])


def reduce_mod(field: FiniteField, vec: Vec, rows: tuple[Vec, ...],
               pivots: tuple[int, ...]) -> Vec:
    """Eliminate vec's pivot coordinates against an RREF basis."""
    _, _, sub_scaled = field.row_ops
    v = vec
    for row, p in zip(rows, pivots):
        c = v[p]
        if c:
            v = sub_scaled(v, c, row)
    return tuple(v)


def kernel(field: FiniteField, rows, ncols: int) -> tuple[tuple[Vec, ...], tuple[int, ...]]:
    """The right null space {v : rows . v = 0} as `rref` gives it: its
    canonical basis rows and their pivot columns."""
    rr, pivots = rref(field, rows)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for row, p in zip(rr, pivots):
            v[p] = field.neg(row[f])
        basis.append(tuple(v))
    return rref(field, basis)


def mat_inv(field: FiniteField, rows: list[Vec]) -> list[Vec]:
    """Inverse of a square matrix; raises ValueError if singular."""
    n = len(rows)
    aug = [list(rows[i]) + [1 if j == i else 0 for j in range(n)] for i in range(n)]
    rr, pivots = rref(field, aug)
    if list(pivots) != list(range(n)):
        raise ValueError("matrix is singular")
    return [tuple(row[n:]) for row in rr]


def mat_mul(field: FiniteField, a, b) -> list[Vec]:
    """The matrix product a . b, row by row."""
    return [vec_mat(field, row, b) for row in a]


def vec_mat(field: FiniteField, v: Vec, rows) -> Vec:
    """v . rows, i.e. the combination sum v[k] * rows[k]."""
    _, add_scaled, _ = field.row_ops
    acc = [0] * len(rows[0])
    for c, row in zip(v, rows):
        if c:
            acc = add_scaled(acc, c, row)
    return tuple(acc)


def normalize_point(field: FiniteField, vec: Vec) -> Vec:
    """Scale so the first nonzero coordinate is 1."""
    for c in vec:
        if c:
            if c == 1:
                return tuple(vec)
            s = field.inv(c)
            return tuple(field.mul(s, x) for x in vec)
    raise ValueError("zero vector does not define a projective point")


class ProjSpace:
    """PG(dim, field): the lattice context for points and subspaces."""

    def __init__(self, dim: int, field: FiniteField):
        if dim < 1:
            raise ValueError("projective dimension must be >= 1")
        self.dim = dim
        self.field = field

    @cached_property
    def n_points(self) -> int:
        return (self.field.order ** (self.dim + 1) - 1) // (self.field.order - 1)

    def __eq__(self, other):
        return (isinstance(other, ProjSpace)
                and self.dim == other.dim and self.field == other.field)

    def __hash__(self):
        return hash((self.dim, self.field))

    def __repr__(self):
        return f"PG({self.dim}, {self.field.order})"

    def subspace(self, rows) -> Subspace:
        return Subspace(self, *rref(self.field, rows))

    def whole(self) -> Subspace:
        eye = tuple(tuple(1 if j == i else 0 for j in range(self.dim + 1))
                    for i in range(self.dim + 1))
        return Subspace(self, eye, tuple(range(self.dim + 1)))

    @cached_property
    def _code_width(self) -> int:
        """Bytes per coordinate in a point code."""
        return ((self.field.order - 1).bit_length() + 7) // 8

    def encode(self, vec: Vec) -> int:
        """The point code of a coordinate vector (see the module docstring)."""
        w = self._code_width
        return int.from_bytes(b"".join(x.to_bytes(w, "big") for x in vec), "big")

    def decode(self, code: int) -> Vec:
        """The coordinate vector of a point code; inverse of `encode`."""
        w = self._code_width
        raw = code.to_bytes(w * (self.dim + 1), "big")
        return tuple(int.from_bytes(raw[i:i + w], "big") for i in range(0, len(raw), w))

    def point(self, coords) -> Point:
        return Point(self, normalize_point(self.field, tuple(coords)))

    def points(self) -> list[Point]:
        self._check_enumerable()
        return [Point(self, v) for v in _normalized_vectors(self.field, self.dim + 1)]

    def _check_enumerable(self) -> None:
        """Raise ValueError when the space has more points than POINT_ENUM_CAP."""
        if self.n_points > POINT_ENUM_CAP:
            raise ValueError(f"{self} has {self.n_points} points, over the enumeration cap")


def _normalized_vectors(field: FiniteField, length: int) -> list[Vec]:
    """All vectors with first nonzero coordinate 1, in lexicographic order."""
    out = []
    els = list(field.elements())
    for lead in range(length):
        head = (0,) * lead + (1,)
        for tail in product(els, repeat=length - lead - 1):
            out.append(head + tail)
    out.sort()
    return out


@dataclass(frozen=True)
class Point:
    ambient: ProjSpace
    coords: Vec

    def __repr__(self):
        return f"Pt{self.coords}"


class Subspace:
    """A projective subspace in canonical RREF form."""

    __slots__ = ("ambient", "rows", "pivots", "_hash")

    def __init__(self, ambient: ProjSpace, rows: tuple[Vec, ...], pivots: tuple[int, ...]):
        self.ambient = ambient
        self.rows = rows
        self.pivots = pivots
        self._hash = hash((ambient.dim, ambient.field.order, rows))

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def dim(self) -> int:
        """Projective dimension; -1 for the empty subspace."""
        return len(self.rows) - 1

    def __eq__(self, other):
        return (isinstance(other, Subspace)
                and (self.ambient is other.ambient or self.ambient == other.ambient)
                and self.rows == other.rows)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Sub(dim={self.dim} in {self.ambient})"

    def coefficients_of(self, vec: Vec) -> Vec:
        """Coordinates of an ambient vector of this subspace w.r.t. its basis."""
        c = tuple(vec[p] for p in self.pivots)
        if vec_mat(self.ambient.field, c, self.rows) != tuple(vec):
            raise ValueError("vector is not in the subspace")
        return c

    def n_points(self) -> int:
        q = self.ambient.field.order
        return (q ** self.rank - 1) // (q - 1)

    def points(self) -> list[Point]:
        """All points, sorted lexicographically by normalized coordinates."""
        if self.n_points() > POINT_ENUM_CAP:
            raise ValueError("subspace is over the point-enumeration cap")
        # codes are fixed-width big-endian, so they sort like their vectors
        decode = self.ambient.decode
        return [Point(self.ambient, decode(c)) for c in sorted(self.point_codes())]

    def point_codes(self) -> list[int]:
        """Point codes of all points, in the order of `point_vectors` (`_codes_of`)."""
        return _codes_of([self])

    def point_vectors(self) -> list[Vec]:
        """Normalized coordinate vectors of all points (unsorted, fast path)."""
        decode = self.ambient.decode
        return [decode(c) for c in self.point_codes()]


def _codes_of(subs) -> list[int]:
    """The flat list of point codes of equal-rank subspaces of one space:
    `_point_codes` on packed rows over a table field, else `vec_mat`.
    Subspace j's points are the slice [j::len(subs)], in `point_vectors`
    order: that of the coefficient vectors in `_normalized_vectors`."""
    if not subs:
        return []
    space = subs[0].ambient
    if space.field.mul_bytes() is None:
        return [space.encode(vec_mat(space.field, c, s.rows))
                for c in _normalized_vectors(space.field, subs[0].rank) for s in subs]
    r, rows = subs[0].rank, _row_codes(row_columns(space, subs))
    return _point_codes(space, [rows[t * r:(t + 1) * r] for t in range(len(subs))])


def row_columns(space: ProjSpace, subspaces) -> list:
    """The basis rows of `subspaces` end to end, one sequence per coordinate
    of `space` (module docstring): bytes over a table field, else lists."""
    d = space.dim + 1
    rows = [r for s in subspaces for r in s.rows]
    src = (b"".join(map(bytes, rows)) if space.field.mul_bytes() is not None
           else [x for r in rows for x in r])
    return [src[j::d] for j in range(d)]


def _chunk_width(length: int) -> int:
    """Chunk bytes for a point of `length` coordinates: W, or past 8 the length."""
    return next((w for w in (1, 2, 4, 8) if w >= length), length)


def _row_codes(columns) -> list[int]:
    """The point code of each row of byte `columns` (`row_columns`): one
    strided write per column into big-endian chunks, one unpack to read."""
    length, count = len(columns), len(columns[0])
    width = _chunk_width(length)
    buf = bytearray(width * count)
    for c, col in enumerate(columns):
        buf[width - length + c::width] = col
    if width <= 8:
        return list(unpack(f">{count}{'BHIQ'[width.bit_length() - 1]}", buf))
    return [int.from_bytes(buf[i:i + width], "big") for i in range(0, len(buf), width)]


def _point_codes(space: ProjSpace, images) -> list[int]:
    """The flat list of point codes of the subspaces of `space` over a
    table field whose bases are `images`, equally many packed rows each in
    echelon form with pivots 1: an RREF basis lists its points in
    `point_vectors` order, any other one each point once, normalized.

    A point is the lead row's code xor one multiple of each later row.
    Since c -> c*row is additive, the multiples c*row, c = 0..q-1, are the
    xor combinations of the m multiples x^j * row (`bytes.translate` reads
    each one), and doubling the list once per j keeps c in increasing order.
    All images are doubled together: row k of every image is laid end to
    end in one int, one chunk each, written by one `struct.pack`.
    """
    if not images:
        return []
    field = space.field
    tables = field.mul_bytes()
    width = _chunk_width(space.dim + 1)
    order = "<" if sys.byteorder == "little" else ">"
    out: list[int] = []
    tails = [0]  # codes of the combinations of the rows after the lead
    for k in range(len(images[0]) - 1, -1, -1):
        layer = [img[k] for img in images]
        row = (pack(f"{order}{len(layer)}{'BHIQ'[width.bit_length() - 1]}", *layer)
               if width <= 8 else b"".join([c.to_bytes(width, "big") for c in layer]))
        lead = int.from_bytes(row, "big")
        out += [lead ^ t for t in tails]
        if k:
            for j in range(field.m):
                b = int.from_bytes(row.translate(tables[1 << j]), "big")
                tails += [b ^ t for t in tails]
    buf = b"".join([x.to_bytes(width * len(images), "big") for x in out])
    if width <= 8:
        return memoryview(buf).cast("BHIQ"[width.bit_length() - 1]).tolist()
    return [int.from_bytes(buf[i:i + width], "big") for i in range(0, len(buf), width)]


def _packed_echelon(rows, tables, length: int, reduced: bool) -> list[int]:
    """Row echelon form of `rows`, packed as point codes of `length`
    coordinates over a table field, with every pivot 1: its nonzero rows by
    pivot column ascending.  With `reduced` the pivot columns are cleared
    too, which gives the RREF (`QuotientMap` docstring).  Rows reduce in the
    order taken, each 0 at the pivots before it, and are sorted once."""
    inv = tables[-1]  # 1/c at c (`FiniteField.mul_bytes`)
    basis: list[tuple[int, int, bytes]] = []  # (bit shift of the pivot byte, row, its bytes)
    for r in rows:
        for s, b, raw in basis:
            c = r >> s & 255
            if c:
                r ^= int.from_bytes(raw.translate(tables[c]), "big")
        if r:
            s = (r.bit_length() - 1) & ~7
            c = r >> s
            raw = r.to_bytes(length, "big")
            if c != 1:
                raw = raw.translate(tables[inv[c]])
                r = int.from_bytes(raw, "big")
            if reduced:
                for i, (t, b, _) in enumerate(basis):
                    c = b >> s & 255
                    if c:
                        b ^= int.from_bytes(raw.translate(tables[c]), "big")
                        basis[i] = t, b, b.to_bytes(length, "big")
            basis.append((s, r, raw))
    basis.sort(reverse=True)
    return [b for _, b, _ in basis]


def _packed(rows) -> tuple[int, ...]:
    """Rows of byte-sized entries as point codes, one int each."""
    return tuple([int.from_bytes(bytes(r), "big") for r in rows])


def _unpacked(space: ProjSpace, rows) -> Subspace:
    """The subspace of `space` whose RREF is `rows`, packed as point codes
    (`_packed_echelon` with `reduced`)."""
    length = space.dim + 1
    return Subspace(space, tuple([tuple(r.to_bytes(length, "big")) for r in rows]),
                    tuple([length - 1 - ((r.bit_length() - 1) >> 3) for r in rows]))


def point_owners(subspaces) -> dict[int, int]:
    """Point code -> position of the last of the list `subspaces` that holds it.

    On pairwise skew subspaces (a spread, the elements of a generalized arc)
    every point has one owner, and a subspace lies inside another one S
    exactly when it owns all its points among the codes of S.
    """
    flat, owner = _codes_of(subspaces), {}
    for idx in range(len(subspaces)):
        owner.update(dict.fromkeys(flat[idx::len(subspaces)], idx))
    return owner


def plane_lines(space: ProjSpace) -> list[list[int]]:
    """The lines of the plane `space` = PG(2, Q), one per dual point d in
    `_normalized_vectors` order: the positions of the points of the line
    d.x = 0 in `_normalized_vectors(field, 3)` order (the order of
    `ProjSpace.points`), listed in `Subspace.point_codes` order.  Raises
    ValueError, before enumerating anything, over POINT_ENUM_CAP points.

    With r the last nonzero coordinate of d, the line is the graph of
    x_r = -(1/d_r) sum_{j < r} d_j x_j, so its RREF rows are e_j - (d_j/d_r) e_r
    for j != r, with pivots j: column r is free, and d_j = 0 for j > r.
    """
    space._check_enumerable()
    field = space.field
    vectors = _normalized_vectors(field, 3)
    lines = []
    for d in vectors:
        r = 2 if d[2] else 1 if d[1] else 0
        s = field.neg(field.inv(d[r]))
        pivots = tuple(j for j in range(3) if j != r)
        rows = tuple(tuple(1 if c == j else field.mul(s, d[j]) if c == r else 0
                           for c in range(3)) for j in pivots)
        lines.append(Subspace(space, rows, pivots))
    position = {space.encode(v): i for i, v in enumerate(vectors)}
    flat = [position[c] for c in _codes_of(lines)]
    return [flat[j::len(lines)] for j in range(len(lines))]


def span(parts) -> Subspace:
    """Smallest subspace containing all given subspaces and points."""
    parts = list(parts)
    if not parts:
        raise ValueError("span of nothing")
    ambient = parts[0].ambient
    rows = []
    for part in parts:
        if part.ambient != ambient:
            raise ValueError("ambient spaces differ")
        if isinstance(part, Point):
            rows.append(part.coords)
        else:
            rows.extend(part.rows)
    return ambient.subspace(rows)


def dual(a: Subspace) -> Subspace:
    """Orthogonal complement under the standard dot product."""
    if a.rank == 0:
        return a.ambient.whole()
    return Subspace(a.ambient, *kernel(a.ambient.field, a.rows, a.ambient.dim + 1))


def meet(a: Subspace, b: Subspace) -> Subspace:
    """Intersection, via duality: (a ^ b) = dual(span(dual a, dual b))."""
    if a.ambient != b.ambient:
        raise ValueError("ambient spaces differ")
    return dual(span([dual(a), dual(b)]))


class QuotientMap:
    """Projection from a nonempty proper subspace onto PG(d - r, q).

    The canonical chart reads the non-pivot coordinates after reduction by
    the center's basis, so images are canonical without choosing a
    complementary subspace.  It is the projection onto one complement, and
    the one a greedy choice would make.  Let C be the center in RREF with
    pivot set P, and W = span{e_j : j not in P}.

    W is the least complement in `_normalized_vectors` order, which lists
    vectors by leading position from the last coordinate to the first.
    Suppose a greedy scan has taken e_j for every non-pivot j > p before
    lead position p, so every vector supported after p is in the span.  If
    p is in P, C's row with pivot p puts every lead-p vector in the span.
    If not, e_p is not in the span (the smallest pivot k < p with a nonzero
    coefficient would leave a nonzero at k), so e_p is taken first, and it
    covers every other lead-p vector.

    The images agree: reduction modulo C is linear, kills C, and fixes W,
    so span(C, S) ^ W is spanned by S's rows reduced modulo C, and W's
    chart reads their non-pivot coordinates.  That is `image_vec` on each
    row of S, in PG(d - r, q) either way.

    `images` and `image_codes` map many subspaces at once.  As C is in RREF,
    reduction modulo C sends v to v - sum_t v[p_t] * C_t, so non-pivot
    coordinate j of the image is v[j] - sum_t C_t[j] * v[p_t].  Over a table
    field the rows come laid out by column (`row_columns`), so coordinate j
    of every image row is column j xor the translates of the pivot columns
    by C_t[j], and each such column is written into the chunks of the
    point-code layout; one `struct.unpack` reads every image row.  Each
    image is put in echelon form on those ints (`_packed_echelon`): a row's
    pivot is its leading byte, at bit shift (bit_length - 1) & ~7, and a
    row operation is one xor of a translate.  `images` decodes the RREF;
    `image_codes` passes the unreduced rows to `_point_codes`, one flat list.
    """

    def __init__(self, center: Subspace):
        if center.rank == 0 or center.rank == center.ambient.dim + 1:
            raise ValueError("quotient center must be nonempty and proper")
        self.center = center
        self.ambient = center.ambient
        self.space = ProjSpace(center.ambient.dim - center.rank, center.ambient.field)
        self._nonpivot = tuple(j for j in range(center.ambient.dim + 1)
                               if j not in center.pivots)
        # at least two coordinates (the quotient has dimension >= 1), so a tuple
        self._chart = itemgetter(*self._nonpivot)

    def image_vec(self, v: Vec) -> Vec:
        return self._chart(reduce_mod(self.ambient.field, v, self.center.rows,
                                      self.center.pivots))

    def images(self, subspaces) -> list[Subspace]:
        """The image of each of `subspaces`, in order (class docstring)."""
        subs, amb = list(subspaces), self.ambient
        if any(s.ambient is not amb and s.ambient != amb for s in subs):
            raise ValueError("ambient spaces differ")
        if amb.field.mul_bytes() is None:
            return [self.space.subspace([self.image_vec(r) for r in s.rows]) for s in subs]
        return [_unpacked(self.space, rows) for rows in self._packed_images(
            row_columns(amb, subs), [s.rank for s in subs], True)]

    def image_codes(self, columns, rank: int) -> tuple[int | None, list[int]]:
        """(b, codes) for the images of the rank-`rank` subspaces whose rows
        `columns` lays out: b is the first image of lower rank (None if
        none), codes the flat list of the points of the images before it.
        A table field builds no `Subspace` and leaves the rows unreduced;
        other fields map a rank-1 subspace by `image_vec` on its one row."""
        if self.ambient.field.mul_bytes() is not None:
            images = self._packed_images(columns, [rank] * (len(columns[0]) // rank), False)
            bad = next((b for b, r in enumerate(images) if len(r) != rank), None)
            return bad, _point_codes(self.space, images[:bad])
        vecs = [self.image_vec(r) for r in zip(*columns)]
        if rank == 1:
            bad = next((b for b, v in enumerate(vecs) if not any(v)), None)
            field, encode = self.space.field, self.space.encode
            return bad, [encode(normalize_point(field, v)) for v in vecs[:bad]]
        images = [self.space.subspace(vecs[t:t + rank]) for t in range(0, len(vecs), rank)]
        bad = next((b for b, img in enumerate(images) if img.rank != rank), None)
        return bad, _codes_of(images[:bad])

    def _packed_images(self, columns, ranks, reduced: bool) -> list[list[int]]:
        """Each image's echelon rows as point codes, for `ranks`; table fields only."""
        tables = self.ambient.field.mul_bytes()
        pivot_cols = [columns[p] for p in self.center.pivots]
        image_cols = []
        for j in self._nonpivot:
            acc = int.from_bytes(columns[j], "big")
            for crow, col in zip(self.center.rows, pivot_cols):
                if crow[j]:
                    acc ^= int.from_bytes(col.translate(tables[crow[j]]), "big")
            image_cols.append(acc.to_bytes(len(columns[j]), "big"))
        rows, ends = _row_codes(image_cols), list(accumulate(ranks))
        return [_packed_echelon(rows[e - r:e], tables, len(image_cols), reduced)
                for r, e in zip(ranks, ends)]

    def lift_vec(self, u: Vec) -> Vec:
        v = [0] * (self.ambient.dim + 1)
        for x, j in zip(u, self._nonpivot):
            v[j] = x
        return tuple(v)

    def preimage(self, s: Subspace) -> Subspace:
        """Full preimage: span of the center and lifted basis rows."""
        rows = list(self.center.rows) + [self.lift_vec(r) for r in s.rows]
        return self.ambient.subspace(rows)


class Chart:
    """Internal coordinates on a subspace W: PG(rank-1, q) read off W's basis.

    Coefficient extraction is a pivot-column read because W is in RREF.
    """

    def __init__(self, carrier: Subspace):
        if carrier.rank < 2:
            raise ValueError("chart needs a carrier of projective dimension >= 1")
        self.carrier = carrier
        self.ambient = carrier.ambient
        self.space = ProjSpace(carrier.rank - 1, carrier.ambient.field)

    def to_internal(self, s: Subspace) -> Subspace:
        return self.space.subspace([self.carrier.coefficients_of(r) for r in s.rows])

    def to_ambient(self, s: Subspace) -> Subspace:
        return self.ambient.subspace([vec_mat(self.ambient.field, r, self.carrier.rows)
                                      for r in s.rows])
