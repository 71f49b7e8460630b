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
three row operations (scale, add and subtract a multiple).  For GF(2^m)
with m <= 8 these read the field's shared multiplication table, so a row
operation is `[a ^ T[c][b] ...]`; odd prime fields and m > 8 call
`field.mul` once per entry.  `rank` is forward elimination only, for the
"do these span?" checks that need no canonical basis.

Point sets are keyed on point codes: a normalized coordinate vector packed
big-endian into one int, one byte per coordinate when the field has at most
256 elements (two bytes up to GF(2^16)).  In characteristic 2 with m <= 8
the xor of two codes is the code of the vector sum, so `point_codes_of`
builds the points of many equal-rank subspaces at once: row k of every
subspace is laid end to end in one int, one fixed-width chunk each, and one
xor per basis row makes a point of every subspace.  `Subspace.point_codes`
is that routine on one subspace, and `point_vectors` is its decode, in the
same order.  `QuotientMap.images` likewise reduces the rows of many
subspaces modulo the center one coordinate column at a time.  Over a table
field the quotient images travel from that reduction to their point codes
as packed rows, ints in the point-code layout, with no per-entry lists.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from operator import itemgetter

from .fields import FiniteField

Vec = tuple[int, ...]

POINT_ENUM_CAP = 10**7


def _row_ops(field: FiniteField):
    """The kernel's row operations over `field`: (scale, add_scaled, sub_scaled).

    scale(c, v) = c*v, add_scaled(u, c, v) = u + c*v and sub_scaled(u, c, v)
    = u - c*v, as new lists.  GF(2^m) with m <= 8 reads the field's shared
    multiplication table and adds by xor; other fields call field.mul per entry.
    """
    table = field.mul_table()
    if table is not None:
        def add_scaled(u, c, v):
            t = table[c]
            return [a ^ t[b] for a, b in zip(u, v)]

        def scale(c, v):
            t = table[c]
            return [t[x] for x in v]
        return scale, add_scaled, add_scaled
    mul, add, sub = field.mul, field.add, field.sub
    return (lambda c, v: [mul(c, x) for x in v],
            lambda u, c, v: [add(a, mul(c, b)) for a, b in zip(u, v)],
            lambda u, c, v: [sub(a, mul(c, b)) for a, b in zip(u, v)])


def _echelon(field: FiniteField, rows, reduced: bool):
    """Gaussian elimination on the nonzero rows, with every pivot scaled to 1.

    Returns (rows, pivot columns).  Entries below each pivot are cleared, and
    with `reduced` also those above it, which gives the RREF.
    """
    work = [r for r in rows if any(r)]
    scale, _, sub_scaled = _row_ops(field)
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
    _, _, sub_scaled = _row_ops(field)
    v = vec
    for row, p in zip(rows, pivots):
        c = v[p]
        if c:
            v = sub_scaled(v, c, row)
    return tuple(v)


def kernel(field: FiniteField, rows, ncols: int) -> tuple[Vec, ...]:
    """Canonical basis of the right null space {v : rows . v = 0}."""
    rr, pivots = rref(field, rows)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        v = [0] * ncols
        v[f] = 1
        for row, p in zip(rr, pivots):
            v[p] = field.neg(row[f])
        basis.append(tuple(v))
    return rref(field, basis)[0]


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
    _, add_scaled, _ = _row_ops(field)
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
        if self.n_points > POINT_ENUM_CAP:
            raise ValueError(f"{self} has {self.n_points} points, over the enumeration cap")
        return [Point(self, v) for v in _normalized_vectors(self.field, self.dim + 1)]


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
        """Point codes of all points, in the order of `point_vectors` (`point_codes_of`)."""
        return point_codes_of([self])[0]

    def point_vectors(self) -> list[Vec]:
        """Normalized coordinate vectors of all points (unsorted, fast path)."""
        decode = self.ambient.decode
        return [decode(c) for c in self.point_codes()]


def point_codes_of(subspaces) -> list[list[int]]:
    """The point codes of each of `subspaces`, which have equal rank and
    share one ambient; entry j lists subspace j's points in the order of
    `point_vectors`.

    That order is the order of the coefficient vectors in
    `_normalized_vectors`: lead row index descending, then the later rows'
    multipliers in `product` order.  Over a table field `_point_codes`
    builds them from the rows as bytes; other fields pack `vec_mat` per point.
    """
    subs = list(subspaces)
    if not subs:
        return []
    space, r = subs[0].ambient, subs[0].rank
    if any(s.ambient is not space and s.ambient != space for s in subs):
        raise ValueError("ambient spaces differ")
    if any(s.rank != r for s in subs):
        raise ValueError("subspaces of mixed rank")
    field = space.field
    if field.mul_bytes() is None:
        coeffs = _normalized_vectors(field, r)
        pack = space.encode
        return [[pack(vec_mat(field, c, s.rows)) for c in coeffs] for s in subs]
    return _point_codes(space, b"".join(map(bytes, [row for s in subs for row in s.rows])),
                        len(subs))


def _point_codes(space: ProjSpace, src: bytes, count: int) -> list[list[int]]:
    """`point_codes_of` over a table field on `count` subspaces of `space`
    of one rank, given by `src`: their rows end to end, subspace by
    subspace, each row in the point-code layout.

    A point is the lead row's code xor one multiple of each later row.
    Since c -> c*row is additive, the multiples c*row, c = 0..q-1, are the
    xor combinations of the m multiples x^j * row (`bytes.translate` reads
    each one), and doubling the list once per j keeps c in increasing order.
    All subspaces are doubled together: row k of every subspace is laid end
    to end in one int, one chunk of W in {1, 2, 4, 8} bytes each in the
    host's byte order (one strided slice assignment per coordinate), and
    one `memoryview` cast reads the chunks back, subspace j's codes being
    the stride slice [j::E] of E subspaces.  A point of more than 8
    coordinates takes a big-endian chunk of its own length, read singly.
    """
    if not count:
        return []
    field = space.field
    tables = field.mul_bytes()
    length = space.dim + 1
    r = len(src) // (length * count)
    width = next((w for w in (1, 2, 4, 8) if w >= length), length)
    # byte offset of coordinate c in a chunk: the last coordinate is the
    # least significant byte of a code
    little = width <= 8 and sys.byteorder == "little"
    offsets = [length - 1 - c if little else width - length + c for c in range(length)]
    out: list[int] = []
    tails = [0]  # codes of the combinations of the rows after the lead
    for k in range(r - 1, -1, -1):
        layer = bytearray(width * count)
        for c, o in enumerate(offsets):
            layer[o::width] = src[k * length + c::r * length]
        row = bytes(layer)
        lead = int.from_bytes(row, "big")
        out += [lead ^ t for t in tails]
        if k:
            for j in range(field.m):
                b = int.from_bytes(row.translate(tables[1 << j]), "big")
                tails += [b ^ t for t in tails]
    buf = b"".join(x.to_bytes(width * count, "big") for x in out)
    if width <= 8:
        codes = memoryview(buf).cast("BHIQ"[width.bit_length() - 1])
        return [codes[j::count].tolist() for j in range(count)]
    flat = [int.from_bytes(buf[i:i + width], "big") for i in range(0, len(buf), width)]
    return [flat[j::count] for j in range(count)]


def _packed_echelon(rows, tables, length: int, reduced: bool) -> list[int]:
    """Row echelon form of `rows`, packed as point codes of `length`
    coordinates over a table field, with every pivot 1: its nonzero rows by
    pivot column ascending.  With `reduced` the pivot columns are cleared
    too, which gives the RREF (`QuotientMap` docstring)."""
    basis: list[tuple[int, int]] = []  # (bit shift of the pivot byte, row), pivot ascending
    for r in rows:
        for s, b in basis:
            c = r >> s & 255
            if c:
                r ^= int.from_bytes(b.to_bytes(length, "big").translate(tables[c]), "big")
        if r:
            s = (r.bit_length() - 1) & ~7
            c = r >> s
            lead = r.to_bytes(length, "big")
            if c != 1:
                # c's table row holds 1 at the inverse of c
                lead = lead.translate(tables[tables[c].index(1)])
                r = int.from_bytes(lead, "big")
            if reduced:
                for i, (t, b) in enumerate(basis):
                    c = b >> s & 255
                    if c:
                        basis[i] = t, b ^ int.from_bytes(lead.translate(tables[c]), "big")
            basis.append((s, r))
            basis.sort(reverse=True)
    return [b for _, b in basis]


def point_owners(subspaces) -> dict[int, int]:
    """Point code -> position of the last of `subspaces` that holds the point.

    On pairwise skew subspaces (a spread, the elements of a generalized arc)
    every point has one owner, and a subspace lies inside another one S
    exactly when it owns all its points among the codes of S.
    """
    owner: dict[int, int] = {}
    for idx, codes in enumerate(point_codes_of(subspaces)):
        owner.update(dict.fromkeys(codes, idx))
    return owner


def plane_line_codes(space: ProjSpace) -> list[list[int]]:
    """The lines of the plane `space` = PG(2, Q), one per dual point d in
    `_normalized_vectors` order: the point codes of the line d.x = 0, in
    `Subspace.point_codes` order.

    With r the last nonzero coordinate of d, the line is the graph of
    x_r = -(1/d_r) sum_{j < r} d_j x_j, so its RREF rows are e_j - (d_j/d_r) e_r
    for j != r, with pivots j: column r is free, and d_j = 0 for j > r.
    """
    field = space.field
    lines = []
    for d in _normalized_vectors(field, 3):
        r = 2 if d[2] else 1 if d[1] else 0
        s = field.neg(field.inv(d[r]))
        pivots = tuple(j for j in range(3) if j != r)
        rows = tuple(tuple(1 if c == j else field.mul(s, d[j]) if c == r else 0
                           for c in range(3)) for j in pivots)
        lines.append(Subspace(space, rows, pivots))
    return point_codes_of(lines)


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
    ker = kernel(a.ambient.field, a.rows, a.ambient.dim + 1)
    return Subspace(a.ambient, ker, _pivots_of(ker))


def _pivots_of(rows: tuple[Vec, ...]) -> tuple[int, ...]:
    pivots = []
    for row in rows:
        pivots.append(next(j for j, x in enumerate(row) if x))
    return tuple(pivots)


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

    `images` maps many subspaces at once.  As C is in RREF, reduction
    modulo C sends v to v - sum_t v[p_t] * C_t, so non-pivot coordinate j
    of the image is v[j] - sum_t C_t[j] * v[p_t].  Over a table field the
    rows of all subspaces are laid end to end in one byte string, so column
    o is its stride slice, and coordinate j of every image row is column j
    xor the translates of the pivot columns by C_t[j].

    Each image row is read out as one int in the point-code layout, and
    each image is put in echelon form on those ints (`_packed_echelon`): a
    row's pivot is its leading byte, at bit shift (bit_length - 1) & ~7,
    and a row operation is one xor of a translate.  `images` decodes the
    RREF once per image; `image_codes` passes the rows on to the codes.
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

    def _listed(self, subspaces) -> list[Subspace]:
        subs = list(subspaces)
        amb = self.ambient
        if any(s.ambient is not amb and s.ambient != amb for s in subs):
            raise ValueError("ambient spaces differ")
        return subs

    def images(self, subspaces) -> list[Subspace]:
        """The image of each of `subspaces`, in order (class docstring)."""
        if self.ambient.field.mul_bytes() is None:
            return [self.space.subspace([self.image_vec(r) for r in s.rows])
                    for s in self._listed(subspaces)]
        length = self.space.dim + 1
        return [Subspace(self.space, tuple(tuple(r.to_bytes(length, "big")) for r in rows),
                         tuple(length - 1 - ((r.bit_length() - 1) >> 3) for r in rows))
                for rows in self._packed_images(subspaces, reduced=True)]

    def image_codes(self, subspaces, rank: int) -> tuple[int | None, list[Sequence[int]]]:
        """(b, codes): b is the position of the first image whose rank is not
        `rank`, None if there is none, and codes[j] lists the point codes of
        image j < b.  Over a table field no `Subspace` is built, and the
        rows are not reduced: any echelon basis with pivots 1 lists each
        point once, normalized, in an order of its own.  Other fields map
        rank-1 subspaces by `image_vec` on their one row, whose normalized
        point is the image (rank 0 if it is zero), and the rest by `images`."""
        if self.ambient.field.mul_bytes() is None:
            subs = self._listed(subspaces)
            bases = [s.rows for s in subs]
            if rank == 1 and set(map(len, bases)) == {1}:
                vecs = [self.image_vec(rows[0]) for rows in bases]
                bad = next((b for b, v in enumerate(vecs) if not any(v)), None)
                field, encode = self.space.field, self.space.encode
                # one-point tuples, which the garbage collector stops tracking
                return bad, [(encode(normalize_point(field, v)),) for v in vecs[:bad]]
            images = self.images(subs)
            bad = next((b for b, img in enumerate(images) if img.rank != rank), None)
            return bad, point_codes_of(images[:bad])
        rows = self._packed_images(subspaces, reduced=False)
        bad = next((b for b, r in enumerate(rows) if len(r) != rank), None)
        good, length = rows[:bad], self.space.dim + 1
        src = b"".join([r.to_bytes(length, "big") for img in good for r in img])
        return bad, _point_codes(self.space, src, len(good))

    def _packed_images(self, subspaces, reduced: bool) -> list[list[int]]:
        """Each image's echelon rows as point codes; table fields only."""
        subs = self._listed(subspaces)
        tables = self.ambient.field.mul_bytes()
        d = self.ambient.dim + 1
        length = len(self._nonpivot)
        src = b"".join(map(bytes, [r for s in subs for r in s.rows]))
        count = len(src) // d
        center = self.center
        pivot_cols = [src[p::d] for p in center.pivots]
        buf = bytearray(count * length)  # image row t is buf[t*length:(t+1)*length]
        for o, j in enumerate(self._nonpivot):
            acc = int.from_bytes(src[j::d], "big")
            for crow, col in zip(center.rows, pivot_cols):
                if crow[j]:
                    acc ^= int.from_bytes(col.translate(tables[crow[j]]), "big")
            buf[o::length] = acc.to_bytes(count, "big")
        rows = [int.from_bytes(buf[t:t + length], "big") for t in range(0, len(buf), length)]
        out = []
        start = 0
        for s in subs:
            out.append(_packed_echelon(rows[start:start + s.rank], tables, length, reduced))
            start += s.rank
        return out

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
