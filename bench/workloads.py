"""The benchmark's workloads: set-up, operations and output checks.

A workload object is its set-up: constructing it builds every input from
the seed with the freshly imported `pal`.  `ops` lists the operations of one
round as (kind, function, argument); a round runs them in order and keeps
their outputs.  `check` tests one round's outputs against `gf2` and against
properties the method must have, and raises CheckFailed; `digest` hashes a
round's outputs, so later rounds are checked by equality with the first
without keeping its objects alive.
"""

from __future__ import annotations

import contextlib
import importlib
import io as stdio
import json
import random
import shutil
import tempfile
from itertools import chain, combinations
from math import comb
from pathlib import Path

import gf2

# pal's shipped default moduli (src/pal/fields.py), needed to read its codes.
MODULUS = {2: 0b111, 3: 0b1011, 4: 0b10011, 6: 0b1011011}


class CheckFailed(Exception):
    """An output of pal is wrong."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# -- checks shared by the workloads --------------------------------------------


def check_partition(f: gf2.Field, rank_: int, elements, what: str) -> dict:
    """Every point of PG(rank_-1, q) lies in exactly one element; returns point -> index."""
    owner: dict = {}
    for idx, rows in enumerate(elements):
        for pt in gf2.points(f, rows):
            other = owner.setdefault(pt, idx)
            require(other == idx, f"{what}: elements {other} and {idx} share a point")
    total = gf2.n_points(f, rank_)
    require(len(owner) == total, f"{what}: {len(owner)} of {total} points covered")
    return owner


def check_spanning(f: gf2.Field, full: int, elements, triples, what: str) -> None:
    for t in triples:
        rows = [r for i in t for r in elements[i]]
        require(gf2.rank(f, rows) == full, f"{what}: triple {t} does not span")


def check_same(f: gf2.Field, got, expected, what: str) -> None:
    require(gf2.same_space(f, got, expected), f"{what}: wrong subspace")


def conic_points(f: gf2.Field, k: int = 1) -> list[tuple]:
    """{(1, t, t^(2^k))} + {(0, 0, 1)}: the conic for k = 1, else a translation oval."""
    pts = []
    for t in range(f.order):
        v = t
        for _ in range(k):
            v = f.mul[v][v]
        pts.append((1, t, v))
    return pts + [(0, 0, 1)]


NUCLEUS = (0, 1, 0)  # of every translation oval {(1, t, t^(2^k))} + {(0, 0, 1)}


def rows_of(sub) -> list[tuple]:
    return [tuple(r) for r in sub.rows]


def fingerprint(items) -> int:
    """Hash of plain data and pal's report dataclasses, item by item through
    repr, so no copy of a whole round's outputs is made.  Comparable within
    one process only (str hashes are salted per process)."""
    return hash(tuple(hash(repr(item)) for item in items))


# -- theorem-q4n2: the CLI pipeline -------------------------------------------


class TheoremQ4N2:
    """pal's CLI, in process, from the (4,2) conic to theorem verdicts and designs.

    The inputs are fixed; the seed changes nothing in this workload.
    """

    def __init__(self, pal, seed: int, workdir: Path):
        self.cli = importlib.import_module("pal.cli")
        self.dir = Path(tempfile.mkdtemp(prefix="theorem-", dir=workdir))
        d = self.dir
        self.ops = [(f"cli.{argv[0]}", self._run, argv) for argv in (
            ["construct", "--q", "4", "--n", "2", "--source", "conic", "-o", f"{d}/oval.json"],
            ["construct", "--q", "4", "--n", "2", "--source", "hyperoval-from:conic",
             "-o", f"{d}/hyper.json"],
            ["verify", f"{d}/hyper.json"],
            ["derive", f"{d}/hyper.json", "--all", "--outdir", f"{d}/deltas"],
            ["theorem", "--id", "6.1", f"{d}/hyper.json", "-o", f"{d}/t61.json"],
            ["theorem", "--id", "6.2", f"{d}/oval.json", "-o", f"{d}/t62.json"],
            ["design", "--dual-blocks", f"{d}/hyper.json", "--tabulate", "--save-design",
             "-o", f"{d}/dual_blocks.json"],
            ["design", "--plane-model-from", f"{d}/oval.json", "--save-design",
             "-o", f"{d}/plane_model.json"],
        )]
        self.pal = pal

    def _run(self, argv):
        out = stdio.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(argv)
        return code, out.getvalue()

    def reset(self) -> None:
        shutil.rmtree(self.dir)
        self.dir.mkdir()

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def _load(self, name: str) -> dict:
        return json.loads((self.dir / name).read_text(encoding="utf-8"))

    def digest(self, outputs):
        def files():
            for path in sorted(self.dir.rglob("*.json")):
                obj = json.loads(path.read_text(encoding="utf-8"))
                obj.pop("seconds", None)  # theorem reports carry their wall time
                yield str(path.relative_to(self.dir)), json.dumps(obj, sort_keys=True)
        return fingerprint(chain([outputs], files()))

    def check(self, outputs) -> None:
        codes = [code for code, _ in outputs]
        check_exit_codes(codes, [0] * len(self.ops))
        f4 = gf2.Field(MODULUS[2])
        tower = gf2.Tower(MODULUS[2], MODULUS[4])
        plane = conic_points(tower.top)
        oval, hyper = self._load("oval.json"), self._load("hyper.json")
        check_constructed(f4, tower, plane, oval, hyper)
        check_verify_report(json.loads(outputs[2][1]), 18)
        report = self._load("deltas/derive_report.json")
        spreads = [self._load(f"deltas/delta_{i}.json") for i in range(18)]
        check_derived(f4, report, spreads)
        for name in ("t61.json", "t62.json"):
            check_theorem_report(self._load(name))
        arc = self.pal.io.pseudo_arc_from_json(oval)
        res = self.pal.recognize_regular(arc)
        require(res.choice == self._load("t62.json")["recognition"]["choice"],
                "recognition: choice differs from theorem 6.2")
        check_recovered_arc([p.coords for p in res.plane_arc.points], plane)
        check_plane_model(self._load("plane_model.json"))
        check_dual_blocks(self._load("dual_blocks.json"))


def check_exit_codes(codes, expected) -> None:
    require(codes == expected, f"exit codes {codes}, expected {expected}")


def check_constructed(f4, tower, plane, oval, hyper) -> None:
    """Oval element i is the reduction of conic point i; the hyperoval adds the
    nucleus' reduction; every three hyperoval elements span PG(5, 4)."""
    ov = [[tuple(r) for r in e["rows"]] for e in oval["elements"]]
    hy = [[tuple(r) for r in e["rows"]] for e in hyper["elements"]]
    require(len(ov) == 17 and len(hy) == 18, "construct: wrong element counts")
    for i, p in enumerate(plane):
        check_same(f4, ov[i], tower.reduce_point(p), f"oval element {i}")
        check_same(f4, hy[i], ov[i], f"hyperoval element {i}")
    check_same(f4, hy[17], tower.reduce_point(NUCLEUS), "hyperoval nucleus")
    check_spanning(f4, 6, hy, combinations(range(18), 3), "hyperoval")


def check_verify_report(rep: dict, k: int) -> None:
    require(rep["kind"] == "verify-report" and rep["ok"] is True and rep["k"] == k,
            f"verify: report {rep.get('ok')}, k={rep.get('k')}")


def check_derived(f4, report: dict, spreads: list) -> None:
    """18 derived spreads, each 17 lines partitioning PG(3,4), each reported regular:
    derived spreads of a reduced hyperoval are reduced pencils."""
    entries = report["spreads"]
    require(report["ok"] is True and len(entries) == len(spreads) == 18,
            "derive: report not ok or wrong spread count")
    for i, (entry, spread) in enumerate(zip(entries, spreads)):
        require(entry["spread_ok"] is True and entry["regular"] is True
                and entry["vacuous"] is False, f"derive: spread {i} not reported regular")
        lines = [[tuple(r) for r in e["rows"]] for e in spread["elements"]]
        require(len(lines) == 17, f"derive: spread {i} has {len(lines)} lines")
        check_partition(f4, 4, lines, f"derived spread {i}")


def check_theorem_report(rep: dict) -> None:
    require((rep["verdict"], rep["forward"], rep["converse"]) ==
            ("consistent", "pass", "pass"),
            f"theorem {rep['theorem']}: {rep['verdict']} "
            f"(forward={rep['forward']}, converse={rep['converse']})")


def check_recovered_arc(points, plane) -> None:
    require(sorted(map(tuple, points)) == sorted(plane),
            "theorem 6.2: recovered arc is not the conic of PG(2, 16)")


def check_plane_model(rep: dict) -> None:
    """A 2-(273, 17, 1) design: every pair of points in exactly one block."""
    d = rep["design"]
    require(rep["ok"] is True and (d["t"], d["v"], d["k"], d["lambda"]) == (2, 273, 17, 1),
            "plane model: not reported as a valid 2-(273,17,1) design")
    require(sorted(d["points"]) == list(range(273)), "plane model: wrong points")
    cover: dict = {}
    for b in d["blocks"]:
        require(len(set(b)) == 17 and set(b) <= set(range(273)),
                f"plane model: bad block {b}")
        for pair in combinations(sorted(b), 2):
            cover[pair] = cover.get(pair, 0) + 1
    require(len(cover) == comb(273, 2) and set(cover.values()) == {1},
            "plane model: some pair is not in exactly one block")


def check_dual_blocks(rep: dict) -> None:
    d = rep["design"]
    require((d["t"], d["v"], d["k"]) == (4, 18, 6) and d["blocks"],
            "dual blocks: wrong parameters")
    for b in d["blocks"]:
        require(len(set(b)) == 6 and set(b) <= set(range(18)),
                f"dual blocks: block {b} does not have q+2 = 6 members")


# -- reduce-q4n3: library calls at n = 3 ---------------------------------------


class ReduceQ4N3:
    """Field reduction of two ovals of PG(2, 64) to pseudo-ovals of PG(8, 4),
    tangent spaces, nucleus, extension and one derived spread.

    The seed picks the derived spread's element and the sampled triples.
    """

    def __init__(self, pal, seed: int, workdir: Path):
        self.pal = pal
        self.rm = pal.reduction_map(4, 3)
        self.planes = [pal.conic(64), pal.translation_oval(64, 5)]
        rng = random.Random(seed)
        self.index = rng.randrange(66)
        self.samples = [[tuple(sorted(rng.sample(range(k), 3))) for _ in range(200)]
                        for k in (65, 65, 66)]
        self.ops = [("reduce_arc", self._reduce, 0), ("reduce_arc", self._reduce, 1),
                    ("tangent_spaces", self._on_conic, "tangent_spaces"),
                    ("nucleus", self._on_conic, "nucleus"),
                    ("extend_to_hyperoval", self._on_conic, "extend_to_hyperoval"),
                    ("derive_spread_from_element", self._derive, None),
                    ("verify_spread", self._verify, None)]
        self.outs: list = []

    def _reduce(self, i):
        arc = self.rm.reduce_arc(self.planes[i])
        self.outs.append(arc)
        return arc

    def _on_conic(self, fn_name):
        out = getattr(self.pal, fn_name)(self.outs[0])
        self.outs.append(out)
        return out

    def _derive(self, _):
        spread = self.pal.derive_spread_from_element(self.outs[4], self.index)
        self.outs.append(spread)
        return spread

    def _verify(self, _):
        return self.pal.verify_spread(self.outs[5])

    def reset(self) -> None:
        self.outs = []

    def close(self) -> None:
        pass

    def digest(self, outputs):
        conic, trans, taus, nuc, hyper, spread, report = outputs
        subspaces = (*conic.elements, *trans.elements, *taus, nuc, *hyper.elements,
                     *spread.elements)
        return fingerprint(chain(map(rows_of, subspaces), [report]))

    def check(self, outputs) -> None:
        conic, trans, taus, nuc, hyper, spread, report = outputs
        f4 = gf2.Field(MODULUS[2])
        tower = gf2.Tower(MODULUS[2], MODULUS[6])
        sizes = [(a.kind, len(a)) for a in (conic, trans, hyper)]
        require(sizes == [("pseudo-oval", 65), ("pseudo-oval", 65), ("pseudo-hyperoval", 66)],
                f"reduce: arcs {sizes}")
        for arc, k in ((conic, 1), (trans, 5)):
            for i, p in enumerate(conic_points(tower.top, k)):
                check_same(f4, rows_of(arc.elements[i]), tower.reduce_point(p),
                           f"translation oval k={k}, element {i}")
        nucleus_rows = tower.reduce_point(NUCLEUS)
        check_same(f4, rows_of(nuc), nucleus_rows, "nucleus")
        check_tangents(f4, tower, [rows_of(t) for t in taus], conic_points(tower.top))
        for arc, sample in zip((conic, trans, hyper), self.samples):
            check_spanning(f4, 9, [rows_of(e) for e in arc.elements], sample, arc.kind)
        check_same(f4, rows_of(hyper.elements[65]), nucleus_rows, "extension element")
        require(report.ok and len(spread) == 65 and spread.space.dim == 5,
                "derived spread: not reported as a spread of PG(5, 4)")
        check_partition(f4, 6, [rows_of(e) for e in spread.elements],
                        f"derived spread {self.index}")


def check_tangents(f4, tower, taus, plane) -> None:
    """Tangent space i is the reduction of the tangent line at plane point i,
    the line through the point and the nucleus (0, 1, 0)."""
    require(len(taus) == len(plane), "tangents: wrong count")
    nucleus_rows = tower.reduce_point(NUCLEUS)
    for i, (tau, p) in enumerate(zip(taus, plane)):
        check_same(f4, tau, tower.reduce_point(p) + nucleus_rows, f"tangent space {i}")


# -- reject-q4q8: a stream of defective inputs -----------------------------------


class RejectQ4Q8:
    """Hall spreads and near-miss pseudo-ovals at (q, n) = (4, 2) and (8, 2).

    A Hall spread is the Desarguesian spread of PG(3, q) with one regulus
    swapped for its opposite, its elements in a seeded order.  A near-miss
    pseudo-oval replaces element p > 0 of a reduced oval by a line X inside
    <e_0, e_b> and skew to both; X then meets no <e_0, e_x> with x != b, so
    the first triple of the sweep that fails to span is {0, p, b}.  Its
    sweep position among the triples (0, x, y) is drawn from one of N equal
    strata per input, so the seed moves the witnesses but hardly the total
    sweep length.
    """

    # inputs per round: Hall spreads at q = 4 and 8, near-misses at q = 4 and 8
    HALL = {4: 600, 8: 1500}
    NEAR = {4: 400, 8: 60}
    REGULI = {4: 68, 8: 260}  # distinct swapped reguli: all 68 at q = 4, half at q = 8
    EXPONENT = {4: 3, 8: 5}  # the translation ovals (1, t, t^(2^k)) of PG(2, q^2)

    def __init__(self, pal, seed: int, workdir: Path):
        self.pal = pal
        rng = random.Random(seed)
        self.ops = []
        for q in (4, 8):
            self._halls(rng, q)
            self._near_misses(rng, q)
        rng.shuffle(self.ops)

    def _halls(self, rng, q: int) -> None:
        pal = self.pal
        desarg = pal.desarguesian_spread(q, 2)
        elems = desarg.elements
        tower = pal.FieldTower(desarg.space.field, pal.field_make(2 * desarg.space.field.m))
        reguli, seen = [], set()
        while len(reguli) < self.REGULI[q]:
            reg = pal.regulus_through(*(elems[i] for i in rng.sample(range(len(elems)), 3)))
            if reg.element_set() not in seen:
                seen.add(reg.element_set())
                reguli.append(reg)
        swapped = []
        for reg in reguli:
            inside = reg.element_set()
            swapped.append([e for e in elems if e not in inside]
                           + list(pal.opposite_regulus(reg).elements))
        for m in range(self.HALL[q]):
            lines = list(swapped[m % len(swapped)])
            rng.shuffle(lines)
            spread = pal.Spread(desarg.space, tuple(lines), origin=f"hall({q})")
            self.ops.append(("hall", self._hall, (spread, tower)))

    def _near_misses(self, rng, q: int) -> None:
        pal = self.pal
        rm = pal.reduction_map(q, 2)
        space = rm.target
        fld = space.field
        for plane in (pal.conic(q * q), pal.translation_oval(q * q, self.EXPONENT[q])):
            base = [rm.reduce_point(p) for p in plane.points]
            k = len(base)
            pairs = list(combinations(range(1, k), 2))  # the sweep order of (0, x, y)
            n = self.NEAR[q] // 2
            for m in range(n):
                x, y = pairs[int((m + rng.random()) * len(pairs) / n)]
                p, b = (x, y) if rng.random() < 0.5 else (y, x)
                e0, eb = base[0], base[b]
                pool = list(e0.rows + eb.rows)
                while True:
                    vecs = [pal.projective.vec_mat(fld, tuple(rng.randrange(q) for _ in pool), pool)
                            for _ in range(2)]
                    line = space.subspace(vecs)
                    if (line.rank == 2 and pal.span([line, e0]).rank == 4
                            and pal.span([line, eb]).rank == 4):
                        break
                elements = list(base)
                elements[p] = line
                self.ops.append(("near-miss", self._near, (space, tuple(elements))))

    def _hall(self, arg):
        spread, tower = arg
        sr = self.pal.verify_spread(spread)
        rr = self.pal.is_regular_spread(spread)
        try:
            self.pal.spread_transversals(spread, tower)
            raised = False
        except self.pal.NotRegularError:
            raised = True
        return sr, rr, raised

    def _near(self, arg):
        return self.pal.verify_pseudo_arc(*arg)

    def reset(self) -> None:
        pass

    def close(self) -> None:
        pass

    def digest(self, outputs):
        return fingerprint(outputs)

    def check(self, outputs) -> None:
        fields = {4: gf2.Field(MODULUS[2]), 8: gf2.Field(MODULUS[3])}
        owners: dict = {}
        for (kind, _, arg), out in zip(self.ops, outputs):
            if kind == "hall":
                spread = arg[0]
                f = fields[spread.space.field.order]
                lines = [rows_of(e) for e in spread.elements]
                key = frozenset(map(tuple, lines))
                if key not in owners:
                    owners[key] = {pt: tuple(lines[i]) for pt, i in
                                   check_partition(f, 4, lines, "Hall spread").items()}
                check_hall(f, lines, owners[key], *out)
            else:
                space, elements = arg
                f = fields[space.field.order]
                check_near_miss(f, [rows_of(e) for e in elements], out)


def check_hall(f, lines, owner, sr, rr, raised) -> None:
    """A Hall spread is a partition but not regular: the witness regulus has an
    element outside the spread, skew to the three witness lines, and the
    transversal construction refuses it."""
    require(sr.ok, "Hall spread: verify_spread rejects a partition")
    require(not rr.regular and rr.witness and rr.witness.get("kind") == "regulus-closure",
            "Hall spread: reported regular")
    missing = [tuple(r) for r in rr.witness["missing_element"]]
    holders = {owner.get(pt) for pt in gf2.points(f, missing)}
    require(len(holders) > 1, "Hall spread: missing element is a spread element")
    for i in rr.witness["triple"]:
        require(gf2.rank(f, missing + lines[i]) == 4,
                f"Hall spread: missing element meets witness line {i}")
    require(raised, "Hall spread: spread_transversals did not raise NotRegularError")


def check_near_miss(f, elements, report) -> None:
    require(not report.ok and report.witness_triple is not None,
            "near-miss: reported as a pseudo-arc")
    rows = [r for i in report.witness_triple for r in elements[i]]
    require(gf2.rank(f, rows) < len(elements[0][0]),
            f"near-miss: witness {report.witness_triple} spans the space")


WORKLOADS = {"theorem-q4n2": TheoremQ4N2, "reduce-q4n3": ReduceQ4N3,
             "reject-q4q8": RejectQ4Q8}
