from __future__ import annotations

import json

import pytest

import pal.cli
from pal import (ProjSpace, Spread, check_design, conic, gf, io, is_regular_spread,
                 make_pseudo_arc, plane_model, recognize_regular, reduction_map, span)
from pal.cli import main

from helpers import plane_arc_to_json


@pytest.fixture()
def arc_file(tmp_path):
    path = tmp_path / "oval.json"
    assert main(["construct", "--q", "4", "--n", "2", "--source", "conic",
                 "-o", str(path)]) == 0
    return path


@pytest.fixture()
def hyper_file(tmp_path):
    path = tmp_path / "hyper.json"
    assert main(["construct", "--q", "4", "--n", "2",
                 "--source", "hyperoval-from:conic", "-o", str(path)]) == 0
    return path


def test_construct_and_verify(arc_file):
    obj = io.load(arc_file, "pseudo-arc")
    assert len(obj["elements"]) == 17
    assert obj["arc_kind"] == "pseudo-oval"
    assert main(["verify", str(arc_file)]) == 0


def test_construct_small_case(tmp_path):
    path = tmp_path / "a.json"
    assert main(["construct", "--q", "2", "--n", "3", "--source", "conic",
                 "-o", str(path)]) == 0
    obj = io.load(path, "pseudo-arc")
    assert len(obj["elements"]) == 9 and obj["n"] == 3


@pytest.mark.parametrize("q,n", [(2, 5), (32, 1)])
def test_construct_and_verify_order_32(tmp_path, q, n):
    """q^n = 32 is under the cap, and GF(32) has a default modulus."""
    path = tmp_path / "a.json"
    assert main(["construct", "--q", str(q), "--n", str(n), "--source", "conic",
                 "-o", str(path)]) == 0
    obj = io.load(path, "pseudo-arc")
    assert (len(obj["elements"]), obj["n"], obj["arc_kind"]) == (33, n, "pseudo-oval")
    assert main(["verify", str(path)]) == 0


def test_construct_rejects_bad_translation(tmp_path):
    code = main(["construct", "--q", "4", "--n", "2",
                 "--source", "translation:2", "-o", str(tmp_path / "x.json")])
    assert code == 2


@pytest.mark.parametrize("args,message", [
    (["construct", "--q", "4", "--n", "-1"], "construct needs q >= 2 and n >= 1, got q=4, n=-1"),
    (["construct", "--q", "4", "--n", "0"], "construct needs q >= 2 and n >= 1, got q=4, n=0"),
    (["construct", "--q", "0", "--n", "2"], "construct needs q >= 2 and n >= 1, got q=0, n=2"),
    (["design", "--pg2-lines", "0"], "unsupported field order 0"),
], ids=["n=-1", "n=0", "q=0", "pg2-lines=0"])
def test_bad_orders_exit_2_with_one_line(tmp_path, capsys, args, message):
    """q**n = 0.25 used to reach gf and end in a traceback, q = 0 to print
    "negative shift count", and --pg2-lines 0 to read as no design source."""
    out = tmp_path / "x.json"
    extra = ["--source", "conic"] if args[0] == "construct" else []
    capsys.readouterr()
    assert main([*args, *extra, "-o", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_construct_cap(tmp_path):
    code = main(["construct", "--q", "4", "--n", "4", "--source", "conic",
                 "-o", str(tmp_path / "x.json")])
    assert code == 2  # q^n = 256 over the default cap


def test_verify_catches_corruption(arc_file, tmp_path):
    obj = io.load(arc_file)
    obj["elements"] = obj["elements"][:-1] + [obj["elements"][0]]
    bad = tmp_path / "bad.json"
    bad.write_text(io.dumps(obj), encoding="utf-8")
    assert main(["verify", str(bad)]) == 1


def test_verify_rejects_malformed(tmp_path):
    f = tmp_path / "junk.json"
    f.write_text("{}", encoding="utf-8")
    assert main(["verify", str(f)]) == 2
    f.write_text("not json", encoding="utf-8")
    assert main(["verify", str(f)]) == 2


@pytest.mark.parametrize("command", ["verify", "tangents"])
@pytest.mark.parametrize("key", ["field", "n"])
def test_missing_key_exits_2(arc_file, tmp_path, capsys, key, command):
    obj = io.load(arc_file)
    del obj[key]
    bad = tmp_path / "bad.json"
    bad.write_text(io.dumps(obj), encoding="utf-8")
    assert main([command, str(bad)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: missing field {key!r}\n"


def test_report_missing_field_exits_2(arc_file, tmp_path, capsys):
    outdir = tmp_path / "d"
    assert main(["derive", str(arc_file), "--index", "0", "--outdir", str(outdir)]) == 0
    for path in (arc_file, outdir / "delta_0.json"):
        obj = io.load(path)
        del obj["field"]
        bad = tmp_path / "bad.json"
        bad.write_text(io.dumps(obj), encoding="utf-8")
        capsys.readouterr()
        assert main(["report", str(bad)]) == 2
        assert capsys.readouterr().err == "error: missing field 'field'\n"


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """Files written by construct, derive --index 0 and dualize at (4,2), plus a plane arc."""
    d = tmp_path_factory.mktemp("written")
    assert main(["construct", "--q", "4", "--n", "2", "--source", "conic",
                 "-o", str(d / "oval.json")]) == 0
    assert main(["derive", str(d / "oval.json"), "--index", "0", "--outdir", str(d)]) == 0
    assert main(["dualize", str(d / "oval.json"), "-o", str(d / "dual.json")]) == 0
    io.save(d / "plane.json", plane_arc_to_json(conic(4)))
    return d


def _probes(name, path, value, commands):
    return [(name, path, value, c) for c in commands]


MALFORMED = [
    *_probes("oval.json", ["field"], 5, ["verify", "tangents", "report"]),
    *_probes("oval.json", ["n"], "2", ["verify", "tangents", "report"]),
    *_probes("oval.json", ["elements", 0], 5, ["verify", "report"]),
    *_probes("oval.json", ["elements"], 5, ["verify", "report"]),
    *_probes("oval.json", ["elements", 0, "rows", 0, 0], True, ["verify", "report"]),
    *_probes("delta_0.json", ["carrier"], {}, ["verify", "check-regular"]),
    *_probes("delta_0.json", ["carrier"], 3, ["verify", "check-regular"]),
    *_probes("delta_0.json", ["ambient_dim"], "3", ["verify", "check-regular"]),
    *_probes("delta_0.json", ["field", "m"], "2", ["verify", "report"]),
    *_probes("delta_0.json", ["field", "modulus_bits"], "7", ["verify", "check-regular"]),
    *_probes("delta_0.json", ["elements", 0, "rows"], 5, ["verify", "check-regular"]),
    *_probes("delta_0.json", ["elements", 0, "rows", 0], 5, ["verify", "check-regular"]),
    *_probes("oval.json", ["witness"], 5, ["report"]),
    *_probes("dual.json", ["gammas", 0], 5, ["report"]),
    *_probes("plane.json", ["points", 0], [1, 0], ["verify", "report"]),
    *_probes("plane.json", ["points", 0, 1], 9, ["verify", "report"]),
    *_probes("plane.json", ["points", 0], [0, 0, 0], ["verify", "report"]),
    *_probes("delta_0.json", ["ambient_dim"], 30_000_000, ["verify", "check-regular"]),
]


@pytest.mark.parametrize("name, path, value, command", MALFORMED)
def test_malformed_file_exits_2_with_one_line(written, tmp_path, capsys,
                                              name, path, value, command):
    obj = io.load(written / name)
    node = obj
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(io.dumps(obj), encoding="utf-8")
    capsys.readouterr()
    assert main([command, str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_tangents_of_hyperoval_exits_2(hyper_file, tmp_path, capsys):
    out = tmp_path / "tang.json"
    assert main(["tangents", str(hyper_file), "-o", str(out)]) == 2
    assert capsys.readouterr().err == \
        "error: tangent spaces exist for pseudo-ovals, not pseudo-hyperoval\n"
    assert not out.exists()


def test_tangents(arc_file, tmp_path):
    out = tmp_path / "tang.json"
    assert main(["tangents", str(arc_file), "-o", str(out)]) == 0
    obj = io.load(out, "tangents-report")
    assert obj["ok"] and obj["count"] == 17
    assert obj["nucleus"] is not None


def test_derive_all_and_check_regular(hyper_file, tmp_path):
    outdir = tmp_path / "deltas"
    assert main(["derive", str(hyper_file), "--all",
                 "--outdir", str(outdir)]) == 0
    files = sorted(outdir.glob("delta_*.json"))
    assert len(files) == 18
    report = io.load(outdir / "derive_report.json", "derive-report")
    assert report["ok"]
    one = outdir / "delta_0.json"
    assert main(["check-regular", str(one), "-o", str(tmp_path / "r.json")]) == 0
    rep = io.load(tmp_path / "r.json", "regularity-report")
    assert rep["regular"] and rep["mode"] == "full"


def test_check_regular_transversals(hyper_file, tmp_path):
    outdir = tmp_path / "d"
    assert main(["derive", str(hyper_file), "--index", "0",
                 "--outdir", str(outdir)]) == 0
    assert main(["check-regular", str(outdir / "delta_0.json"),
                 "--transversals", "-o", str(tmp_path / "r.json")]) == 0
    rep = io.load(tmp_path / "r.json")
    assert rep["transversals"]["ok"]
    assert len(rep["transversals"]["lines"]) == 2


def test_regulus_and_negative_control(hyper_file, tmp_path):
    outdir = tmp_path / "d"
    main(["derive", str(hyper_file), "--index", "0", "--outdir", str(outdir)])
    spread_file = outdir / "delta_0.json"
    reg_out = tmp_path / "reg.json"
    assert main(["regulus", str(spread_file), "--elements", "0,1,2",
                 "--opposite", "-o", str(reg_out)]) == 0
    reg = io.load(reg_out, "regulus")
    assert len(reg["elements"]) == 5
    assert reg["contained_in_spread"]
    # swap in the opposite regulus to build the non-regular fixture
    spread = io.spread_from_json(io.load(spread_file, "spread"))
    regulus = io.regulus_from_json(reg)
    opposite = io.regulus_from_json(reg["opposite"])
    keep = tuple(e for e in spread.elements if e not in regulus.element_set())
    bad = Spread(spread.space, keep + opposite.elements)
    bad_file = tmp_path / "bad_spread.json"
    io.save(bad_file, io.spread_to_json(bad))
    assert main(["verify", str(bad_file)]) == 0   # still a spread
    rc = main(["check-regular", str(bad_file), "-o", str(tmp_path / "rr.json")])
    assert rc == 1
    rep = io.load(tmp_path / "rr.json")
    assert rep["witness"]["kind"] == "regulus-closure"


@pytest.mark.parametrize("elements", ["-1,0,1", "0,1,17", "0,1"])
def test_regulus_rejects_bad_indices(hyper_file, tmp_path, capsys, elements):
    main(["derive", str(hyper_file), "--index", "0", "--outdir", str(tmp_path)])
    capsys.readouterr()
    assert main(["regulus", str(tmp_path / "delta_0.json"), f"--elements={elements}",
                 "-o", str(tmp_path / "reg.json")]) == 2
    assert capsys.readouterr().err == f"error: bad element indices {elements!r}\n"
    assert not (tmp_path / "reg.json").exists()


def test_theorem_cli(hyper_file, tmp_path):
    assert main(["theorem", "--id", "6.1", str(hyper_file),
                 "-o", str(tmp_path / "t.json")]) == 0
    rep = io.load(tmp_path / "t.json", "theorem-report")
    assert rep["verdict"] == "consistent"
    assert main(["theorem", "--id", "6.3", "--rho", "15", str(hyper_file),
                 "-o", str(tmp_path / "t3.json")]) == 0


def test_artifacts_byte_deterministic(tmp_path, capsys, monkeypatch):
    """Every artifact-writing command, run twice at (4,2), writes the same
    bytes, stdout and exit codes."""
    commands = [
        ["construct", "--q", "4", "--n", "2", "--source", "conic", "-o", "oval.json"],
        ["construct", "--q", "4", "--n", "2", "--source", "hyperoval-from:conic",
         "-o", "hyper.json"],
        ["verify", "oval.json", "-o", "verify.json"],
        ["tangents", "oval.json", "-o", "tangents.json"],
        ["derive", "hyper.json", "--all", "--outdir", "deltas"],
        ["dualize", "hyper.json", "-o", "dual.json"],
        ["regulus", "deltas/delta_0.json", "--elements", "0,1,2", "--opposite",
         "-o", "regulus.json"],
        ["check-regular", "deltas/delta_0.json", "--transversals", "-o", "regular.json"],
        ["theorem", "--id", "6.2", "oval.json", "-o", "theorem.json"],
        ["design", "--spread-reguli", "deltas/delta_0.json", "--save-design",
         "-o", "design.json"],
    ]
    runs = []
    for name in ("a", "b"):
        work = tmp_path / name
        work.mkdir()
        monkeypatch.chdir(work)
        capsys.readouterr()
        codes = [main(cmd) for cmd in commands]
        # the round trip: checking the saved design saves the same design
        io.save("saved.json", io.load("design.json", "design-report")["design"])
        codes.append(main(["design", "--check", "saved.json", "--save-design",
                           "-o", "checked.json"]))
        files = {str(p.relative_to(work)): p.read_bytes()
                 for p in sorted(work.rglob("*.json"))}
        runs.append((codes, capsys.readouterr().out, files))
    assert runs[0] == runs[1]
    assert runs[0][0] == [0] * (len(commands) + 1)
    # derive --all: 18 spreads and 1 report; the round trip: 2 files
    assert len(runs[0][2]) == len(commands) - 1 + 19 + 2
    files = runs[0][2]
    assert io.dumps(json.loads(files["checked.json"])["design"]).encode() == files["saved.json"]
    assert "seconds" not in io.load(tmp_path / "a" / "theorem.json", "theorem-report")


def _transversals_refused(spread, tmp_path, capsys, message):
    """check-regular --transversals on `spread` exits 2 with `message` as its
    one stderr line and writes no report."""
    io.save(tmp_path / "s.json", io.spread_to_json(spread))
    capsys.readouterr()
    assert main(["check-regular", str(tmp_path / "s.json"), "--transversals",
                 "-o", str(tmp_path / "r.json")]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: {message}\n")
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("q,count", [(2, 21), (4, 273)])
def test_transversals_need_pg_2n_minus_1(q, count, tmp_path, capsys):
    """The reduced points of PG(2, q^2) are a regular spread of PG(5, q)
    (vacuously so at q = 2), but not of a PG(2n-1, q): --transversals
    refuses the input, as it refuses any malformed one."""
    rm = reduction_map(q, 2)
    spread = Spread(rm.target, tuple(rm.reduce_point(p) for p in rm.source.points()))
    assert len(spread) == count
    assert is_regular_spread(spread).regular
    _transversals_refused(spread, tmp_path, capsys,
                          "spread-set structure needs a spread of PG(2n-1, q)")


def test_transversals_need_n_at_least_2(tmp_path, capsys):
    """The points of PG(1, 4) are a spread of points: no transversal lines."""
    space = ProjSpace(1, gf(4))
    spread = Spread(space, tuple(space.subspace([p.coords]) for p in space.points()))
    _transversals_refused(spread, tmp_path, capsys, "transversal lines need n >= 2")


def test_transversals_of_a_hall_spread_fail_with_a_witness(tmp_path, shuffled_hall):
    """A Hall spread is not regular: --transversals exits 1 and reports the
    regulus-closure witness of the sweep."""
    io.save(tmp_path / "s.json", io.spread_to_json(shuffled_hall(4, 1)))
    assert main(["check-regular", str(tmp_path / "s.json"), "--transversals",
                 "-o", str(tmp_path / "r.json")]) == 1
    rep = io.load(tmp_path / "r.json", "regularity-report")
    assert not rep["regular"] and rep["witness"]
    assert rep["transversals"]["ok"] is False
    assert rep["transversals"]["witness"] == rep["witness"]


def test_theorem_out_of_hypothesis(tmp_path):
    arc = tmp_path / "a.json"
    main(["construct", "--q", "2", "--n", "3",
          "--source", "hyperoval-from:conic", "-o", str(arc)])
    assert main(["theorem", "--id", "6.1", str(arc),
                 "-o", str(tmp_path / "t.json")]) == 4


@pytest.mark.parametrize("args,message", [
    (["--id", "6.3", "--rho", "100"], "error: theorem 6.3 needs rho <= k = 18\n"),
    (["--id", "7.1", "--delta0", "-3"], "error: theorem 7.1 needs delta0 >= 0\n"),
])
def test_theorem_given_range_below_zero_exits_2(hyper_file, tmp_path, capsys, args, message):
    """A rho above k, or a negative delta0, would start the given range below
    index 0 on the 18-element (4,2) hyperoval."""
    capsys.readouterr()
    assert main(["theorem", *args, str(hyper_file), "-o", str(tmp_path / "t.json")]) == 2
    assert capsys.readouterr().err == message
    assert not (tmp_path / "t.json").exists()


def test_theorem_kind_mismatch(arc_file, tmp_path):
    assert main(["theorem", "--id", "6.1", str(arc_file)]) == 2


def test_design_cli(tmp_path):
    assert main(["design", "--pg2-lines", "4", "-o", str(tmp_path / "d.json")]) == 0
    rep = io.load(tmp_path / "d.json", "design-report")
    assert rep["ok"] and rep["v"] == 21


def decoded_pg2_lines_design(q):
    """Reference design: each line of PG(2, q) by decoding its points."""
    from pal.projective import kernel
    from pal.theorems import lines_design
    space = ProjSpace(2, gf(q))
    pts = space.points()
    index = {p.coords: i for i, p in enumerate(pts)}
    lines = []
    for coeff in [p.coords for p in pts]:
        line = space.subspace(kernel(space.field, [coeff], 3))
        lines.append(frozenset(index[x.coords] for x in line.points()))
    return lines_design(range(len(pts)), sorted(set(lines), key=sorted))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 16])
def test_pg2_lines_design_matches_decoded_points(q):
    from pal.cli import _pg2_lines_design
    assert _pg2_lines_design(q) == decoded_pg2_lines_design(q)


def test_design_check_deleted_block(tmp_path):
    assert main(["design", "--pg2-lines", "4", "--save-design",
                 "-o", str(tmp_path / "d.json")]) == 0
    design = io.load(tmp_path / "d.json")["design"]
    design["blocks"] = design["blocks"][1:]
    f = tmp_path / "broken.json"
    f.write_text(io.dumps(design), encoding="utf-8")
    assert main(["design", "--check", str(f),
                 "-o", str(tmp_path / "rep.json")]) == 1
    rep = io.load(tmp_path / "rep.json")
    assert rep["witness"]["kind"] == "cover" and rep["witness"]["count"] == 0


def test_design_plane_model_byte_deterministic(arc_file, tmp_path, capsys):
    outputs = []
    for name in ("a.json", "b.json"):
        assert main(["design", "--plane-model-from", str(arc_file), "--save-design",
                     "-o", str(tmp_path / name)]) == 0
        outputs.append((tmp_path / name).read_bytes())
    assert outputs[0] == outputs[1]
    rep = io.load(tmp_path / "a.json", "design-report")
    assert rep["ok"] and (rep["v"], rep["k"], rep["blocks"]) == (273, 17, 273)


def test_design_dual_blocks_tabulation(hyper_file, tmp_path):
    assert main(["design", "--dual-blocks", str(hyper_file), "--tabulate",
                 "-o", str(tmp_path / "d.json")]) == 0
    rep = io.load(tmp_path / "d.json")
    assert not rep["ok"]  # tabulation mode reports without failing
    assert rep["k"] == 6


def test_report_command(arc_file, capsys):
    assert main(["report", str(arc_file)]) == 0
    out = capsys.readouterr().out
    assert "pseudo-arc" in out and "17 elements" in out


def test_serialization_roundtrip_byte_identical(arc_file, hyper_file, tmp_path):
    for path in (arc_file, hyper_file):
        raw = path.read_text(encoding="utf-8")
        obj = io.pseudo_arc_from_json(io.load(path, "pseudo-arc"))
        again = io.dumps(io.pseudo_arc_to_json(obj))
        assert again == raw
    outdir = tmp_path / "d"
    main(["derive", str(hyper_file), "--index", "3", "--outdir", str(outdir)])
    sp = outdir / "delta_3.json"
    raw = sp.read_text(encoding="utf-8")
    spread = io.spread_from_json(io.load(sp, "spread"))
    assert io.dumps(io.spread_to_json(spread)) == raw
    # regulus and design files round-trip the same way
    from pal import regulus_through
    reg = regulus_through(*spread.elements[:3])
    blob = io.dumps(io.regulus_to_json(reg))
    again = io.regulus_from_json(io.load_obj(blob))
    assert io.dumps(io.regulus_to_json(again)) == blob
    from pal import spread_reguli_design
    spec = spread_reguli_design(spread, exceptions=(0,))
    blob = io.dumps(io.design_to_json(spec))
    again = io.design_from_json(io.load_obj(blob))
    assert io.dumps(io.design_to_json(again)) == blob


def test_golden_construction_bytes():
    """Canonical forms and the fixed conventions pin the serialized output of
    a construction down to the byte; drift here means a convention changed."""
    import hashlib
    rm = reduction_map(2, 2)
    arc = rm.reduce_arc(conic(4))
    assert [e.rows for e in arc.elements] == [
        ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)),
        ((1, 0, 1, 0, 1, 0), (0, 1, 0, 1, 0, 1)),
        ((1, 0, 0, 1, 1, 1), (0, 1, 1, 1, 1, 0)),
        ((1, 0, 1, 1, 0, 1), (0, 1, 1, 0, 1, 1)),
        ((0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)),
    ]
    blob = io.dumps(io.pseudo_arc_to_json(arc))
    assert hashlib.sha256(blob.encode()).hexdigest() == \
        "b3ca8205b6b571be27df307259555d5bee1019d94ccfe8db76536e3f93382db5"


def test_noncanonical_subspace_rows_rejected(tmp_path, arc_file):
    obj = io.load(arc_file)
    # row scaled out of canonical form: loader must reject it
    obj["elements"][0]["rows"][0] = [0, 1, 0, 0, 0, 0]
    obj["elements"][0]["rows"][1] = [1, 0, 0, 0, 0, 0]
    f = tmp_path / "noncanon.json"
    f.write_text(io.dumps(obj), encoding="utf-8")
    assert main(["verify", str(f)]) == 2


def test_field_serialization_roundtrip():
    from pal import field_make, gf
    for fld in (field_make(2), field_make(4), field_make(6), gf(5)):
        assert io.field_from_json(io.field_to_json(fld)) == fld


def test_report_on_a_reduction_map_file(tmp_path, capsys):
    """No command writes the reduction-map kind, but report still reads it
    as a generic kind: the kind line, then an empty line of known keys."""
    obj = {"schema": "pal-v1", "kind": "reduction-map", "convention": "powerbasis-v1",
           "source_dim": 2, "tower": {"base": {"p": 2, "m": 2, "modulus_bits": 7},
                                      "top": {"p": 2, "m": 4, "modulus_bits": 19}, "n": 2}}
    (tmp_path / "rmap.json").write_text(json.dumps(obj), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", str(tmp_path / "rmap.json")]) == 0
    assert capsys.readouterr() == ("pal-v1 file: kind=reduction-map\n  \n", "")


def test_dualize_cli(arc_file, tmp_path):
    out = tmp_path / "dual.json"
    assert main(["dualize", str(arc_file), "-o", str(out)]) == 0
    obj = io.load(out, "dual-arc")
    assert len(obj["betas"]) == 18
    assert obj["extended"]
    assert all(g["regular"] for g in obj["gammas"])


def test_certificate_keeps_cli_bytes(tmp_path, capsys, monkeypatch, shuffled_hall):
    """Every file, stdout and exit code of the commands that read regularity
    at (4,2) is the same with is_regular_spread's certificate on and off."""
    import pal.spreads
    from pal import desarguesian_spread
    inputs = tmp_path / "in"
    inputs.mkdir()
    for name, source in (("oval", "conic"), ("hyper", "hyperoval-from:conic")):
        assert main(["construct", "--q", "4", "--n", "2", "--source", source,
                     "-o", str(inputs / f"{name}.json")]) == 0
    # the q = 8 Hall spread reaches the certificate before its witness
    for q, seed in ((4, 1), (8, 213)):
        io.save(inputs / f"hall{q}.json", io.spread_to_json(shuffled_hall(q, seed)))
    io.save(inputs / "desarg.json", io.spread_to_json(desarguesian_spread(4, 2)))
    commands = [
        ["derive", "in/hyper.json", "--all", "--outdir", "deltas"],
        ["derive", "in/oval.json", "--all", "--outdir", "deltas_oval"],
        ["dualize", "in/hyper.json", "-o", "dual.json"],
        ["theorem", "--id", "6.1", "in/hyper.json", "-o", "t61.json"],
        ["theorem", "--id", "6.2", "in/oval.json", "-o", "t62.json"],
        ["design", "--dual-blocks", "in/hyper.json", "--tabulate", "-o", "blocks.json"],
        ["design", "--spread-reguli", "in/desarg.json", "-o", "reguli.json"],
    ]
    for spread in ("desarg", "hall4", "hall8"):
        for mode in ("full", "fixed"):
            for extra in ([], ["--transversals"]):
                commands.append(["check-regular", f"in/{spread}.json", "--mode", mode,
                                 *extra, "-o", f"{spread}-{mode}{''.join(extra)}.json"])
    certified = []

    def run(name):
        work = tmp_path / name
        work.mkdir()
        (work / "in").symlink_to(inputs)
        monkeypatch.chdir(work)
        capsys.readouterr()
        results = [(main(cmd), capsys.readouterr()) for cmd in commands]
        files = {str(p.relative_to(work)): p.read_bytes()
                 for p in sorted(work.rglob("*.json")) if "in" not in p.parts}
        return results, files

    certify = pal.spreads.spread_field

    def spy(spread):
        field = certify(spread)
        certified.append(field is not None)
        return field

    monkeypatch.setattr(pal.spreads, "spread_field", spy)
    on = run("on")
    asked = len(certified)
    # the sweep compares CERTIFICATE_AFTER with a count of at least 1
    monkeypatch.setattr(pal.spreads, "CERTIFICATE_AFTER", 0)
    off = run("off")
    assert on == off
    assert len(certified) == asked  # the sweep no longer asks the certificate
    assert len(on[1]) == len(commands) - 2 + 2 * 19  # each derive writes 18 spreads, 1 report
    # one certificate per distinct element set per command: 1 for each derive
    # --all and for dualize (the spreads of each share one set), 2 for each
    # theorem (the derived spreads, then Gamma_i in recognition), 1 for each
    # check-regular of desarg, and 1 more for --mode fixed --transversals,
    # whose transversals read the 'auto' report
    assert certified.count(True) == 12 and False in certified


@pytest.mark.parametrize("name", ["conic_hyperoval", "moved_oval"])
def test_one_certificate_per_element_set(request, tmp_path, monkeypatch, name):
    """derive --all, dualize and theorem 6.1 certify each distinct element
    set of the spreads they check once: the conic's derived spreads and its
    Gamma_s are one set each, the moved arc's are all distinct.  Theorem
    6.1 certifies Gamma_i once more, in recognition."""
    import pal.spreads
    from pal import derive_spread_from_element, dual_arc, extend_to_hyperoval
    arc = request.getfixturevalue(name)
    if arc.kind == "pseudo-oval":
        arc = extend_to_hyperoval(arc)
    io.save(tmp_path / "hyper.json", io.pseudo_arc_to_json(arc))
    k = len(arc.elements)
    derived = len({derive_spread_from_element(arc, i).element_set() for i in range(k)})
    gammas = len({g.element_set() for g in dual_arc(arc).gammas})
    assert (derived, gammas) == ((1, 1) if name == "conic_hyperoval" else (k, k))
    certify = pal.spreads.spread_field
    certified = []

    def spy(spread):
        field = certify(spread)
        certified.append(field is not None)
        return field

    monkeypatch.setattr(pal.spreads, "spread_field", spy)
    monkeypatch.chdir(tmp_path)
    for argv, expected in ((["derive", "hyper.json", "--all", "--outdir", "d"], derived),
                           (["dualize", "hyper.json", "-o", "dual.json"], gammas),
                           (["theorem", "--id", "6.1", "hyper.json", "-o", "t.json"],
                            derived + 1)):
        certified.clear()
        assert main(argv) == 0
        assert certified == [True] * expected


def test_transversals_reuse_the_auto_report(tmp_path, monkeypatch, shuffled_hall):
    """check-regular --transversals hands its report to the transversals when
    its mode is the one 'auto' picks (full at (4, 2)), so a Hall spread is
    swept once; in mode fixed the transversals sweep again."""
    import pal.sigma
    from pal import desarguesian_spread
    sweep = pal.sigma.is_regular_spread
    sweeps = []

    def spy(spread):
        sweeps.append(spread)
        return sweep(spread)

    monkeypatch.setattr(pal.sigma, "is_regular_spread", spy)
    for spread, ok in ((shuffled_hall(4, 1), False), (desarguesian_spread(4, 2), True)):
        io.save(tmp_path / "s.json", io.spread_to_json(spread))
        for mode, again in (("auto", 0), ("full", 0), ("fixed", 1)):
            sweeps.clear()
            assert main(["check-regular", str(tmp_path / "s.json"), "--mode", mode,
                         "--transversals", "-o", str(tmp_path / "r.json")]) == (0 if ok else 1)
            assert len(sweeps) == again
            assert io.load(tmp_path / "r.json")["transversals"]["ok"] is ok


def test_unrecognized_arc_fails_theorem_and_plane_model(unrecognizable, arc_file, hyper_file,
                                                        tmp_path, capsys):
    """When recognition fails, theorem 6.1 reports the converse failed (exit 3)
    and the plane model has no spread to model (exit 1)."""
    capsys.readouterr()
    assert main(["theorem", "--id", "6.1", str(hyper_file), "-o", str(tmp_path / "t.json")]) == 3
    rep = io.load(tmp_path / "t.json", "theorem-report")
    assert (rep["forward"], rep["converse"], rep["verdict"]) == ("pass", "fail", "inconsistent")
    assert rep["recognition"] == {"regular": False, "choice": {}, "identification": None,
                                  "line_counts": []}
    assert capsys.readouterr().err == ""
    assert main(["design", "--plane-model-from", str(arc_file),
                 "-o", str(tmp_path / "d.json")]) == 1
    assert capsys.readouterr().err == "error: arc was not recognized as regular\n"
    assert not (tmp_path / "d.json").exists()


@pytest.fixture(scope="module")
def rejected(tmp_path_factory):
    """The (4,2) oval and hyperoval, delta_0 of the hyperoval, and corrupted
    copies: a repeated element, a wrong arc_kind, n = 0, a spread with two
    meeting elements, delta_0 cut to no elements and to its first 3, and the
    conic of PG(2, 4) with its last point moved onto the line of the first two."""
    d = tmp_path_factory.mktemp("rejected")
    assert main(["construct", "--q", "4", "--n", "2", "--source", "conic",
                 "-o", str(d / "oval.json")]) == 0
    assert main(["construct", "--q", "4", "--n", "2", "--source", "hyperoval-from:conic",
                 "-o", str(d / "hyper.json")]) == 0
    assert main(["derive", str(d / "hyper.json"), "--index", "0", "--outdir", str(d)]) == 0
    oval = io.load(d / "oval.json")
    for name, key, value in (("repeated", "elements", oval["elements"][:-1] + oval["elements"][:1]),
                             ("kind", "arc_kind", "pseudo-hyperoval"), ("n0", "n", 0)):
        io.save(d / f"{name}.json", {**oval, key: value})
    spread = io.spread_from_json(io.load(d / "delta_0.json"))
    e0, e1 = spread.elements[:2]
    meeting = spread.space.subspace([e0.rows[0], e1.rows[0]])
    io.save(d / "meeting.json", io.spread_to_json(Spread(
        spread.space, spread.elements[:-1] + (meeting,), carrier=spread.carrier,
        origin=spread.origin)))
    plane = plane_arc_to_json(conic(4))
    plane["points"][4] = [a ^ b for a, b in zip(*plane["points"][:2])]
    io.save(d / "collinear.json", plane)
    for name, cut in (("empty", 0), ("three", 3)):
        io.save(d / f"{name}.json", io.spread_to_json(Spread(
            spread.space, spread.elements[:cut], origin=spread.origin)))
    return d


REJECTIONS = [
    (["tangents", "repeated.json"], 2,
     "pseudo-arc failed verification: elements 0,1,16 do not span the space"),
    (["verify", "repeated.json"], 1, {"ok": False, "witness": {
        "kind": "non-spanning-triple", "indices": [0, 1, 16]}}),
    (["tangents", "kind.json"], 2, "arc kind 'pseudo-oval' != declared 'pseudo-hyperoval'"),
    (["verify", "n0.json"], 2, "projective dimension -1 is below 1"),
    (["construct", "--q", "6", "--n", "1", "--source", "conic", "-o", "x.json"], 2,
     "q=6 is not a power of two"),
    (["construct", "--q", "4", "--n", "2", "--source", "ellipse", "-o", "x.json"], 2,
     "unknown source 'ellipse'"),
    (["derive", "oval.json"], 2, "choose --index, --all or --nucleus"),
    (["regulus", "delta_0.json", "--elements", "a,b,c"], 2, "bad element indices 'a,b,c'"),
    (["theorem", "--id", "6.3", "--given", "0,1", "hyper.json"], 2,
     "theorem 6.3 needs at least q^n - 1 = 15 given spreads"),
    (["theorem", "--id", "7.1", "--given", "0,1", "hyper.json"], 2,
     "theorem 7.1 needs at least q^n + 1 - delta0 given spreads"),
    (["theorem", "--id", "7.1", "--delta0", "99", "--given",
      ",".join(map(str, range(18))), "hyper.json"], 2, "theorem 7.1 needs delta0 <= q - 2 = 2"),
    (["theorem", "--id", "7.1", "--delta0", "-5", "--given", "0,1,2", "hyper.json"], 2,
     "theorem 7.1 needs delta0 >= 0"),
    (["theorem", "--id", "6.3", "--given", "0,99", "hyper.json"], 2,
     "given indices out of range: [99]"),
    (["theorem", "--id", "6.3", "--given", "1,x", "hyper.json"], 2,
     "bad --given indices '1,x'"),
    (["theorem", "--id", "6.1", "--rho", "3", "hyper.json"], 2, "theorem 6.1 takes no rho"),
    (["theorem", "--id", "7.1", "--rho", "16", "hyper.json"], 2, "theorem 7.1 takes no rho"),
    (["theorem", "--id", "6.3", "--rho", "16", "--given", "2,3", "hyper.json"], 2,
     "theorem 6.3 takes rho or given indices, not both"),
    (["theorem", "--id", "6.1", "--given", "0,1", "hyper.json"], 2,
     "theorem 6.1 takes no given indices"),
    (["theorem", "--id", "6.2", "--given", "0,1", "oval.json"], 2,
     "theorem 6.2 takes no given indices"),
    (["theorem", "--id", "6.1", "--given", "", "hyper.json"], 2,
     "theorem 6.1 takes no given indices"),
    (["theorem", "--id", "6.2", "--given", "", "oval.json"], 2,
     "theorem 6.2 takes no given indices"),
    (["theorem", "--id", "6.3", "--given", "", "hyper.json"], 2,
     "theorem 6.3 needs at least q^n - 1 = 15 given spreads"),
    (["theorem", "--id", "7.1", "--given", "", "hyper.json"], 2,
     "theorem 7.1 needs at least q^n + 1 - delta0 given spreads"),
    (["theorem", "--id", "6.3", "--delta0", "1", "hyper.json"], 2,
     "theorem 6.3 takes no delta0"),
    (["design", "--pg2-lines", "4", "--exceptions", "0,1"], 2,
     "--exceptions applies only to --spread-reguli"),
    (["design", "--dual-blocks", "hyper.json", "--exceptions", "0"], 2,
     "--exceptions applies only to --spread-reguli"),
    (["design", "--spread-reguli", "delta_0.json", "--exceptions", "0,x"], 2,
     "bad --exceptions indices '0,x'"),
    (["design", "--spread-reguli", "delta_0.json", "--exceptions", "99"], 2,
     "bad --exceptions indices '99'"),
    (["design", "--spread-reguli", "delta_0.json", "--exceptions", "-1"], 2,
     "bad --exceptions indices '-1'"),
    (["design", "--spread-reguli", "delta_0.json", "--exceptions", "99", "--tabulate"], 2,
     "bad --exceptions indices '99'"),
    (["design", "--spread-reguli", "empty.json"], 2, "not a spread: no elements"),
    (["design", "--spread-reguli", "three.json"], 2, "not a spread: 3 elements, expected 17"),
    (["construct", "--q", "4", "--n", "2", "--source", "translation:abc", "-o", "x.json"], 2,
     "bad translation exponent 'abc'"),
    (["construct", "--q", "4", "--n", "2", "--source", "hyperoval-from:translation:", "-o",
      "x.json"], 2, "bad translation exponent ''"),
    (["verify", "collinear.json"], 1, {"ok": False, "reason": "points 0,1,4 are collinear",
                                        "witness": {"kind": "collinear-triple",
                                                    "indices": [0, 1, 4]}}),
    (["check-regular", "meeting.json"], 1, {"ok": False, "spread_ok": False, "witness": {
        "kind": "not-skew", "pair": [15, 16], "point": [0, 0, 1, 1]}}),
    (["derive", "hyper.json", "--index", "5", "--all"], 2,
     "choose --index or --all, not both"),
    (["derive", "hyper.json", "--nucleus", "--outdir", "x.json"], 2,
     "the nucleus-derived spread is defined for pseudo-ovals"),
    (["verify", "oval.json", "-o", "missing/a.json"], 2,
     "cannot write missing/a.json: [Errno 2] No such file or directory: 'missing/a.json'"),
    (["construct", "--q", "4", "--n", "2", "--source", "conic", "-o", "missing/x.json"], 2,
     "cannot write missing/x.json: [Errno 2] No such file or directory: 'missing/x.json'"),
    (["derive", "hyper.json", "--all", "--outdir", "oval.json"], 2,
     "cannot write oval.json: [Errno 17] File exists: 'oval.json'"),
]


@pytest.mark.parametrize("argv, code, expected", REJECTIONS,
                         ids=["_".join(argv) for argv, _, _ in REJECTIONS])
def test_rejections_exit_with_one_line(rejected, tmp_path, capsys, monkeypatch,
                                       argv, code, expected):
    """Malformed input exits 2 with one line on stderr; a failed check exits 1
    with its witness in the report and nothing on stderr."""
    monkeypatch.chdir(rejected)
    argv = [str(tmp_path / a) if a == "x.json" else a for a in argv]
    capsys.readouterr()
    assert main(argv) == code
    out, err = capsys.readouterr()
    if code == 2:
        assert err == f"error: {expected}\n"
        assert not (tmp_path / "x.json").exists()
    else:
        assert err == ""
        report = json.loads(out)
        assert {key: report[key] for key in expected} == expected


@pytest.mark.parametrize("source", ["--check", "--spread-reguli", "--plane-model-from",
                                    "--dual-blocks"])
def test_design_empty_source_path_fails_to_read(tmp_path, capsys, source):
    """An empty path is a chosen source that cannot be read."""
    capsys.readouterr()
    assert main(["design", f"{source}=", "-o", str(tmp_path / "d.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read : ") and err.count("\n") == 1
    assert not (tmp_path / "d.json").exists()


def test_derive_index_with_all_is_refused_before_writing(rejected, tmp_path, capsys):
    """--all already derives spread I, so --index I --all is refused before
    the output directory is made; --nucleus --index I derives two spreads."""
    capsys.readouterr()
    assert main(["derive", str(rejected / "hyper.json"), "--index", "5", "--all",
                 "--outdir", str(tmp_path / "both")]) == 2
    assert capsys.readouterr().err == "error: choose --index or --all, not both\n"
    assert not (tmp_path / "both").exists()
    assert main(["derive", str(rejected / "oval.json"), "--nucleus", "--index", "5",
                 "--outdir", str(tmp_path / "pair")]) == 0
    report = io.load(tmp_path / "pair" / "derive_report.json", "derive-report")
    assert [e["index"] for e in report["spreads"]] == ["nucleus", "5"]


@pytest.mark.parametrize("index", ["99", "17", "-1"])
def test_derive_bad_index_is_refused_before_writing(rejected, tmp_path, capsys, index):
    """An index outside the 17 elements exits 2 with one line.  Every job,
    the nucleus one too, is derived before the output directory is made."""
    capsys.readouterr()
    outdir = tmp_path / "d"
    assert main(["derive", str(rejected / "oval.json"), "--nucleus", f"--index={index}",
                 "--outdir", str(outdir)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: element index {index} out of range\n"
    assert captured.out == ""
    assert not outdir.exists()


DESIGN_SOURCES = {
    "pg2-lines": ["--pg2-lines", "4"],
    "spread-reguli": ["--spread-reguli", "delta_0.json", "--exceptions", "0,1"],
    "dual-blocks": ["--dual-blocks", "hyper.json", "--tabulate"],
    "plane-model-from": ["--plane-model-from", "oval.json"],
    "check": ["--check", "scrambled.json"],
}


@pytest.mark.parametrize("source", sorted(DESIGN_SOURCES))
def test_design_sources_give_sorted_int_tuples(source, rejected, tmp_path, capsys,
                                               monkeypatch):
    """Every design source hands check_design strictly increasing int
    tuples, in the block order of the frozenset-and-`key=sorted` form: the
    sorted block order for the three producers that sort, the model's line
    order for the plane model, and the file's order for --check (whose file
    has reversed blocks, a repeated point and the lines in reverse)."""
    assert main(["design", "--pg2-lines", "4", "--save-design",
                 "-o", str(tmp_path / "pg2.json")]) == 0
    pg2 = io.load(tmp_path / "pg2.json", "design-report")["design"]
    scrambled = [b[::-1] + b[:1] for b in pg2["blocks"][::-1]]
    io.save(tmp_path / "scrambled.json", {**pg2, "blocks": scrambled})
    monkeypatch.chdir(rejected)
    specs = []
    monkeypatch.setattr(pal.cli, "check_design",
                        lambda spec: specs.append(spec) or check_design(spec))
    argv = [str(tmp_path / a) if a == "scrambled.json" else a for a in DESIGN_SOURCES[source]]
    assert main(["design", *argv]) == 0
    capsys.readouterr()
    (spec,) = specs
    assert all(type(b) is tuple and all(type(x) is int for x in b)
               and all(x < y for x, y in zip(b, b[1:])) for b in spec.blocks)
    if source == "check":
        reference = [frozenset(b) for b in scrambled]
    elif source == "plane-model-from":
        res = recognize_regular(io.pseudo_arc_from_json(io.load("oval.json")))
        reference = list(plane_model(res.scaffold).members)
    else:
        reference = sorted(map(frozenset, spec.blocks), key=sorted)
    assert list(spec.blocks) == [tuple(sorted(b)) for b in reference]


def test_design_spread_reguli_takes_exceptions(rejected, tmp_path):
    assert main(["design", "--spread-reguli", str(rejected / "delta_0.json"),
                 "--exceptions", "0,1", "-o", str(tmp_path / "d.json")]) == 0
    assert io.load(tmp_path / "d.json", "design-report")["exceptions"] == [0, 1]


def test_report_on_every_written_kind(rejected, tmp_path, capsys):
    """`report` on each kind the CLI writes, and on a kind it does not know."""
    d = tmp_path
    for argv in (["regulus", str(rejected / "delta_0.json"), "--elements", "0,1,2",
                  "-o", str(d / "regulus.json")],
                 ["dualize", str(rejected / "oval.json"), "-o", str(d / "dual.json")],
                 ["theorem", "--id", "6.1", str(rejected / "hyper.json"),
                  "-o", str(d / "theorem.json")],
                 ["design", "--pg2-lines", "4", "-o", str(d / "design.json")]):
        assert main(argv) == 0
    io.save(d / "unknown.json", {"schema": io.SCHEMA, "kind": "mystery"})
    # the conic of PG(2, 5) as an n = 1 pseudo-oval: q is read off the field
    odd = make_pseudo_arc(ProjSpace(2, gf(5)), [span([p]) for p in conic(gf(5)).points])
    io.save(d / "odd.json", io.pseudo_arc_to_json(odd))
    expected = {
        rejected / "oval.json": ["kind=pseudo-arc",
                                 "  q=2^2=4, n=2, 17 elements, kind=pseudo-oval",
                                 "  witness: oval via powerbasis-v1"],
        d / "odd.json": ["kind=pseudo-arc", "  q=5^1=5, n=1, 6 elements, kind=pseudo-oval"],
        rejected / "delta_0.json": ["kind=spread", "  17 elements in PG(3, 4), origin=delta[0]"],
        d / "regulus.json": ["kind=regulus",
                             "  5 elements in PG(3, 4), contained_in_spread=True"],
        d / "dual.json": ["kind=dual-arc", "  18 dual elements; regular spreads: 18/18"],
        d / "theorem.json": ["kind=theorem-report",
                             "  theorem 6.1: consistent (forward=pass, converse=pass)"],
        d / "design.json": ["kind=design-report", "  2-(21,5,1): ok=True, blocks=21"],
        d / "unknown.json": ["kind=mystery", "  (no summary available)"],
    }
    for path, (kind, *lines) in expected.items():
        capsys.readouterr()
        assert main(["report", str(path)]) == 0
        assert capsys.readouterr() == ("".join(f"{line}\n" for line in
                                               [f"pal-v1 file: {kind}", *lines]), "")
