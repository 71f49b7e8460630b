"""Mutation fuzz of every file-reading command.

Small valid pal-v1 files of each kind get one mutation each (a key or list
item deleted, a value swapped for another JSON type, an out-of-range code)
and go through every command that reads a file.  A malformed file must exit
2 with one stderr line; exit 1 must come with an `ok: false` report; no
exception may escape `main`.
"""

from __future__ import annotations

import contextlib
import copy
import io as stdio
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from pal import (conic, desarguesian_spread, derive_spread_from_element,  # noqa: E402
                 extend_to_hyperoval, io, reduction_map, regulus_through)
from pal.cli import _pg2_lines_design, main  # noqa: E402


def _bases() -> dict:
    oval = reduction_map(2, 2).reduce_arc(conic(4))
    pg34 = desarguesian_spread(4, 2)
    return {
        "oval22": io.pseudo_arc_to_json(oval),
        "hyperoval22": io.pseudo_arc_to_json(extend_to_hyperoval(oval)),
        "plane-arc": io.plane_arc_to_json(conic(4)),
        "spread-pg32": io.spread_to_json(derive_spread_from_element(oval, 0)),
        "spread-pg34": io.spread_to_json(pg34),
        "regulus": io.regulus_to_json(regulus_through(*pg34.elements[:3])),
        "design-pg22": io.design_to_json(_pg2_lines_design(2)),
    }


BASES = _bases()

# each command with "F" for the input file; "O" is where its report goes
COMMANDS = [
    ["verify", "F", "-o", "O"],
    ["tangents", "F", "-o", "O"],
    ["derive", "F", "--all", "--outdir", "D"],
    ["dualize", "F", "-o", "O"],
    ["regulus", "F", "--elements", "0,1,2", "-o", "O"],
    ["check-regular", "F", "-o", "O"],
    ["theorem", "--id", "6.1", "F", "-o", "O"],
    ["design", "--check", "F", "-o", "O"],
    ["design", "--spread-reguli", "F", "-o", "O"],
    ["design", "--plane-model-from", "F", "-o", "O"],
    ["design", "--dual-blocks", "F", "-o", "O"],
    ["report", "F"],
]

RETYPED = [True, False, None, 0, 1, "2", 2.5, [], {}]
OUT_OF_RANGE = [-1, 7, 99]


def _paths(node, path=()):
    """Every node below `node`; lists are entered at their first and last item."""
    if path:
        yield path
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _paths(node[key], path + (key,))
    elif isinstance(node, list) and node:
        for i in sorted({0, len(node) - 1}):
            yield from _paths(node[i], path + (i,))


@st.composite
def mutated_files(draw):
    name = draw(st.sampled_from(sorted(BASES)))
    obj = copy.deepcopy(BASES[name])
    path = draw(st.sampled_from(list(_paths(obj))))
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    how = draw(st.sampled_from(["delete", "retype", "range"]))
    if how == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.sampled_from(RETYPED if how == "retype"
                                                else OUT_OF_RANGE))
    return name, path, how, obj


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(case=mutated_files())
def test_mutated_files_exit_cleanly(workdir, case):
    name, path, how, obj = case
    src = workdir / "input.json"
    src.write_text(io.dumps(obj), encoding="utf-8")
    out, outdir = workdir / "out.json", workdir / "derived"
    for command in COMMANDS:
        argv = [{"F": str(src), "O": str(out), "D": str(outdir)}.get(a, a)
                for a in command]
        out.unlink(missing_ok=True)
        stdout, stderr = stdio.StringIO(), stdio.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        where = f"{command[0]} on {name} with {how} at {list(path)}"
        assert code in (0, 1, 2, 3, 4), where
        if code == 2:
            assert stderr.getvalue().count("\n") == 1, where
        if code == 1:
            assert out.exists(), where
            assert json.loads(out.read_text(encoding="utf-8"))["ok"] is False, where
