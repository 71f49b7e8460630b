"""Tooling checks: the benchmark's tracer still finds every pal function it
wraps, a round of each benchmark workload passes its own checks without
repeating work, and no pal module keeps an unused import or an unused
private function."""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_tracer_installs():
    # Tracer.install reads each wrap target from its owner's namespace, so a
    # renamed or deleted pal function makes it raise
    code = ("import sys; sys.path[:0] = ['src', 'bench']; "
            "from tracer import Tracer; Tracer().install()")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_bench_reduce_workload_checks():
    # one round of reduce-q4n3, checked by the bench's own GF(2^h) rank tests
    # of sampled spanning triples, the tangent spaces and the extension
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "reduce-q4n3",
                           "--seed", "1", "--seconds", "0", "--trace", "0"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["correct"] is True and result["failed"] == 0, proc.stderr


def test_bench_theorem_workload_checks():
    # one round of theorem-q4n2: the CLI from construct to theorems 6.1/6.2
    # and both designs, checked by the bench's own GF(2^h) routines
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "theorem-q4n2",
                           "--seed", "1", "--seconds", "0", "--trace", "0"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["correct"] is True and result["failed"] == 0, proc.stderr


def test_theorem_workload_work_counts(tmp_path, monkeypatch):
    """The eight CLI commands of theorem-q4n2 make at most 6 spread-set
    certificates (one per element set per command: derive --all 1, each
    theorem 2 with recognition's Gamma_i, the plane model 1) and build the
    full dual arc once, for design --dual-blocks."""
    import pal.cli
    import pal.spreads
    calls = Counter()
    for name in ("spread_field", "dual_arc"):
        orig = getattr(pal.spreads, name)

        def spy(*args, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(*args)
        for mod in [m for n, m in sys.modules.items() if n.startswith("pal.")]:
            if vars(mod).get(name) is orig:
                monkeypatch.setattr(mod, name, spy)
    monkeypatch.chdir(tmp_path)
    for argv in (
            ["construct", "--q", "4", "--n", "2", "--source", "conic", "-o", "oval.json"],
            ["construct", "--q", "4", "--n", "2", "--source", "hyperoval-from:conic",
             "-o", "hyper.json"],
            ["verify", "hyper.json"],
            ["derive", "hyper.json", "--all", "--outdir", "deltas"],
            ["theorem", "--id", "6.1", "hyper.json", "-o", "t61.json"],
            ["theorem", "--id", "6.2", "oval.json", "-o", "t62.json"],
            ["design", "--dual-blocks", "hyper.json", "--tabulate", "--save-design",
             "-o", "dual_blocks.json"],
            ["design", "--plane-model-from", "oval.json", "--save-design",
             "-o", "plane_model.json"]):
        assert pal.cli.main(argv) == 0
    assert calls["spread_field"] <= 6, calls
    assert calls["dual_arc"] <= 1


def test_recognition_work_counts(conic_hyperoval, monkeypatch):
    """Recognition of the (4,2) conic hyperoval asks incidence through psi^-1,
    so it builds no point-owner map, and it meets U_1, u_1, T_1 and theta_1
    only, the other conjugates being read off them: at most 25 `meet` calls
    (one point-owner map and 49 meets when every conjugate was met)."""
    import pal.projective
    from pal import recognize_regular
    calls = Counter()
    for name in ("meet", "point_owners"):
        orig = getattr(pal.projective, name)

        def spy(*args, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(*args)
        for mod in [m for n, m in sys.modules.items() if n.startswith("pal.")]:
            if vars(mod).get(name) is orig:
                monkeypatch.setattr(mod, name, spy)
    assert recognize_regular(conic_hyperoval).regular
    assert calls["point_owners"] == 0
    assert calls["meet"] <= 25, calls


def test_bench_reject_workload_checks():
    # one round of reject-q4q8: Hall spreads and near-miss pseudo-ovals, each
    # checked against the bench's own witnesses
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "reject-q4q8",
                           "--seed", "1", "--seconds", "0", "--trace", "0"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["correct"] is True and result["failed"] == 0, proc.stderr


def test_no_unused_imports():
    """Every name a pal module imports is used in it (__init__.py re-exports)."""
    unused = []
    for path in sorted((ROOT / "src" / "pal").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line}: {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused, unused


def _names(node):
    """Every name and attribute referenced under `node`."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_no_unused_private_functions():
    """Every module-level _name function or class of pal, and every _name
    method or cached property of a module-level class, is referenced in pal
    outside its own definition."""
    defined = {}
    used = Counter()
    own = Counter()
    for path in sorted((ROOT / "src" / "pal").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used.update(_names(tree))
        members = [m for top in tree.body if isinstance(top, ast.ClassDef) for m in top.body]
        for node in tree.body + members:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                defined[node.name] = f"{path.name}:{node.lineno}"
                own[node.name] += sum(name == node.name for name in _names(node))
    unused = [f"{where}: {name}" for name, where in defined.items() if used[name] == own[name]]
    assert not unused, unused
