import ast
import glob
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def _trees(*dirs):
    for d in dirs:
        for path in sorted(glob.glob(os.path.join(ROOT, d, "**", "*.py"),
                                     recursive=True)):
            with open(path) as fh:
                yield path, ast.parse(fh.read(), path)


def test_every_library_definition_is_named_elsewhere():
    # a function, class or method of the library that no code names is
    # dead: a change that deletes its last caller must delete it too
    named = set()
    for _, tree in _trees("src", "tests", "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)       # getattr and monkeypatch names
    dead = [f"{os.path.relpath(path, ROOT)}:{node.lineno} {node.name}"
            for path, tree in _trees("src")
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))
            and node.name not in named]
    assert not dead, dead


def test_coboundaries_are_reduced_only_by_pairs():
    # one homology path: Betti numbers, torsion and induced ranks all read
    # the cached reduction of homology._pairs, the one place in the
    # library that names a coboundary or a Smith reduction with its pairs
    names = {"coboundary_sparse", "smith_pivots"}

    def named(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from named(child, child.name)
                continue
            if isinstance(child, ast.alias):
                name = child.name.rpartition(".")[2]
            else:
                name = getattr(child, "attr", getattr(child, "id", None))
            if name in names:
                yield scope, name
            yield from named(child, scope)

    found = {(os.path.relpath(path, ROOT), scope, name)
             for path, tree in _trees("src") for scope, name in named(tree, None)}
    assert found == {(os.path.join("src", "fintop", "homology.py"), "_pairs", name)
                     for name in names}


def test_simplex_lookups_outside_simplicial_are_batched():
    # one simplex index: the library finds vertex sets by `positions` over
    # rows; the one-row wrapper `position` is named only where it is defined
    found = [f"{os.path.relpath(path, ROOT)}:{node.lineno}"
             for path, tree in _trees("src")
             if os.path.basename(path) != "simplicial.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "position"]
    assert not found, found


def test_masks_are_scanned_flat():
    # one scan of a mask: np.flatnonzero, with np.divmod for the row and
    # column of each entry, in row-major order; np.nonzero builds one index
    # array per axis and was the slower scan of the threshold graph
    found = [f"{os.path.relpath(path, ROOT)}:{node.lineno}"
             for path, tree in _trees("src")
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "nonzero"
             or isinstance(node, ast.alias) and node.name == "nonzero"]
    assert not found, found


def test_no_library_path_makes_a_distance_matrix():
    # the library reads distances from points, by metric.close_pairs and
    # metric.cross_distances; the n x n matrix is made only in
    # MetricSample.pairwise, for the tests and callers that ask for it
    names = {"pairwise", "points_distance_matrix"}
    found = []
    for path, tree in _trees("src"):
        allowed = {id(node) for cls in ast.walk(tree)
                   if isinstance(cls, ast.ClassDef) and cls.name == "MetricSample"
                   for fn in cls.body
                   if isinstance(fn, ast.FunctionDef) and fn.name == "pairwise"
                   for node in ast.walk(fn)}
        found += [f"{os.path.relpath(path, ROOT)}:{node.lineno}"
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and id(node) not in allowed
                  and getattr(node.func, "attr",
                              getattr(node.func, "id", None)) in names]
    assert not found, found


def test_perfbench_tracer_finds_every_wrapped_name():
    # perfbench/tracing.py replaces fintop names with traced wrappers; a name
    # deleted from the library would break `perfbench/run.py --trace 1`
    code = ("import fintop.linalg as L, fintop.metric as M, tracing\n"
            "tracing.install(tracing.Tracer())\n"
            "assert hasattr(L.rank_q, '__wrapped__')\n"
            "assert hasattr(M.coverage_radius, '__wrapped__')\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=PERFBENCH, env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("workload", ["circle4-induced", "squares5-certify",
                                      "squares3-integral"])
def test_perfbench_workload_runs_traced(workload, tmp_path):
    # one traced run of each benchmark workload: a changed signature that
    # workloads.py calls or tracing.py wraps fails here, not in the benchmark
    proc = subprocess.run(
        [sys.executable, "child.py", "--workload", workload, "--seed", "0",
         "--trace", "1", "--workdir", str(tmp_path),
         "--spans", str(tmp_path / "spans.json")],
        cwd=PERFBENCH, env=ENV, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0, result["failures"]
