"""Mutation audit: does the test suite notice a one-token change in the named functions?

Each mutant changes one site of one function: a comparison operator
(``<`` <-> ``<=``, ``>`` <-> ``>=``, ``==`` <-> ``!=``, ``is`` <-> ``is not``,
``in`` <-> ``not in``), an arithmetic operator (``+`` <-> ``-``, ``*`` <-> ``/``,
``//`` -> ``/``, ``**`` -> ``*``, ``%`` -> ``*``), a boolean operator
(``and`` <-> ``or``), a ``not`` dropped, the condition of an ``if``, a
conditional expression or a ``while`` negated (unless it is a ``not``),
``True`` <-> ``False``, or an integer constant k -> k + 1.  The mutated
module is written with ``ast.unparse`` into a copy of the repository, and
the tests run there with ``-x``; a mutant is killed when they fail and
survives when they pass.

    python tools/mutate.py --workdir /tmp/mutants \\
        src/masspoly/norms.py:_sweep_setup,_lp_sweep src/masspoly/cli.py:_kernel

A target is ``FILE:FUNC[,FUNC...]``; nested functions are part of the one
that holds them, and ``CLASS.FUNC`` names a method of one class.  Each of
the two workers has its own copy of the repository under ``--workdir``, and
a mutant whose tests outlast 600 s counts as a timeout.  The test command is
``python -m pytest -x -q -p no:cacheprovider`` with ``--tests`` (default
``tests``); pytest skips a path given twice, so ``--tests
"tests/test_cli.py tests"`` runs that file first.  One line per mutant goes
to stdout as it finishes, then a JSON summary.  The audit is slow (a
survivor costs one full run of the tests), so it is not part of the test
suite.
"""

from __future__ import annotations

import argparse
import ast
import copy
import json
import os
import queue
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_WORKERS = 2
_TIMEOUT = 600.0  # seconds per mutant

_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult, ast.FloorDiv: ast.Div,
    ast.Pow: ast.Mult, ast.Mod: ast.Mult, ast.And: ast.Or, ast.Or: ast.And,
}


def _sites(node):
    """(node, index, description) of each mutation site in ``node``'s subtree, in source order.

    ``index`` is the operator's index in a comparison, -1 for a negated condition, else None.
    """
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, (ast.If, ast.IfExp, ast.While)) and not (
                isinstance(sub.test, ast.UnaryOp) and isinstance(sub.test.op, ast.Not)):
            out.append((sub, -1, "condition negated"))
        if isinstance(sub, ast.Compare):
            for i, op in enumerate(sub.ops):
                out.append((sub, i, f"{type(op).__name__} -> {_SWAPS[type(op)].__name__}"))
        elif isinstance(sub, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(sub.op) in _SWAPS:
            out.append((sub, None, f"{type(sub.op).__name__} -> {_SWAPS[type(sub.op)].__name__}"))
        elif isinstance(sub, ast.UnaryOp) and isinstance(sub.op, ast.Not):
            out.append((sub, None, "not dropped"))
        elif isinstance(sub, ast.Constant) and type(sub.value) in (bool, int):
            new = (not sub.value) if type(sub.value) is bool else sub.value + 1
            out.append((sub, None, f"{sub.value!r} -> {new!r}"))
    return sorted(out, key=lambda s: (s[0].lineno, s[0].col_offset, s[1] or 0))


def _apply(node, index):
    """Mutate ``node`` in place."""
    if index == -1:
        node.test = ast.UnaryOp(ast.Not(), node.test)
    elif isinstance(node, ast.Compare):
        node.ops[index] = _SWAPS[type(node.ops[index])]()
    elif isinstance(node, ast.Constant):
        node.value = (not node.value) if type(node.value) is bool else node.value + 1
    else:
        node.op = _SWAPS[type(node.op)]()


class _DropNot(ast.NodeTransformer):
    def __init__(self, target):
        self.target = target

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        return node.operand if node is self.target else node


def _function(tree, name):
    """The first function called ``name`` in ``tree``, or None; ``Class.method`` names a method of a class."""
    cls, _, name = name.rpartition(".")
    if cls:
        tree = next((n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == cls), None)
        if tree is None:
            return None
    return next((n for n in ast.walk(tree)
                 if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef)) and n.name == name), None)


def mutants(path: Path, functions):
    """Yield (site id, line, function, description, mutated source) for every site of ``functions``."""
    tree = ast.parse(path.read_text())
    found = {name: _function(tree, name) for name in functions}
    missing = [name for name, node in found.items() if node is None]
    if missing:
        raise SystemExit(f"{path}: no function {', '.join(missing)}")
    for name in functions:
        for k, (node, index, what) in enumerate(_sites(found[name])):
            # mutate a deep copy, found again by the position of the site in the walk
            twin = copy.deepcopy(tree)
            site, _, _ = _sites(_function(twin, name))[k]
            if isinstance(site, ast.UnaryOp):
                twin = _DropNot(site).visit(twin)
            else:
                _apply(site, index)
            yield f"{path.name}:{name}:{k}", node.lineno, name, what, ast.unparse(ast.fix_missing_locations(twin))


def _copy_repo(dest: Path):
    if dest.exists():
        shutil.rmtree(dest)
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".perfbench",
                                                              ".benchmarks", "*.egg-info"))


def _run_tests(repo: Path, tests):
    env = {**os.environ, "PYTHONPATH": str(repo / "src"), "OPENBLAS_NUM_THREADS": "1",
           "PYTHONDONTWRITEBYTECODE": "1"}
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
                              cwd=repo, env=env, capture_output=True, text=True, timeout=_TIMEOUT)
        status = "survived" if proc.returncode == 0 else "killed"
        last = (proc.stdout.strip().splitlines() or [""])[-1]
    except subprocess.TimeoutExpired:
        status, last = "timeout", ""
    return status, time.perf_counter() - t0, last


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("targets", nargs="+", metavar="FILE:FUNC[,FUNC...]")
    parser.add_argument("--workdir", type=Path, required=True, help="where the per-worker copies of the repository go")
    parser.add_argument("--tests", default="tests", help="pytest paths, space separated (default: tests)")
    args = parser.parse_args(argv)

    todo = []
    for target in args.targets:
        file, _, names = target.partition(":")
        path = (ROOT / file).resolve()
        for site in mutants(path, names.split(",")):
            todo.append((path.relative_to(ROOT), *site))
    tests = args.tests.split()
    workers = [args.workdir / f"worker{i}" for i in range(_WORKERS)]
    for repo in workers:
        _copy_repo(repo)
        status, seconds, last = _run_tests(repo, tests)
        if status != "survived":
            raise SystemExit(f"the unmutated tests do not pass in {repo}: {last}")
    free = queue.Queue()  # the copies no mutant is running in
    for repo in workers:
        free.put(repo)

    def run(item):
        rel, sid, line, name, what, source = item
        repo = free.get()
        target = repo / rel
        original = target.read_text()
        try:
            target.write_text(source)
            status, seconds, last = _run_tests(repo, tests)
        finally:
            target.write_text(original)
            free.put(repo)
        row = {"id": sid, "where": f"{rel}:{line}", "function": name, "mutation": what, "status": status,
               "seconds": round(seconds, 1), "last_line": last}
        print(f"{status:8} {seconds:6.1f}s  {sid:32} {rel}:{line}  {what}", flush=True)
        return row

    with ThreadPoolExecutor(len(workers)) as pool:
        results = list(pool.map(run, todo))
    counts = {s: sum(r["status"] == s for r in results) for s in ("killed", "survived", "timeout")}
    print(json.dumps({"counts": counts, "survivors": [r for r in results if r["status"] != "killed"]}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
