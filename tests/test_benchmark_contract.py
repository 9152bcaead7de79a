"""The names the benchmark harness reaches into the library for keep resolving.

``perfbench/tracing.py`` wraps every attribute in ``TRACED`` and, inside each
traced CLI child, looks the ``QUAD_RULES`` functions up in ``sys.modules``;
``perfbench/run.py`` imports names from ``masspoly`` and the ``basis_build``
workload builds one basis with ``high_precision=True``.  The harness files are
only read here.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from masspoly import GenJacobiSpec, MeasureSpec
from masspoly.opoly import basis_for

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACING = _load_tracing()


@pytest.mark.parametrize("module, attr", [
    (module, attr) for module, attrs in TRACING.TRACED.items() for attr in attrs
])
def test_traced_attribute_resolves(module, attr):
    owner = importlib.import_module(module)
    if "." in attr:
        cls_name, meth = attr.split(".")
        # the tracer wraps vars(cls)[meth], so the method must be defined on the class itself
        assert callable(vars(getattr(owner, cls_name))[meth])
    else:
        assert callable(getattr(owner, attr))


def test_names_run_py_imports_from_masspoly_exist():
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("masspoly")
        for alias in node.names
    ]
    assert ("masspoly._kernels", "HAVE_NUMBA") in imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_high_precision_basis_builds():
    basis = basis_for(MeasureSpec(GenJacobiSpec(0.0, 0.0, ((0.0, 2.0),))), 12, high_precision=True)
    assert basis.degree == 12


def test_cli_import_loads_the_quadrature_rule_modules():
    modules = [module for module, _ in TRACING.QUAD_RULES]
    probe = f"import sys, masspoly.cli; print(all(m in sys.modules for m in {modules!r}))"
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert out.stdout.strip() == "True"
