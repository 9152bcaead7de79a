"""The prose of ``src/`` and README: every test it cites is defined, and no docstring or comment quotes a timing."""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "masspoly").glob("*.py"))
README = ROOT / "README.md"
# a test function's name; the stem of a test module's path (tests/test_norms.py) is not one
TEST_NAME = re.compile(r"\btest_[a-z0-9_]+\b(?!\.py)")
# a timing or memory figure: measured history, which CHANGES.md holds
FIGURE = re.compile(r"[0-9] ?ms\b|[0-9] MB\b|[0-9.]+ factors")


def _prose(path):
    """(line, text) of every docstring and comment of a Python file; string literals in code are not prose."""
    source = path.read_text()
    found = [(tok.start[0], tok.string) for tok in tokenize.generate_tokens(io.StringIO(source).readline)
             if tok.type == tokenize.COMMENT]
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            doc = ast.get_docstring(node, clean=False)
            if doc is not None:
                found.append((node.body[0].lineno, " ".join(doc.split())))
    return found


def _test_functions():
    return {node.name for path in (ROOT / "tests").glob("*.py") for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("test_")}


def test_every_test_the_source_and_readme_cite_is_defined():
    texts = [(f"{path.name}:{line}", text) for path in SOURCES for line, text in _prose(path)]
    texts += [(f"README.md:{i}", line) for i, line in enumerate(README.read_text().splitlines(), 1)]
    cited = [(where, name) for where, text in texts for name in TEST_NAME.findall(text)]
    assert cited, "no test citation found: the scan reads nothing"
    defined = _test_functions()
    assert [(where, name) for where, name in cited if name not in defined] == []


def test_no_docstring_or_comment_quotes_a_timing_or_memory_figure():
    found = [(f"{path.name}:{line}", FIGURE.search(text).group()) for path in SOURCES
             for line, text in _prose(path) if FIGURE.search(text)]
    assert found == []
