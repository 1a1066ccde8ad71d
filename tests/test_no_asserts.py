"""Proof obligations in `src/` must survive `python -O`: they are raised with
`errors.check` (or an explicit exception), never written as `assert`."""
import ast
from pathlib import Path

from mconvex import errors

SRC = Path(errors.__file__).resolve().parent


def test_no_assert_statements_in_src():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 10
    found = [f"{path.relative_to(SRC.parent)}:{node.lineno}"
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
