"""pytest.approx(x, rel=r) without abs= keeps an absolute floor of 1e-12, so
on values near or below 1 the floor, not r, decides the result.  Every
approx call in tests/ that states rel= must state abs= too (abs=0 for a
purely relative bound)."""

import ast
from pathlib import Path


def _rel_without_abs(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        keywords = {kw.arg for kw in node.keywords}
        if name == "approx" and "rel" in keywords and "abs" not in keywords:
            yield f"{path.name}:{node.lineno}"


def test_no_approx_with_rel_and_the_default_abs_floor():
    tests = Path(__file__).resolve().parent
    hits = [hit for path in sorted(tests.glob("*.py")) for hit in _rel_without_abs(path)]
    assert hits == []
