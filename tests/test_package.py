"""The package surface: the README's library sketch runs, the exported names
are exactly what the sketch and the benchmark driver use, and no internal
check is an ``assert`` that ``python -O`` would strip."""

import ast
import re
import warnings
from pathlib import Path

import webpolar
from webpolar.polar import Verdict

ROOT = Path(__file__).resolve().parent.parent
SOURCES = Path(webpolar.__file__).resolve().parent


def _readme_sketch() -> str:
    readme = (ROOT / "README.md").read_text()
    section = readme[readme.index("## Library sketch"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_sketch_runs_and_certifies():
    namespace = {}
    with warnings.catch_warnings():
        exec(compile(_readme_sketch(), "README.md", "exec"), namespace)
    assert namespace["verdict"] is Verdict.NOT_INVARIANT


def test_exports_are_what_the_sketch_and_the_driver_use():
    sketch_names = {node.id for node in ast.walk(ast.parse(_readme_sketch()))
                    if isinstance(node, ast.Name)}
    driver = (ROOT / "perfbench" / "run.py").read_text()
    driver_names = set(re.findall(r"\b(?:program|webpolar)\.([A-Za-z_]\w*)\(", driver))
    assert set(webpolar.__all__) <= sketch_names | driver_names


def test_no_assert_statements_in_the_package():
    # python -O strips asserts: internal cross-checks must be explicit raises
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SOURCES.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
