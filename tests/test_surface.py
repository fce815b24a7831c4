"""Every top-level function and class of the package, and every method of a
top-level class, is used outside its own definition by code that runs: the
package itself, the benchmark scripts, the acceptance tests or the README.

A name that only its own unit tests reach is surface nothing needs; delete
it with those tests.  The CLI's decorated commands are reached through click.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "confmine"


def _definitions(path: Path):
    """Top-level functions and classes, and the non-dunder methods of each class."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.FunctionDef) and path.name == "cli.py" and node.decorator_list:
            continue
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield item


def _users() -> dict[Path, list[str]]:
    paths = [
        *(p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"),
        *sorted((ROOT / "bench").glob("*.py")),
        ROOT / "tests" / "test_acceptance.py",
        ROOT / "README.md",
    ]
    return {p: p.read_text(encoding="utf-8").splitlines() for p in paths}


def test_every_definition_is_used_outside_itself():
    users = _users()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in _definitions(path):
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            own = range(node.lineno - 1, node.end_lineno)
            if not any(
                word.search(line)
                for user, lines in users.items()
                for i, line in enumerate(lines)
                if user != path or i not in own
            ):
                unused.append(f"{path.stem}.{node.name}")
    assert not unused, "used nowhere outside their definition: " + ", ".join(unused)
