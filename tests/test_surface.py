"""Every top-level function and class of the package, and every method of a
top-level class, is used by code that runs: the package itself, the
benchmark scripts, the acceptance tests and the README's library example.
And no two of those functions and methods say the same thing.

Four rules check that, one test each:
- its name appears outside its own definition in that code, where the README
  counts only through the ``python`` block that ``test_readme.py`` runs, not
  through its prose;
- a function or method whose name the package defines more than once, and
  which the first rule therefore passes whenever a namesake is used, is
  called while the acceptance tests and the README example run.  Abstract
  methods are exempt.  Calls are recorded by wrapping only those definitions
  for the run and restoring them after;
- no two of those functions and methods have the same body: their syntax
  trees differ once a leading docstring is dropped.  Abstract methods and
  bodies that are a docstring alone are exempt;
- every name a package module other than ``__init__.py`` imports at top
  level appears in that module as an ``ast.Name``: no linter runs, so a
  deletion could otherwise leave a dead import.  ``from __future__`` is exempt.

A name that only its own unit tests reach is surface nothing needs; delete
it with those tests.  The CLI's decorated commands are reached through click.
"""

import ast
import contextlib
import functools
import importlib
import io
import re
import sys
from collections import Counter, defaultdict
from pathlib import Path

import test_acceptance
from test_readme import EXAMPLE, README

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "confmine"


def _definitions():
    """(path, name, node): top-level functions and classes, and the non-dunder
    methods of each class, named ``module.Class.method``."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and path.name == "cli.py" and node.decorator_list:
                continue
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path, f"{path.stem}.{node.name}", node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")
                    ):
                        yield path, f"{path.stem}.{node.name}.{item.name}", item


def _users() -> dict[Path, list[str]]:
    paths = [
        *(p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"),
        *sorted((ROOT / "bench").glob("*.py")),
        ROOT / "tests" / "test_acceptance.py",
    ]
    users = {p: p.read_text(encoding="utf-8").splitlines() for p in paths}
    users[README] = EXAMPLE.splitlines()
    return users


def test_every_definition_is_used_outside_itself():
    users = _users()
    lines_of = defaultdict(list)  # (user, word) -> indices of the lines holding the word
    for user, lines in users.items():
        for i, line in enumerate(lines):
            for word in re.findall(r"\w+", line):
                lines_of[user, word].append(i)
    unused = []
    for path, name, node in _definitions():
        own = range(node.lineno - 1, node.end_lineno)
        if not any(
            user != path or i not in own for user in users for i in lines_of[user, node.name]
        ):
            unused.append(name)
    assert not unused, "used nowhere outside their definition: " + ", ".join(unused)


def _shared_name_definitions():
    """(namespaces, attribute, original, name) of every non-abstract function and
    method whose name the package defines more than once.  A method lives in its
    class; a function in every module that bound it."""
    definitions = list(_definitions())
    counts = Counter(node.name for _, _, node in definitions)
    for _, name, node in definitions:
        if counts[node.name] < 2 or not isinstance(node, ast.FunctionDef):
            continue
        module_name, *cls, attr = name.split(".")
        module = importlib.import_module(f"confmine.{module_name}")
        owner = getattr(module, cls[0]) if cls else module
        original = vars(owner)[attr]
        if getattr(original, "__isabstractmethod__", False):
            continue
        namespaces = [owner] if cls else [
            m for m in list(sys.modules.values()) if getattr(m, "__dict__", {}).get(attr) is original
        ]
        yield namespaces, attr, original, name


def _recording(original, record):
    """``original`` calling ``record()`` first, as the same kind of descriptor."""
    if isinstance(original, (classmethod, staticmethod)):
        return type(original)(_recording(original.__func__, record))
    if isinstance(original, property):
        return original.getter(_recording(original.fget, record))

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        record()
        return original(*args, **kwargs)

    return wrapper


def test_every_shared_name_definition_runs():
    called, patches = set(), []
    shared = list(_shared_name_definitions())
    try:
        for namespaces, attr, original, name in shared:
            wrapper = _recording(original, functools.partial(called.add, name))
            for namespace in namespaces:
                setattr(namespace, attr, wrapper)
                patches.append((namespace, attr, original))
        with contextlib.redirect_stdout(io.StringIO()):
            for test_name, test in vars(test_acceptance).items():
                if test_name.startswith("test_"):
                    with contextlib.suppress(AssertionError):  # criterion 05's strict xfail
                        test()
            exec(compile(EXAMPLE, str(README), "exec"), {})
    finally:
        for namespace, attr, original in patches:
            setattr(namespace, attr, original)
    uncalled = [name for *_, name in shared if name not in called]
    assert not uncalled, (
        "never called by the acceptance tests or the README example: " + ", ".join(uncalled)
    )



def test_no_two_definitions_share_a_body():
    holders = defaultdict(list)  # body's syntax tree, without positions -> names
    for _, name, node in _definitions():
        if not isinstance(node, ast.FunctionDef) or any(
            ast.unparse(d).endswith("abstractmethod") for d in node.decorator_list
        ):
            continue
        body = node.body[1:] if ast.get_docstring(node, clean=False) is not None else node.body
        if body:
            holders[ast.dump(ast.Module(body, []))].append(name)
    shared = [" = ".join(names) for names in holders.values() if len(names) > 1]
    assert not shared, "the same body written more than once: " + "; ".join(shared)


def test_every_top_level_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in read:
                        unused.append(f"{path.stem}: {bound}")
    assert not unused, "imported but never used: " + ", ".join(unused)
