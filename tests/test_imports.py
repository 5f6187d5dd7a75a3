"""Import hygiene of the package, checked on its syntax trees alone.

Every name a module imports from a sibling is used in that module
(``__init__.py`` imports only to re-export), no module imports a
private ``_`` name from a sibling, and only ``cli.py`` opens a file.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "simspec"
MODULES = sorted(PACKAGE.glob("*.py"))


def sibling_imports(tree):
    """(bound name, imported name) of every relative ``from`` import."""
    return [
        (alias.asname or alias.name, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    ]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.stem)
def test_sibling_imports_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [bound for bound, _ in sibling_imports(tree) if bound not in used]
    assert not unused, f"{path.name} imports unused names: {', '.join(unused)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_private_sibling_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [name for _, name in sibling_imports(tree) if name.startswith("_")]
    assert not private, f"{path.name} imports private names: {', '.join(private)}"


def test_only_cli_opens_files():
    openers = [
        path.name for path in MODULES
        if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "open"
               for node in ast.walk(ast.parse(path.read_text(), filename=str(path))))
    ]
    assert openers == ["cli.py"]
