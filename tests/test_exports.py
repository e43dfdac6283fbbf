"""Every name the package exports is used by the package or the benchmark.

A name that only its own test calls is not part of what cfkit does, so it
should not be public.  The check reads the sources with ``ast`` and runs
none of them.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cfkit"


def exports() -> set[str]:
    """The names ``cfkit/__init__.py`` imports."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def loaded_names(tree: ast.AST) -> set[str]:
    """The names ``tree`` loads, as a ``Name`` or an ``Attribute``, outside
    the function or class that defines the name."""
    found = set()

    def walk(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(getattr(node, "ctx", None), ast.Load):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name is not None and name not in enclosing:
                found.add(name)
        for child in ast.iter_child_nodes(node):
            walk(child, enclosing)

    walk(tree, frozenset())
    return found


def used_names() -> set[str]:
    paths = [
        *PACKAGE.glob("*.py"), *(PACKAGE / "corpus").glob("*.py"), *(ROOT / "bench").glob("*.py")
    ]
    used = set()
    for path in paths:
        if path != PACKAGE / "__init__.py":
            used |= loaded_names(ast.parse(path.read_text(encoding="utf-8")))
    return used


def test_every_export_is_used_outside_its_definition():
    assert sorted(exports() - used_names()) == []


def readme_exports() -> set[str]:
    """The names README's "The package exports, by module:" sentence lists,
    without the module names in parentheses after each group."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    sentence = re.search(r"The package exports, by module:(.*?)\.\s", text, re.S).group(1)
    return set(re.findall(r"`([^`]+)`", re.sub(r"\(`[^`]+`\)", "", sentence)))


def test_readme_lists_exactly_the_exports():
    assert readme_exports() == exports()


def test_a_name_used_only_by_itself_counts_as_unused():
    tree = ast.parse(
        "def helper(n):\n    return helper(n - 1) if n else 0\n"
        "class Box:\n    def copy(self):\n        return Box()\n"
        "def main():\n    return cfkit.build()\n"
    )
    assert loaded_names(tree) & {"helper", "Box", "build"} == {"build"}
