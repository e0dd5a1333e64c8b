"""Guard against second paths: every public module-level function and class
in src/tabforge must be used by the package itself, not only by tests.

A name counts as used when code in src/tabforge outside its own definition
refers to it.  Re-exports in `__init__.py` do not count.  The entry points
need no caller: click command callbacks (functions under a `@cli.command` or
`@click.group` decorator) and `cli.main`.  SEAMS lists the few names kept for
callers outside the package.
"""

import ast
from pathlib import Path

import tabforge

PACKAGE = Path(tabforge.__file__).parent

# Public names with no caller inside the package, and why each stays.
SEAMS = {
    "rebuild_model": "criterion 8 rebuilds a fine-tuned CTGAN to sample it under a forced condition",
}


def _is_entry_point(node, module: str) -> bool:
    if module == "cli" and node.name == "main":
        return True
    for deco in getattr(node, "decorator_list", ()):
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def _referenced_names(node) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def unreferenced_public_names() -> list[str]:
    """`module.name` for every public module-level def or class that nothing
    else in the package refers to."""
    defined: list[tuple[str, str, ast.AST]] = []
    uses: list[tuple[ast.AST | None, set[str]]] = []  # (enclosing top-level def, names)
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            is_def = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if is_def and not node.name.startswith("_") and not _is_entry_point(node, module):
                defined.append((module, node.name, node))
            uses.append((node if is_def else None, _referenced_names(node)))
    return [
        f"{module}.{name}"
        for module, name, node in defined
        if name not in SEAMS and not any(name in names for owner, names in uses if owner is not node)
    ]


def test_every_public_name_is_used_by_the_package():
    assert unreferenced_public_names() == []
