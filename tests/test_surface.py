"""Every exported package name has a user outside the tests.

A module's ``__all__`` is its public surface. A name there that nothing in
``src/rankflex``, ``bench/*.py`` or ``demos/*.py`` refers to is kept alive
only by tests, and belongs in the tests or nowhere. Like
``test_bench_hooks.py``, this test only reads files.

A reference is an identifier in the parsed source: a name, an attribute, an
imported name, or a string constant that is an identifier (``bench/tracer.py``
hooks names as strings). The ``__all__`` lists themselves and the name's own
``def`` or ``class`` statement do not count, and neither do comments.

Only module-level names are checked. Methods and dataclass fields that only
tests read are not seen here.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rankflex"
USER_FILES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py")) \
    + sorted((ROOT / "demos").glob("*.py"))


def _is_all(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _references(tree):
    """Identifiers that ``tree`` refers to, outside its ``__all__``."""
    found = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if _is_all(node):
            continue
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            found.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return found


def _exported(tree):
    """The names in ``tree``'s ``__all__`` list."""
    for node in tree.body:
        if _is_all(node):
            yield from ast.literal_eval(node.value)


def test_every_exported_name_has_a_user():
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in USER_FILES}
    used = set().union(*map(_references, trees.values()))
    unused = [f"rankflex.{p.stem}.{name}" for p, tree in trees.items()
              if p.parent == PACKAGE for name in _exported(tree) if name not in used]
    assert unused == [], "in __all__ but used only by tests: " + ", ".join(unused)
