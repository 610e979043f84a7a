"""Every public function, class and method in the package has a live caller.

The modules of ``src/solvsoliton`` are parsed with ``ast``.  Module-level
statements (``cli``'s ``__main__`` entry point, constants, and the one named
tuple ``lie_core.STRUCTURE_CLAIMS`` that holds the predicates behind the
paper's structural claims) are live.  A definition becomes live once live
code refers to its name, as a plain name or an attribute; a method also
needs its class to be live, and dunder methods of a live class are live.
``__init__.py`` only re-exports, so its imports call nothing.  What is left
is code that only tests could call: it belongs in ``tests/`` or nowhere.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "solvsoliton"


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _names(nodes) -> set:
    """Names and attribute names referred to anywhere under ``nodes``."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
    return out


def _scan():
    """(definitions, root names): each definition is
    (qualified name, name, owning class or None, names its own code uses)."""
    definitions, roots = [], set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef):
                definitions.append((f"{module}.{node.name}", node.name, None, _names([node])))
            elif isinstance(node, ast.ClassDef):
                methods = [item for item in node.body if isinstance(item, ast.FunctionDef)]
                rest = [item for item in node.body if item not in methods]
                own = _names([*node.bases, *node.keywords, *node.decorator_list, *rest])
                definitions.append((f"{module}.{node.name}", node.name, None, own))
                for item in methods:
                    qualified = f"{module}.{node.name}.{item.name}"
                    definitions.append((qualified, item.name, node.name, _names([item])))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _names([node])
    return definitions, roots


def dead_definitions() -> list:
    """Public, non-dunder definitions that no live code refers to."""
    definitions, reached = _scan()
    live: set = set()
    changed = True
    while changed:
        changed = False
        for qualified, name, owner, uses in definitions:
            if qualified in live:
                continue
            if owner is None:
                is_live = name in reached
            else:
                is_live = owner in reached and (_is_dunder(name) or name in reached)
            if is_live:
                live.add(qualified)
                reached |= uses
                changed = True
    return sorted(
        qualified
        for qualified, name, _, _ in definitions
        if qualified not in live and not name.startswith("_")
    )


def test_every_public_definition_has_a_live_caller():
    assert dead_definitions() == []


def test_the_scan_sees_the_entry_point_and_the_claims():
    definitions, roots = _scan()
    assert {"run", "STRUCTURE_CLAIMS", "is_unimodular"} <= roots
    names = {qualified for qualified, _, _, _ in definitions}
    assert {"cli.run", "cli.main", "linalg.Matrix.__matmul__", "coord_engine.AmbientMetric.jets"} <= names
