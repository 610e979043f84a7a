"""Every public function, class and method in the package has a live caller.

The modules of ``src/solvsoliton`` are parsed with ``ast``.  Module-level
statements (``cli``'s ``__main__`` entry point, constants, and the one named
tuple ``lie_core.STRUCTURE_CLAIMS`` that holds the predicates behind the
paper's structural claims) are live.  Only reads count as references: a name
or attribute that is assigned or deleted refers to nothing.  A function or
class becomes live once live code reads its name, as a plain name or an
attribute; a method only once live code reads it as an attribute ``.name``,
so a local variable or a module function of the same name does not keep it
alive.  A method also needs its class to be live, and dunder methods of a
live class are live.  ``__init__.py`` only re-exports, so its imports call
nothing.  What is left is code that only tests could call: it belongs in
``tests/`` or nowhere.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "solvsoliton"


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _names(nodes) -> set:
    """What the code under ``nodes`` reads: each plain name as ``name`` and
    each attribute as ``.name``."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                out.add("." + sub.attr)
    return out


def _sources() -> dict:
    """{module: source} of the package, without ``__init__.py``."""
    return {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
    }


def _scan(sources: dict):
    """(definitions, root names): each definition is
    (qualified name, name, owning class or None, names its own code reads)."""
    definitions, roots = [], set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
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


def dead_definitions(sources: dict) -> list:
    """Public, non-dunder definitions that no live code reads."""
    definitions, reached = _scan(sources)
    live: set = set()
    changed = True
    while changed:
        changed = False
        for qualified, name, owner, uses in definitions:
            if qualified in live:
                continue
            if owner is None:
                is_live = name in reached or "." + name in reached
            else:
                owner_live = owner in reached or "." + owner in reached
                is_live = owner_live and (_is_dunder(name) or "." + name in reached)
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
    assert dead_definitions(_sources()) == []


def test_a_shadowed_method_is_dead():
    # Only a local variable and a module function share the method's name,
    # and the attribute ``.trace`` is only assigned.
    source = (
        "class Box:\n"
        "    def trace(self):\n"
        "        return 0\n"
        "    def size(self):\n"
        "        return 1\n"
        "def trace(items):\n"
        "    return sum(items)\n"
        "def run(box):\n"
        "    trace = box.size()\n"
        "    box.trace = trace\n"
        "    return trace\n"
        "run(Box())\n"
        "print(trace([1]))\n"
    )
    assert dead_definitions({"toy": source}) == ["toy.Box.trace"]


def test_the_scan_sees_the_entry_point_and_the_claims():
    definitions, roots = _scan(_sources())
    # STRUCTURE_CLAIMS is only assigned; the predicates it holds are read.
    assert {"run", "derived_algebra", "is_unimodular", "is_completely_solvable"} <= roots
    names = {qualified for qualified, _, _, _ in definitions}
    assert {"cli.run", "cli.main", "linalg.Matrix.__matmul__", "coord_engine.AmbientMetric.jets"} <= names
