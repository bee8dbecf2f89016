"""Static checks on the package source, written with the standard `ast` module.

Every import of a module is used in it, and every private module-level name
(`_name`: a function, class or assigned constant) is read somewhere in the
package: in its own module, through `from .module import _name`, or as
`module._name`.  Tests do not count as readers, so a helper that only a test
calls fails here too.  A module's `__all__` names only what the module binds,
and lists every public top-level function and class.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "branchedham"
TREES = {path.stem: ast.parse(path.read_text(), str(path))
         for path in sorted(PACKAGE.glob("*.py"))}


def _exported(tree: ast.Module) -> set[str]:
    """The strings in the module's `__all__` list."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def _loads(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def _private_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _package_reads() -> dict[str, set[str]]:
    """Per module, the names that any module of the package reads from it."""
    reads = {name: _loads(tree) for name, tree in TREES.items()}
    for tree in TREES.values():
        aliases = {}  # local name of a package module -> the module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        aliases[alias.asname or alias.name] = alias.name
                    else:
                        reads[node.module].add(alias.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in aliases:
                reads[aliases[node.value.id]].add(node.attr)
    return reads


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_import_is_used(module):
    tree = TREES[module]
    used = _loads(tree) | _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) \
                and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(bound)
    assert unused == [], f"{module}.py imports but never uses {unused}"


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_private_name_is_read(module):
    reads = _package_reads()[module]
    unread = [n for n in _private_definitions(TREES[module]) if n not in reads]
    assert unread == [], f"{module}.py defines but nothing reads {unread}"


def _bound(tree: ast.Module) -> set[str]:
    """The names the module's top-level statements bind."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
    return names


@pytest.mark.parametrize("module", sorted(m for m, t in TREES.items() if _exported(t)))
def test_all_lists_exactly_the_public_definitions(module):
    tree = TREES[module]
    exported = _exported(tree)
    public = {node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")}
    assert sorted(exported - _bound(tree)) == [], \
        f"{module}.__all__ names what {module}.py does not define"
    assert sorted(public - exported) == [], \
        f"{module}.py defines public names that {module}.__all__ leaves out"
