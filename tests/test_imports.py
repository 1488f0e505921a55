"""Every name a ridgekit module imports is used in that module.

The package's `__init__.py` imports names only to re-export them, so it is
left out.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "ridgekit"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by the imports of `source` that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds `a`; `np.zeros` reads the Name `np`
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_detected():
    assert unused_imports("import os\nimport numpy as np\nfrom a import b, c\nnp.f(c)\n") == [
        "b", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_its_imports(path):
    assert unused_imports(path.read_text()) == []


# Definitions that nothing in the package reads and `__init__.py` does not
# export, each kept for a reason.
KEPT_UNREAD = {
    "orthobasis.OrthoBasis.node_values": "the dense node values, due to be reworked",
    "polycore._SparsePolynomial.eval": "the exact reference evaluator",
    "polycore.MultiIndexPolynomial.coefficient_vector": "for the coefficient-space fit",
    "polycore.MultiIndexPolynomial.from_coefficient_vector": "for the coefficient-space fit",
    "ridge_complex.verify_power_identity": "a paper identity, checked by the acceptance tests",
    "ridge_complex.verify_wirtinger_monomial_identity":
        "a paper identity, checked by the acceptance tests",
}


def unread_definitions(sources, exported):
    """`module.name` or `module.Class.method` of every function, class and
    method defined at the top of the modules in `sources` (module name ->
    source) whose name no expression reads, either as a name or as an
    attribute, and that `exported` does not hold.  Dunder methods are
    skipped."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            members = [(node.name, node.name)]
            if isinstance(node, ast.ClassDef):
                members += [(item.name, f"{node.name}.{item.name}") for item in node.body
                            if isinstance(item, ast.FunctionDef)]
            unread += [f"{module}.{path}" for name, path in members
                       if name not in read and not name.startswith("__")
                       and not (name == path and name in exported)]
    return sorted(unread)


def test_unread_definitions_detected():
    source = ("def used(): pass\ndef unused(): pass\ndef public(): pass\n"
              "class C:\n    def __init__(self): self.m()\n    def m(self): pass\n"
              "    def dead(self): pass\nused()\n")
    assert unread_definitions({"mod": source}, {"public"}) == ["mod.C", "mod.C.dead",
                                                               "mod.unused"]


def test_every_definition_is_read_or_exported():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = {alias.asname or alias.name for node in ast.walk(init)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    sources = {path.stem: path.read_text() for path in MODULES}
    assert unread_definitions(sources, exported) == sorted(KEPT_UNREAD)
