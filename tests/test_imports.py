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



# Defaulted parameters that no call in the package or the benchmark passes,
# each kept for a reason.
KEPT_OPTIONS = {
    "cli.main(argv)": "tests drive the CLI in-process",
    "testfuncs.verify_inner_product_expansion(points)":
        "the acceptance tests check that the identity tightens as the angle grid grows",
}
BENCH_CALLERS = [PACKAGE.parents[1] / "bench" / name for name in ("workloads.py", "run.py")]


def _scopes(module, tree):
    """(qualified name or None, class node or None, node) for every top-level
    function, every method of a top-level class, and every other top-level
    statement of `tree`, with the class a method or statement sits in."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", None, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                name = (f"{module}.{node.name}.{item.name}"
                        if isinstance(item, ast.FunctionDef) else None)
                yield name, node, item
        else:
            yield None, None, node


def _parameters(cls, fn):
    """The parameters a call gives `fn` (a method's first one is bound), and
    those of them with a default."""
    params = [p.arg for p in fn.args.posonlyargs + fn.args.args]
    bound = cls is not None and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
    return params[bound:], params[len(params) - len(fn.args.defaults):]


def unset_options(sources, callers, kept=()):
    """`module.function(parameter)` of every positional parameter with a
    default, in the top-level functions and methods (constructors included)
    of the modules in `sources` (module name -> source), that no call in
    `callers` (name -> source) passes.

    A call passes a parameter when it names the function, or the class or a
    subclass that inherits its constructor, and gives the parameter by
    keyword, by position or through `*` or `**`.  A method is named by its
    attribute, and `super().name` in a method by the bases of its class.  An
    argument that is only a defaulted parameter of the calling function,
    never reassigned there, passes that parameter on, so it counts once that
    parameter is passed, or is in `kept`."""
    signature, by_name, classes = {}, {}, {}
    for module, source in sources.items():
        tree = ast.parse(source)
        classes.update((node.name, node) for node in tree.body if isinstance(node, ast.ClassDef))
        for name, cls, node in _scopes(module, tree):
            if name is not None:
                signature[name] = _parameters(cls, node)
                by_name.setdefault(node.name, []).append(name)

    def lookup(class_name, attr):
        """Where class `class_name` finds its method `attr`."""
        if class_name not in classes:
            return []
        own = [name for name in by_name.get(attr, []) if name.endswith(f".{class_name}.{attr}")]
        return own or [name for base in classes[class_name].bases if isinstance(base, ast.Name)
                       for name in lookup(base.id, attr)]

    def callees(call, cls):
        func = call.func
        if isinstance(func, ast.Name):
            functions = [name for name in by_name.get(func.id, []) if name.count(".") == 1]
            return functions + lookup(func.id, "__init__")
        if not isinstance(func, ast.Attribute):
            return []
        if (isinstance(func.value, ast.Call) and isinstance(func.value.func, ast.Name)
                and func.value.func.id == "super" and cls is not None):
            return [name for base in cls.bases if isinstance(base, ast.Name)
                    for name in lookup(base.id, func.attr)]
        return by_name.get(func.attr, []) + lookup(func.attr, "__init__")

    passed, forwards = set(), []
    for module, source in callers.items():
        for caller, cls, scope in _scopes(module, ast.parse(source)):
            stored = {n.id for n in ast.walk(scope)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            own = set(signature.get(caller, ((), ()))[1]) - stored
            for call in (n for n in ast.walk(scope) if isinstance(n, ast.Call)):
                for callee in callees(call, cls):
                    params = signature[callee][0]
                    given = []
                    for i, arg in enumerate(call.args):
                        starred = isinstance(arg, ast.Starred)
                        given.append((params[i:] if starred else params[i:i + 1], arg))
                    for keyword in call.keywords:
                        given.append((params if keyword.arg is None else [keyword.arg],
                                      keyword.value))
                    for names, value in given:
                        source_param = (f"{caller}({value.id})" if isinstance(value, ast.Name)
                                        and value.id in own else None)
                        forwards += [(f"{callee}({name})", source_param) for name in names]
    changed = True
    while changed:
        changed = False
        for option, source_param in forwards:
            if option not in passed and (source_param is None or source_param in passed
                                         or source_param in kept):
                passed.add(option)
                changed = True
    defaulted = {f"{name}({param})" for name, (_, params) in signature.items()
                 for param in params}
    return sorted(defaulted - passed)


def test_unset_options_detected():
    source = ("def f(a, b=1, c=2): pass\n"
              "def g(x, y=0, z=0): f(x, 1, c=y); h(z)\n"
              "def h(w=0): pass\n"
              "def star(a=0, b=0): pass\n"
              "def stars(a=0): pass\n"
              "def k(u=0): pass\n"
              "def rebound(v=0):\n    v = 1\n    k(v)\n"
              "class Base:\n    def __init__(self, p=0, q=0): pass\n"
              "    def m(self, r=0): pass\n"
              "class Sub(Base): pass\n"
              "class Own(Base):\n    def __init__(self, s=0): super().__init__(q=s)\n"
              "Sub(1)\nOwn(s=2)\ng(0, z=1)\nstar(*[1, 2])\nstars(**{})\n")
    sources = {"mod": source}
    assert unset_options(sources, sources) == ["mod.Base.m(r)", "mod.f(c)", "mod.g(y)",
                                               "mod.rebound(v)"]
    assert unset_options(sources, sources, {"mod.g(y)"}) == ["mod.Base.m(r)", "mod.g(y)",
                                                             "mod.rebound(v)"]


def test_every_option_is_set_by_a_caller():
    sources = {path.stem: path.read_text() for path in MODULES}
    callers = {**sources, **{f"bench.{path.stem}": path.read_text() for path in BENCH_CALLERS}}
    assert unset_options(sources, callers, KEPT_OPTIONS) == sorted(KEPT_OPTIONS)
