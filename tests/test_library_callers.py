"""Every library function and method has a caller in the library itself,
every module constant is read in the library, no test oracle shares a name
with a library definition, every name a library module imports is read in
it, every name in the package's `__all__` resolves, every name the
benchmark's tracer wraps exists, and every exemption that rests on the
tracer names a name it wraps.

Code that only the tests reach belongs in the tests (see `tests/oracles.py`)
or nowhere.  Callers are matched by name: a function counts as used when
its name is read somewhere in `src/` outside its own body, as a name or as
an attribute; a method only when it is read as an attribute (`x.name`), so
a local variable of the same name does not count.  A re-export by
`__init__` is an import, not a read, so it makes no caller.  Dunders and
`cli.main`, the console entry point, are exempt.
"""

import ast
import collections
import importlib
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "newform_products"

# Definitions with no library caller on purpose, and why.
NO_LIBRARY_CALLER = {
    "qseries.frac_mul": "multiplies (prefactor, series) pairs; `bench/tracer.py` wraps it by "
    "name and the tests' oracles call it",
    "eta.eta_signed": "eta(sign q^t) as a (prefactor, series) pair; `bench/tracer.py` wraps "
    "it by name",
    "products.log_derivative_quotient": "the a_n -> g_n direction alone; `bench/tracer.py` "
    "wraps it by name",
    "products.reconstruct": "the g_n -> f_n direction for users; the acceptance test imports it",
    "eta.eta_quotient_series": "a user's eta quotient as a (prefactor, series) pair, in the "
    "README's public API; the Martin-Ono test checks it",
}


def _used_names(tree):
    """Count the names read in tree: loads and attribute loads."""
    used = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used[node.attr] += 1
    return used


def _definitions(module, tree):
    """(qualified name, node, is_method) of each top-level function and each
    non-dunder method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    yield f"{module}.{node.name}.{item.name}", item, True


def _attribute_loads(tree):
    """Count the attributes read in tree: `x.name` loads only."""
    return collections.Counter(
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def _library_trees():
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in PACKAGE.glob("*.py")
    }


def _without_library_caller():
    trees = _library_trees()
    used = collections.Counter()
    attributes = collections.Counter()
    for tree in trees.values():
        used += _used_names(tree)
        attributes += _attribute_loads(tree)
    out = []
    for module, tree in trees.items():
        for qualname, node, is_method in _definitions(module, tree):
            reads, own = (
                (attributes, _attribute_loads(node)) if is_method
                else (used, _used_names(node))
            )
            if qualname != "cli.main" and reads[node.name] == own[node.name]:
                out.append(qualname)
    return sorted(out)


def test_every_definition_has_a_library_caller():
    assert _without_library_caller() == sorted(NO_LIBRARY_CALLER)


def test_every_module_constant_is_read():
    # a constant that only the tests read (a second curve model, say)
    # belongs in the tests as a literal
    trees = _library_trees()
    used = sum((_used_names(tree) for tree in trees.values()), collections.Counter())
    unread = [
        f"{module}.{target.id}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in ast.walk(node)
        if isinstance(target, ast.Name)
        and isinstance(target.ctx, ast.Store)
        and not target.id.startswith("__")
        and not used[target.id]
    ]
    assert sorted(unread) == []


def _tracer():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_tracer_exemptions_are_traced():
    # an exemption that rests on the tracer lapses when the tracer stops
    # wrapping the name; the name then needs a library caller or goes
    traced = {f"{module}.{attr}" for module, attr, _ in _tracer().TARGETS}
    stale = [
        name
        for name, reason in NO_LIBRARY_CALLER.items()
        if "bench/tracer.py" in reason and name not in traced
    ]
    assert stale == []


def test_no_oracle_shares_a_library_name():
    # an oracle moved out of `src/` (such as `primes_upto`) must not come
    # back as a second library copy under its old name
    library = {
        node.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    oracles = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    names = {node.name for node in oracles.body if isinstance(node, ast.FunctionDef)}
    assert sorted(names & library) == []


def _unused_imports(tree):
    """Names tree imports but never reads; `__future__` imports are exempt,
    and a name listed in `__all__` counts as read."""
    used = _used_names(tree)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if not used[alias.asname or alias.name.split(".")[0]]
    ]


def test_every_import_is_read():
    # an import left behind by a deletion (an error class, a helper) fails here
    unused = {
        path.stem: _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        for path in PACKAGE.glob("*.py")
    }
    assert {module: names for module, names in unused.items() if names} == {}


def test_every_public_name_resolves():
    # test_every_import_is_read counts an `__all__` entry as read, so a
    # deleted name left in `__all__` would pass it
    package = importlib.import_module("newform_products")
    assert [name for name in package.__all__ if not hasattr(package, name)] == []


def test_tracer_targets_resolve():
    # a traced benchmark child crashes on a target that is gone, so every
    # (module, "name" or "Class.method") pair it wraps must resolve
    pairs = [(module, attr) for module, attr, _ in _tracer().TARGETS]
    missing = []
    for module, attr in pairs + [("search", "_constraints_hold")]:
        obj = importlib.import_module(f"newform_products.{module}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert missing == []
