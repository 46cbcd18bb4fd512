"""Static guard: every public function has a caller, every dataclass field is
read, and every import is used.

No linter ships with the package, so this test enforces the rule with
``ast``. A module-level function counts as called when its own module names
it, or when another module names it through ``from .mod import f`` or
``mod.f``. A method counts as called when any attribute access in ``src/mug``
uses its name (methods are not resolved to their class). A dataclass field
counts as read when its own module, or a module that imports that module,
loads an attribute of its name (fields are not resolved to their class either).
"""

import ast
import os

import mug

SRC = os.path.dirname(mug.__file__)

# Public names kept without a caller in src/mug, each for a stated reason.
ALLOWED = {
    "cli._Parser.error": "argparse calls it on a usage error",
    "hetgraph.all_views": "perfbench's tests read every view as a dense matrix from it",
}


# Dataclass fields kept without a read in src/mug, each for a stated reason.
ALLOWED_FIELDS: dict = {}


def _modules():
    out = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name), encoding="utf-8") as fh:
                out[name[:-3]] = ast.parse(fh.read())
    return out


def _names(tree):
    """Every identifier a module names, quoted annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names.update(_names(ast.parse(ann.value, mode="eval")))
    return names


def _module_aliases(tree):
    """Local name -> sibling module, for ``from . import mod [as alias]``."""
    return {a.asname or a.name: a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and not node.module
            for a in node.names}


def _definitions(modules):
    """(qualified name, module, class or None, def node) for every public function."""
    for mod, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{mod}.{node.name}", mod, None, node
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{mod}.{node.name}.{item.name}", mod, node.name, item


def _is_called(modules, mod, cls, fn):
    """Whether any code outside fn's own body refers to it."""
    own = {id(n) for n in ast.walk(fn)}
    for other, tree in modules.items():
        aliases = _module_aliases(tree)
        imported = other == mod or any(
            isinstance(n, ast.ImportFrom) and n.level == 1 and n.module == mod
            and any(a.name == fn.name for a in n.names) for n in ast.walk(tree))
        for node in ast.walk(tree):
            if id(node) in own:
                continue
            if isinstance(node, ast.Attribute) and node.attr == fn.name:
                if cls is not None or (isinstance(node.value, ast.Name)
                                       and aliases.get(node.value.id) == mod):
                    return True
            elif isinstance(node, ast.Name) and node.id == fn.name \
                    and cls is None and imported:
                return True
    return False


def test_every_public_function_has_a_caller():
    modules = _modules()
    orphans = [qual for qual, mod, cls, fn in _definitions(modules)
               if qual not in ALLOWED and not _is_called(modules, mod, cls, fn)]
    assert not orphans, f"public functions with no caller in src/mug: {orphans}"


def test_allowlist_names_real_functions():
    defined = {qual for qual, *_ in _definitions(_modules())}
    assert set(ALLOWED) <= defined


def test_allowlist_entries_still_have_no_caller():
    modules = _modules()
    stale = [qual for qual, mod, cls, fn in _definitions(modules)
             if qual in ALLOWED and _is_called(modules, mod, cls, fn)]
    assert not stale, f"allowlisted functions that now have a caller: {stale}"


def test_every_import_is_used():
    unused = []
    for mod, tree in _modules().items():
        used = _names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                for a in node.names:
                    bound = a.asname or a.name.split(".")[0]
                    if bound not in used:
                        unused.append(f"{mod}: {bound}")
    assert not unused, f"imported but never used: {unused}"


def _imports(tree, mod):
    """Whether tree imports sibling module mod, or a name from it."""
    return any(isinstance(n, ast.ImportFrom) and n.level == 1
               and (n.module == mod or (n.module is None
                                        and any(a.name == mod for a in n.names)))
               for n in ast.walk(tree))


def _fields(modules):
    """(qualified name, module, field name) for every field of every @dataclass."""
    for mod, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and any(
                    getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
                    == "dataclass"
                    for d in node.decorator_list):
                for item in node.body:
                    if isinstance(item, ast.AnnAssign):
                        yield f"{mod}.{node.name}.{item.target.id}", mod, item.target.id


def test_every_dataclass_field_is_read():
    modules = _modules()
    unread = []
    for qual, mod, name in _fields(modules):
        readers = [tree for other, tree in modules.items()
                   if other == mod or _imports(tree, mod)]
        if qual not in ALLOWED_FIELDS and not any(
                isinstance(n, ast.Attribute) and n.attr == name
                and isinstance(n.ctx, ast.Load)
                for tree in readers for n in ast.walk(tree)):
            unread.append(qual)
    assert not unread, f"dataclass fields never read in src/mug: {unread}"


def test_field_allowlist_names_real_fields():
    assert set(ALLOWED_FIELDS) <= {qual for qual, *_ in _fields(_modules())}
