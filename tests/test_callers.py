"""Static guard: every public function has a caller, every dataclass field is
read, every import is used, and every exception class is caught by name.

No linter ships with the package, so this test enforces the rule with
``ast``. A module-level function counts as called when its own module names
it, or when another module names it through ``from .mod import f`` or
``mod.f``. A method counts as called when any attribute access in ``src/mug``
calls its name, or uses it while no dataclass field in ``src/mug`` has that
name: a load such as ``cfg.unified_dim`` reads the field of that name, and
must not keep a property alive (methods and fields are not resolved to their
class). A dataclass field
counts as read when its own module, or a module that imports that module,
loads an attribute of its name (fields are not resolved to their class either).
"""

import ast
import importlib
import os

import mug

SRC = os.path.dirname(mug.__file__)

# Public names kept without a caller in src/mug, each for a stated reason.
ALLOWED = {
    "cli._Parser.error": "argparse calls it on a usage error",
    "hetgraph.all_views": "perfbench's tests read every view as a dense matrix from it",
    "fusion.MugModel.unified_dim": "perfbench/run.py reads it from each checkpoint it "
                                   "reloads; ROADMAP item 1 deletes it",
}


# Dataclass fields kept without a read in src/mug, each for a stated reason.
ALLOWED_FIELDS: dict = {}


# Exception classes kept without an except clause that names them, each for a stated reason.
ALLOWED_UNCAUGHT: dict = {}


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
    field_names = {name for *_, name in _fields(modules)}
    for other, tree in modules.items():
        aliases = _module_aliases(tree)
        imported = other == mod or any(
            isinstance(n, ast.ImportFrom) and n.level == 1 and n.module == mod
            and any(a.name == fn.name for a in n.names) for n in ast.walk(tree))
        called = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
        for node in ast.walk(tree):
            if id(node) in own:
                continue
            if isinstance(node, ast.Attribute) and node.attr == fn.name:
                if (cls is not None and (fn.name not in field_names or id(node) in called)) or (
                        isinstance(node.value, ast.Name) and aliases.get(node.value.id) == mod):
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


def test_evalkit_imports_neither_fusion_nor_hetgraph():
    # evalkit scores a frozen embedding: embedding a graph is its caller's work
    names = set()
    for node in ast.walk(_modules()["evalkit"]):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.name for a in node.names)
    assert not {part for name in names for part in name.split(".")} & {"fusion", "hetgraph"}


def test_cli_imports_at_module_level_no_module_but_bundle_and_hetgraph():
    # a command is one process, so a module cli imports at its top is paid for by every
    # command, homophily included; each command imports the rest of what it runs
    todo, imported = list(_modules()["cli"].body), set()
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        todo.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.ImportFrom) and (
                node.level == 1 or (node.module or "").split(".")[0] == "mug"):
            inner = node.module or "" if node.level else node.module.partition(".")[2]
            imported.update([inner] if inner else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            imported.update(a.name[4:] for a in node.names if a.name.startswith("mug."))
    assert imported <= {"bundle", "hetgraph"}, sorted(imported - {"bundle", "hetgraph"})


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


def _exception_classes(modules):
    """Qualified name of every exception class src/mug defines."""
    for mod, tree in modules.items():
        module = importlib.import_module(f"mug.{mod}")
        for node in tree.body:
            if isinstance(node, ast.ClassDef) \
                    and issubclass(getattr(module, node.name), BaseException):
                yield f"{mod}.{node.name}"


def _caught_names():
    """Every name an except clause in src/mug or perfbench/ gives, bare or as an attribute."""
    bench = os.path.join(os.path.dirname(SRC), os.pardir, "perfbench")
    paths = [os.path.join(d, name) for d in (SRC, bench)
             for name in sorted(os.listdir(d)) if name.endswith(".py")]
    names = set()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            for node in ast.walk(ast.parse(fh.read())):
                if isinstance(node, ast.ExceptHandler) and node.type is not None:
                    for exc in ast.walk(node.type):
                        names.add(getattr(exc, "id", None) or getattr(exc, "attr", None))
    return names


def test_every_exception_class_is_caught_by_name():
    """A class that no except clause names is told apart by nothing: raise its base."""
    caught = _caught_names()
    classes = set(_exception_classes(_modules()))
    uncaught = {q for q in classes if q.rsplit(".", 1)[1] not in caught}
    orphans = sorted(uncaught - set(ALLOWED_UNCAUGHT))
    assert not orphans, f"exception classes that no except clause names: {orphans}"
    stale = sorted(set(ALLOWED_UNCAUGHT) - uncaught)
    assert not stale, f"allowlisted classes that are now caught or gone: {stale}"


def test_one_exception_class_per_kind_of_fault():
    assert set(_exception_classes(_modules())) == {
        "bundle.BundleError",         # any fault in an input file, at its file:line
        "config.ConfigError",         # a setting outside its bound
        "hetgraph.SchemaError",       # a schema fault, raised by the schema check alone
        "fusion.CheckpointError",     # a checkpoint's structure or shapes
    }


def test_main_alone_maps_a_fault_to_an_exit_code():
    """A cmd_* raises; only main prints an "error:" line and returns the data or numeric
    code, and a failed gradient check is cmd_gradcheck's result, not a fault."""
    printers, named = set(), {"EXIT_DATA": set(), "EXIT_NUMERIC": set()}
    tree = _modules()["cli"]
    for top in tree.body:
        for fn in top.body if isinstance(top, ast.ClassDef) else [top]:
            if not isinstance(fn, ast.FunctionDef):
                continue
            qual = f"{top.name}.{fn.name}" if fn is not top else fn.name
            returned = {id(n) for r in ast.walk(fn) if isinstance(r, ast.Return)
                        for n in ast.walk(r)}
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print" \
                        and node.args:
                    text = node.args[0]
                    if isinstance(text, ast.JoinedStr) and text.values:
                        text = text.values[0]
                    if isinstance(text, ast.Constant) and str(text.value).startswith("error:"):
                        printers.add(qual)
                if isinstance(node, ast.Name) and node.id in named:
                    named[node.id].add(qual + (" result" if id(node) in returned else ""))
    assert printers == {"main", "_Parser.error"}
    assert named == {"EXIT_DATA": {"main result"},
                     "EXIT_NUMERIC": {"main result", "cmd_gradcheck result"}}


def _rng_names(tree):
    """Names a module imports with ``from .rng import ...``."""
    return {a.asname or a.name for n in ast.walk(tree)
            if isinstance(n, ast.ImportFrom) and n.level == 1 and n.module == "rng"
            for a in n.names}


def test_schema_errors_are_raised_by_the_schema_check_and_the_graph_alone():
    """Readers trust a checked graph; only these functions may find it at fault."""
    raisers = set()
    for mod, tree in _modules().items():
        for top in tree.body:
            for fn in top.body if isinstance(top, ast.ClassDef) else [top]:
                for node in ast.walk(fn):
                    if not isinstance(node, ast.Raise) or node.exc is None:
                        continue
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if "SchemaError" in (getattr(exc, "id", None), getattr(exc, "attr", None)):
                        owner = [top.name] if fn is not top else []
                        raisers.add(".".join([mod, *owner, getattr(fn, "name", "<module>")]))
    assert raisers == {"hetgraph.check_schema", "hetgraph.HetGraph.validate",
                       "hetgraph.MetaPath.from_steps"}


def test_every_stream_is_keyed_by_a_named_purpose_without_arithmetic():
    """RngStream(seed, PURPOSE, *path): a purpose imported from .rng, no packed index."""
    bad = []
    for mod, tree in _modules().items():
        purposes = _rng_names(tree) - {"RngStream"}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "RngStream"):
                continue
            where = f"{mod}:{node.lineno}"
            purpose = node.args[1] if len(node.args) > 1 else None
            if not (isinstance(purpose, ast.Name) and purpose.id in purposes):
                bad.append(f"{where}: purpose is not a name imported from .rng")
            if node.keywords or any(isinstance(n, ast.BinOp)
                                    for arg in node.args for n in ast.walk(arg)):
                bad.append(f"{where}: arithmetic or keywords in the key")
    assert not bad, bad


def _calls_by_function(tree):
    """(qualified name, call) for every call inside a module-level function or method."""
    for top in tree.body:
        for fn in top.body if isinstance(top, ast.ClassDef) else [top]:
            if isinstance(fn, ast.FunctionDef):
                owner = [top.name] if fn is not top else []
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call):
                        yield ".".join([*owner, fn.name]), node


def test_text_is_read_and_written_in_one_place():
    """bundle.read_text and bundle.write_text open every file, bundle.read_json parses
    all JSON and bundle.read_object alone maps a JSON object onto a signature, so a
    missing file, bad bytes, bad JSON or a bad key are reported one way everywhere."""
    allowed = {"open": {"bundle.read_text", "bundle.write_text"},
               "json.load": set(), "json.loads": {"bundle.read_json"},
               "inspect.signature": {"bundle.read_object"}}
    bad = []
    for mod, tree in _modules().items():
        for fn, call in _calls_by_function(tree):
            f = call.func
            name = f.id if isinstance(f, ast.Name) else (
                f"{f.value.id}.{f.attr}" if isinstance(f, ast.Attribute)
                and isinstance(f.value, ast.Name) else None)
            if name in allowed and f"{mod}.{fn}" not in allowed[name]:
                bad.append(f"{mod}.{fn}:{call.lineno}: {name}")
    assert not bad, bad
