"""The per-layer trace of perfbench/run.py wraps public names where their
consumer modules bind them; every one of them must still resolve, a module
imports no other name it never uses, and no private helper is left that
nothing uses."""

import ast
import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.tracing import COUNTS, SPANS  # noqa: E402

SRC = Path(__file__).resolve().parent.parent / "src" / "jbv"


def test_every_traced_name_resolves():
    for module, owner, attr, *_ in SPANS + COUNTS:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
            assert attr in vars(target), (module, owner, attr)
        assert callable(getattr(target, attr)), (module, owner, attr)


def _unused_imports(tree: ast.Module) -> set[str]:
    """Names a module imports at module level but never loads and does not
    list in __all__."""
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    return imported - loaded - exported


def test_no_module_imports_a_name_it_never_uses():
    # a name bound only for the tracer to wrap is the one allowed exception
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        traced = {attr for module, owner, attr, *_ in SPANS + COUNTS
                  if module == f"jbv.{path.stem}" and owner is None}
        unused = _unused_imports(ast.parse(path.read_text()))
        assert unused <= traced, (path.name, sorted(unused - traced))


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """The module-level private functions, classes and constants a module
    defines, each with the index of its defining statement."""
    defined = {}
    for i, node in enumerate(tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        defined.update((n, i) for n in names
                       if n.startswith("_") and not n.startswith("__"))
    return defined


def _used_names(node: ast.AST) -> set[str]:
    """Names a piece of code loads, reads as an attribute or imports."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            used |= {a.name for a in sub.names}
    return used


def test_every_private_helper_is_used_besides_its_definition():
    # cli.main finds the _cmd_* handlers through globals()
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unused = []
    for stem, tree in trees.items():
        elsewhere = set().union(*(_used_names(t) for s, t in trees.items() if s != stem))
        for name, i in _private_definitions(tree).items():
            here = set().union(*(_used_names(node) for j, node in enumerate(tree.body)
                                 if j != i))
            if name not in here | elsewhere and not name.startswith("_cmd_"):
                unused.append(f"{stem}.{name}")
    assert unused == []
