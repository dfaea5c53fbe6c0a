"""The per-layer trace of perfbench/run.py wraps public names where their
consumer modules bind them; every one of them must still resolve, and a
module imports no other name it never uses."""

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
