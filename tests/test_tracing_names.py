"""The per-layer trace of perfbench/run.py wraps public names where their
consumer modules bind them; every one of them must still resolve."""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.tracing import COUNTS, SPANS  # noqa: E402


def test_every_traced_name_resolves():
    for module, owner, attr, *_ in SPANS + COUNTS:
        target = importlib.import_module(module)
        if owner is not None:
            target = getattr(target, owner)
            assert attr in vars(target), (module, owner, attr)
        assert callable(getattr(target, attr)), (module, owner, attr)
