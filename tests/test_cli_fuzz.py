"""CLI fuzz property: generated spec, block, family and config documents never
end in a traceback.

Each example takes a valid document and keeps it, replaces it with junk, or
swaps one of its values at any depth for junk (a wrong JSON type, a string, a
bool, a non-integral number, NaN, an infinity, a huge number or nested junk)
or drops one key.  It writes the document, and in one call of three a
JBV_CONFIG perturbed the same way, to a temporary directory and runs one
whole CLI call in-process.  The call must exit 0, 1 or 2, write no
traceback, and write output that a strict JSON parser reads.
"""

import contextlib
import io
import json
import math
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from jbv.cli import main
from test_cli import strict_loads

BLOCK = {"q": 2, "a": [1.0, 1.0], "b": [0.0, 0.5]}
PERIODIC = {"kind": "periodic", "params": BLOCK}
SPECS = [
    {"kind": "constant", "params": {"a": 1.0, "b": 0.25}},
    PERIODIC,
    {"kind": "eventually_periodic", "params": {"q": 2, "N": 3, "base": PERIODIC},
     "length_hint": 60},
    {"kind": "cosine_power", "params": {"lam": 0.5, "gamma": 0.4}},
    {"kind": "staircase_comb", "params": {"lam": 0.5, "q": 2, "schedule": {
        "rows": [[0, 20, 40], [40, 60]], "w": [0.5, 0.25], "m": [2, 4]}}},
    {"kind": "explicit", "params": {"a": [1.0] * 6, "b": [0.0, 0.5] * 3}},
]
CONFIG = {"tol": 1e-10, "cap": 1000, "margin": 1.0, "mode": "analytic",
          "seed": 1, "points": 3}

SCALAR_JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3), st.integers(-3, 6),
    st.floats(-3.0, 3.0),
    st.sampled_from(["1", "0.5", "1e-10", 2.0, 2.7, 1e308, -1e308, 10 ** 400,
                     math.nan, math.inf, -math.inf]))
JUNK = st.recursive(SCALAR_JUNK, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=2), inner,
                                                 max_size=2)), max_leaves=6)


def _paths(doc, prefix=()):
    """The path of every value inside `doc`, parents before children."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def perturbed(draw, doc):
    """`doc` itself, junk in its place, or a copy of it with one value at any
    depth swapped for junk or one key dropped."""
    choice = draw(st.integers(0, 9))
    if choice < 2:
        return draw(JUNK) if choice else doc
    doc = json.loads(json.dumps(doc))
    *parents, last = draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in parents:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[last]
    else:
        parent[last] = draw(JUNK)
    return doc


def documents(templates):
    return st.sampled_from(templates).flatmap(perturbed)


# one call in three reads a JBV_CONFIG, so that config faults mask few documents
CONFIGS = st.integers(0, 2).flatmap(lambda k: perturbed(CONFIG) if k == 2 else st.none())
COMMANDS = {
    "bands": (documents([BLOCK]), ["bands", "--file"]),
    "diagnose": (documents(SPECS), ["diagnose", "--x", "0.3", "--N", "50", "--spec"]),
    "density": (documents(SPECS), ["density", "--q", "1", "--N", "5",
                                   "--grid=-1:1:3", "--format", "json", "--spec"]),
    "intersect": (documents([[BLOCK, {**BLOCK, "b": [0.1, 0.4]}]]),
                  ["intersect", "--family"]),
    "verify": (documents(SPECS), ["verify", "--period", "2", "--m", "1", "--k", "20",
                                  "--E", "0.25", "--delta", "0.12", "--format",
                                  "json", "--spec"]),
}


class Drawn:
    """Stands in for `st.data()` in an explicit example: a draw returns the
    value given for its label, whatever the strategy."""

    def __init__(self, **values):
        self.values = values

    def draw(self, strategy, label):
        return self.values[label]


# a = 1e308 sends the density solve's u_0 past float range
OVERFLOWING_U0 = {"kind": "periodic", "params": {"q": 2, "a": [1e308, 1.0],
                                                 "b": [0.0, 0.5]}}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage exit
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", sorted(COMMANDS))
@given(data=st.data())
@example(data=Drawn(document=OVERFLOWING_U0, JBV_CONFIG=None))
def test_cli_survives_malformed_documents(command, data):
    docs, argv = COMMANDS[command]
    doc = data.draw(docs, label="document")
    config = data.draw(CONFIGS, label="JBV_CONFIG")
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        path, cfg = os.path.join(tmp, "doc.json"), os.path.join(tmp, "cfg.json")
        for name, value in ((path, doc), (cfg, config)):
            with open(name, "w") as fh:
                json.dump(value, fh)
        if config is None:
            os.environ.pop("JBV_CONFIG", None)
        else:
            os.environ["JBV_CONFIG"] = cfg
        code, out, err = _run(argv + [path])
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err
    if out:
        strict_loads(out)


def test_density_past_float_range_is_a_numerical_failure(tmp_path):
    # np.ldexp used to overflow to inf with a RuntimeWarning, and the CLI
    # wrote f = 0.0 as ok
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(OVERFLOWING_U0))
    code, out, err = _run(["density", "--q", "1", "--N", "5", "--grid=-1:1:3",
                           "--format", "json", "--spec", str(path)])
    assert code == 1 and out == ""
    assert err.startswith("numerical failure:") and "Traceback" not in err
