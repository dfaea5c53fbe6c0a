"""Coefficient rules for semi-infinite Jacobi matrices.

A `CoefficientSpec` is a finitely describable rule producing the pair
(a_n, b_n) for any index n >= 1, with a_n > 0.  Rules are evaluated lazily so
sequences reaching n ~ 10^7 never materialize unless asked for; `explicit` is
the exception and exists for tests.  There is one evaluator,
`coefficient_arrays`, over an index range; `eval_coefficients` is its
length-1 call.

JSON interchange format (used by every CLI subcommand):

    {"kind": <string>, "params": <object>, "length_hint": <int, optional>}

Per-kind params:

    constant              {"a": float, "b": float}
    periodic              {"q": int, "a": [float]*q, "b": [float]*q}
    eventually_periodic   {"q": int, "N": int, "base": <spec object>}
    cosine_power          {"lam": float, "gamma": float}   # a=1, b=lam*cos(n^gamma)
    staircase_comb        {"lam": float, "q": int, "schedule": <schedule object>}
    explicit              {"a": [float], "b": [float]}     # 1-based, finite

An int is a JSON or numpy integer, never a bool or 2.0; a float is any finite
int or real, never a bool or a string (`as_int`, `as_real`).
"""

from __future__ import annotations

import cmath
import functools
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import HorizonError

KINDS = ("constant", "periodic", "eventually_periodic", "cosine_power",
         "staircase_comb", "explicit")


def staircase_level_value(level: int, k: int, m_l: int, lam: float) -> float:
    """Piecewise-constant modulation value for step k of a level with m_l steps.

    Sweeps between -lam and lam in increments of 2*lam/m_l, flipping direction
    between consecutive levels.
    """
    return _staircase_value(as_int(level, "level"), as_int(k, "k"),
                            as_int(m_l, "m_l", 1), as_real(lam, "lam"))


def _staircase_value(level: int, k, m_l: int, lam: float):
    """`staircase_level_value` of checked arguments, k an int or an array of
    them: the window table of a validated schedule calls it once a level
    with that level's steps."""
    sign = -1.0 if level % 2 else 1.0
    return sign * (1.0 - 2.0 * k / m_l) * lam


@dataclass(frozen=True)
class CoefficientSpec:
    kind: str
    params: dict
    length_hint: int | None = None

    def __post_init__(self) -> None:
        with params_errors(self.kind):
            base = self.params["base"] if self.kind == "eventually_periodic" else None
            if isinstance(base, dict):
                # the one parse of a nested base: evaluation reads the spec
                object.__setattr__(self, "params", {
                    **self.params, "base": CoefficientSpec.from_dict(base)})
            object.__setattr__(self, "params", check_params(self.kind, self.params))
            if self.length_hint is not None:
                as_int(self.length_hint, "length_hint", 1)

    @functools.cached_property
    def _windows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """A staircase_comb spec's window table, flattened from its schedule
        one level at a time on the first lookup and kept: the half-open index
        ranges (n_{l,k}, n_{l,k+1}], each as its right end, its staircase value
        and the comb coupling of its level."""
        p = self.params
        sched = p["schedule"]
        rows, steps = sched["rows"], [len(row) - 1 for row in sched["rows"]]
        rights = np.array([right for row in rows for right in row[1:]])
        stair = np.concatenate([_staircase_value(level, np.arange(k), m_l, p["lam"])
                                for level, (k, m_l) in enumerate(zip(steps, sched["m"]), 1)])
        return rights, stair, np.repeat(sched["w"][:len(rows)], steps)

    def to_dict(self) -> dict:
        params = dict(self.params)
        if self.kind == "eventually_periodic":
            params["base"] = params["base"].to_dict()
        doc: dict[str, Any] = {"kind": self.kind, "params": params}
        if self.length_hint is not None:
            doc["length_hint"] = self.length_hint
        return doc

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @staticmethod
    def from_dict(doc: dict) -> "CoefficientSpec":
        if not (isinstance(doc, dict) and "kind" in doc
                and isinstance(doc.get("params"), dict)):
            raise ValueError("coefficient spec document needs 'kind' and a "
                             "'params' object")
        return CoefficientSpec(doc["kind"], dict(doc["params"]), doc.get("length_hint"))

    @staticmethod
    def from_json(text: str) -> "CoefficientSpec":
        return CoefficientSpec.from_dict(json.loads(text))


# ---------------------------------------------------------------------------
# validation: the one statement of each format's rules

def as_int(value, name: str, least: int | None = None) -> int:
    """The one integer rule for numbers from outside: a Python or numpy integer
    (never a bool or an integral float such as 2.0), at least `least` if given."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value}")
    return int(value)


def as_real(value, name: str) -> float:
    """The one real-number rule for numbers from outside: a finite int, float or
    numpy real, never a bool or a string."""
    if (not isinstance(value, (int, float, np.integer, np.floating))
            or isinstance(value, bool)):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # no OverflowError on a huge int
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


def as_complex(value, name: str) -> complex:
    """The one complex-number rule for energies from outside: a finite int,
    float, complex or numpy number, never a bool or a string."""
    if (not isinstance(value, (int, float, complex, np.number))
            or isinstance(value, bool)):
        raise TypeError(f"{name} must be a number, got {value!r}")
    if isinstance(value, (int, np.integer)):
        value = as_real(value, name)   # no OverflowError on a huge int
    if not cmath.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return complex(value)


@contextmanager
def params_errors(kind: str):
    """Raise the KeyError of a missing entry and the TypeError of an ill-typed
    one, met while reading or checking `kind` params, as ValueError."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{kind} spec is missing params entry {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"{kind} spec has an ill-typed params entry: {exc}") from exc


def check_params(kind: str, params: dict) -> dict:
    """Valid `kind` params with their numbers converted, or a ValueError."""
    if kind not in KINDS:
        raise ValueError(f"unknown coefficient kind: {kind!r}")
    with params_errors(kind):
        return {**params, **_VALIDATORS[kind](params)}


def _coefficients(p: dict) -> tuple[list[float], list[float]]:
    """The sequences p["a"], all positive, and p["b"] as float lists."""
    a, b = [as_real(x, "a") for x in p["a"]], [as_real(x, "b") for x in p["b"]]
    if not all(x > 0 for x in a):
        raise ValueError(f"all off-diagonal coefficients must be positive, got {min(a)}")
    return a, b


def _validate_constant(p: dict) -> dict:
    (a,), (b,) = _coefficients({"a": [p["a"]], "b": [p["b"]]})
    return {"a": a, "b": b}


def _validate_periodic(p: dict) -> dict:
    q, (a, b) = as_int(p["q"], "q", 1), _coefficients(p)
    if len(a) != q or len(b) != q:
        raise ValueError("periodic blocks must have length q")
    return {"q": q, "a": a, "b": b}


def _validate_eventually_periodic(p: dict) -> dict:
    if not isinstance(p["base"], CoefficientSpec):
        raise ValueError("base must be a coefficient spec")
    return {"q": as_int(p["q"], "q", 1), "N": as_int(p["N"], "N", 0)}


def _validate_cosine_power(p: dict) -> dict:
    lam, gamma = as_real(p["lam"], "lam"), as_real(p["gamma"], "gamma")
    if not (0.0 < gamma < 1.0):
        raise ValueError("exponent must lie in (0, 1)")
    return {"lam": lam, "gamma": gamma}


def _validate_staircase_comb(p: dict) -> dict:
    lam, q, sched = as_real(p["lam"], "lam"), as_int(p["q"], "q", 2), p["schedule"]
    rows, end = [], 0
    for level, row in enumerate(sched["rows"], 1):
        try:
            row = [as_int(n, "schedule row entry") for n in row]
        except TypeError:
            row = []
        if not row or row[0] != end or any(n1 >= n2 for n1, n2 in zip(row, row[1:])):
            raise ValueError(f"schedule row {level} must be a nonempty list of "
                             f"integers that increase strictly from {end}")
        rows.append(row)
        end = row[-1]
    if end == 0:
        raise ValueError("schedule has no realized windows")
    w = [as_real(x, "schedule w") for x in sched["w"]]
    m = [as_int(x, "schedule m") for x in sched["m"]]
    if len(w) < len(rows) or len(m) < len(rows):
        raise ValueError("schedule needs a w and an m entry per row")
    if not all(x >= 1 for x in m):
        raise ValueError("schedule step counts m must be positive integers")
    return {"lam": lam, "q": q, "schedule": {**sched, "rows": rows, "w": w, "m": m}}


def _validate_explicit(p: dict) -> dict:
    a, b = _coefficients(p)
    if len(a) != len(b) or not a:
        raise ValueError("explicit a and b must be nonempty and equally long")
    return {"a": a, "b": b}


_VALIDATORS = {
    "constant": _validate_constant,
    "periodic": _validate_periodic,
    "eventually_periodic": _validate_eventually_periodic,
    "cosine_power": _validate_cosine_power,
    "staircase_comb": _validate_staircase_comb,
    "explicit": _validate_explicit,
}


# ---------------------------------------------------------------------------
# factories: the validator converts their numbers

def constant_spec(a: float, b: float) -> CoefficientSpec:
    return CoefficientSpec("constant", {"a": a, "b": b})


def free_spec() -> CoefficientSpec:
    """a = 1, b = 0."""
    return CoefficientSpec("constant", {"a": 1.0, "b": 0.0})


def periodic_spec(q: int, a, b) -> CoefficientSpec:
    return CoefficientSpec("periodic", {"q": q, "a": a, "b": b})


def eventually_periodic_spec(base: CoefficientSpec, q: int, N: int) -> CoefficientSpec:
    return CoefficientSpec("eventually_periodic", {"base": base, "q": q, "N": N})


def explicit_spec(a, b) -> CoefficientSpec:
    a = list(a)
    return CoefficientSpec("explicit", {"a": a, "b": b}, length_hint=len(a))


# ---------------------------------------------------------------------------
# evaluation

def eval_coefficients(spec: CoefficientSpec, n: int) -> tuple[float, float]:
    """The pair (a_n, b_n) of the rule at index n >= 1.  Pure and deterministic."""
    n = as_int(n, "coefficient index", 1)
    a, b = coefficient_arrays(spec, n, n + 1)
    return (float(a[0]), float(b[0]))


def staircase_comb_parts(spec: CoefficientSpec, n: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray]:
    """The staircase part and the comb part w_l [q divides n] of b_n at the
    indices n, none past the horizon, of a staircase_comb spec, looked up
    among the right ends of its window table (`CoefficientSpec._windows`)."""
    rights, stair, wcomb = spec._windows
    idx = np.searchsorted(rights, n, side="left")
    return stair[idx], np.where(n % spec.params["q"] == 0, wcomb[idx], 0.0)


def coefficient_arrays(spec: CoefficientSpec, start: int, stop: int
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(a_n, b_n) as float arrays for n in [start, stop), start >= 1."""
    if not isinstance(spec, CoefficientSpec):
        raise TypeError(f"spec must be a CoefficientSpec, got {spec!r}")
    start = as_int(start, "start", 1)
    stop = as_int(stop, "stop", start)
    n = np.arange(start, stop, dtype=np.int64)
    p = spec.params
    if spec.kind == "constant":
        return (np.full(n.shape, p["a"]), np.full(n.shape, p["b"]))
    if spec.kind == "periodic":
        r = (n - 1) % p["q"]
        return (np.asarray(p["a"])[r], np.asarray(p["b"])[r])
    if spec.kind == "eventually_periodic":
        q, N = p["q"], p["N"]
        m, r = np.divmod(n - 1, q)
        idx = np.minimum(m, N) * q + r  # 0-based index into the base prefix
        lo, hi = (int(idx.min()), int(idx.max()) + 1) if len(idx) else (0, 0)
        base_a, base_b = coefficient_arrays(p["base"], lo + 1, hi + 1)
        return (base_a[idx - lo], base_b[idx - lo])
    if spec.kind == "cosine_power":
        b = np.power(n, p["gamma"], out=np.empty(n.shape))   # in place from here on
        return (np.ones(n.shape), np.multiply(p["lam"], np.cos(b, out=b), out=b))
    if spec.kind == "staircase_comb":
        horizon = p["schedule"]["rows"][-1][-1]
        if stop - 1 > horizon:
            raise HorizonError(
                f"index {stop - 1} beyond realized schedule horizon {horizon}")
        stair, comb = staircase_comb_parts(spec, n)
        return (np.ones(n.shape), stair + comb)
    if spec.kind == "explicit":
        if stop - 1 > len(p["a"]):
            raise HorizonError(
                f"index {stop - 1} beyond explicit table of length {len(p['a'])}")
        return (np.asarray(p["a"])[n - 1], np.asarray(p["b"])[n - 1])
    raise AssertionError(spec.kind)
