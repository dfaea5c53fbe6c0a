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
"""

from __future__ import annotations

import json
import math
import operator
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
            check_params(self.kind, self.params)
            if self.length_hint is not None and self.length_hint < 1:
                raise ValueError("length_hint must be positive")

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


def check_params(kind: str, params: dict) -> None:
    """Raise ValueError unless `params` are valid params of a `kind` spec."""
    if kind not in KINDS:
        raise ValueError(f"unknown coefficient kind: {kind!r}")
    with params_errors(kind):
        _VALIDATORS[kind](params)


def _check_positive_a(values) -> None:
    for a in values:
        if not (isinstance(a, (int, float)) and math.isfinite(a) and a > 0):
            raise ValueError(f"all off-diagonal coefficients must be positive, got {a}")


def _check_finite_b(values) -> None:
    for b in values:
        if not math.isfinite(b):
            raise ValueError(f"all diagonal coefficients must be finite, got {b}")


def _validate_constant(p: dict) -> None:
    _check_positive_a([p["a"]])
    _check_finite_b([p["b"]])


def _validate_periodic(p: dict) -> None:
    q = p["q"]
    if not (isinstance(q, int) and q >= 1):
        raise ValueError("period must be a positive integer")
    if len(p["a"]) != q or len(p["b"]) != q:
        raise ValueError("periodic blocks must have length q")
    _check_positive_a(p["a"])
    _check_finite_b(p["b"])


def _validate_eventually_periodic(p: dict) -> None:
    if not (isinstance(p["q"], int) and p["q"] >= 1):
        raise ValueError("period must be a positive integer")
    if not (isinstance(p["N"], int) and p["N"] >= 0):
        raise ValueError("freeze block index N must be a nonnegative integer")
    if not isinstance(p["base"], CoefficientSpec):
        raise ValueError("base must be a coefficient spec")


def _validate_cosine_power(p: dict) -> None:
    if not math.isfinite(p["lam"]):
        raise ValueError("coupling must be finite")
    if not (0.0 < p["gamma"] < 1.0):
        raise ValueError("exponent must lie in (0, 1)")


def _validate_staircase_comb(p: dict) -> None:
    if not math.isfinite(p["lam"]):
        raise ValueError("coupling must be finite")
    if not (isinstance(p["q"], int) and p["q"] >= 2):
        raise ValueError("period must be an integer >= 2")
    rows, w, m = (p["schedule"][key] for key in ("rows", "w", "m"))
    if check_schedule_rows(rows) == 0:
        raise ValueError("schedule has no realized windows")
    if len(w) < len(rows) or len(m) < len(rows):
        raise ValueError("schedule needs a w and an m entry per row")
    if not all(math.isfinite(x) for x in w):
        raise ValueError("schedule comb couplings w must be finite")
    if not all(isinstance(x, int) and x >= 1 for x in m):
        raise ValueError("schedule step counts m must be positive integers")


def check_schedule_rows(rows) -> int:
    """The end of the last schedule row, after checking that each row is a
    nonempty list of integers increasing strictly from where the row before
    it ended, the first from 0."""
    end = 0
    for level, row in enumerate(rows, 1):
        if not (isinstance(row, (list, tuple)) and row
                and all(isinstance(n, int) for n in row)):
            raise ValueError(f"schedule row {level} must be a nonempty list "
                             "of integers")
        if row[0] != end or any(n1 >= n2 for n1, n2 in zip(row, row[1:])):
            raise ValueError(f"schedule row {level} must increase strictly "
                             f"from {end}")
        end = row[-1]
    return end


def _validate_explicit(p: dict) -> None:
    if len(p["a"]) != len(p["b"]) or not p["a"]:
        raise ValueError("explicit a and b must be nonempty and equally long")
    _check_positive_a(p["a"])
    _check_finite_b(p["b"])


_VALIDATORS = {
    "constant": _validate_constant,
    "periodic": _validate_periodic,
    "eventually_periodic": _validate_eventually_periodic,
    "cosine_power": _validate_cosine_power,
    "staircase_comb": _validate_staircase_comb,
    "explicit": _validate_explicit,
}


# ---------------------------------------------------------------------------
# factories

def constant_spec(a: float, b: float) -> CoefficientSpec:
    return CoefficientSpec("constant", {"a": float(a), "b": float(b)})


def free_spec() -> CoefficientSpec:
    """a = 1, b = 0."""
    return CoefficientSpec("constant", {"a": 1.0, "b": 0.0})


def periodic_spec(q: int, a, b) -> CoefficientSpec:
    with params_errors("periodic"):
        return CoefficientSpec("periodic", {"q": operator.index(q),
                                            "a": [float(x) for x in a],
                                            "b": [float(x) for x in b]})


def eventually_periodic_spec(base: CoefficientSpec, q: int, N: int) -> CoefficientSpec:
    with params_errors("eventually_periodic"):
        return CoefficientSpec("eventually_periodic", {
            "base": base, "q": operator.index(q), "N": operator.index(N)})


def explicit_spec(a, b) -> CoefficientSpec:
    a = [float(x) for x in a]
    b = [float(x) for x in b]
    return CoefficientSpec("explicit", {"a": a, "b": b}, length_hint=len(a))


# ---------------------------------------------------------------------------
# evaluation

def eval_coefficients(spec: CoefficientSpec, n: int) -> tuple[float, float]:
    """The pair (a_n, b_n) of the rule at index n >= 1.  Pure and deterministic."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"coefficient index must be an integer >= 1, got {n}")
    a, b = coefficient_arrays(spec, int(n), int(n) + 1)
    return (float(a[0]), float(b[0]))


def staircase_tables(sched: dict, lam: float):
    """Flatten the schedule into per-window right endpoints and values.

    Windows are the half-open index ranges (n_{l,k}, n_{l,k+1}]; the tables
    list, per window, its right endpoint, its staircase value and the comb
    coupling of its level, as arrays.
    """
    rights: list[int] = []
    stair: list[float] = []
    wcomb: list[float] = []
    for li, row in enumerate(sched["rows"]):
        level = li + 1
        m_l = sched["m"][li]
        w_l = sched["w"][li]
        for k in range(len(row) - 1):
            rights.append(row[k + 1])
            stair.append(staircase_level_value(level, k, m_l, lam))
            wcomb.append(w_l)
    return np.array(rights), np.array(stair), np.array(wcomb)


def coefficient_arrays(spec: CoefficientSpec, start: int, stop: int
                       ) -> tuple[np.ndarray, np.ndarray]:
    """(a_n, b_n) as float arrays for n in [start, stop), start >= 1."""
    if start < 1 or stop < start:
        raise ValueError("need 1 <= start <= stop")
    n = np.arange(start, stop, dtype=np.int64)
    if spec.kind == "constant":
        p = spec.params
        return (np.full(n.shape, p["a"]), np.full(n.shape, p["b"]))
    if spec.kind == "periodic":
        p = spec.params
        r = (n - 1) % p["q"]
        return (np.asarray(p["a"])[r], np.asarray(p["b"])[r])
    if spec.kind == "eventually_periodic":
        p = spec.params
        q, N = p["q"], p["N"]
        m, r = np.divmod(n - 1, q)
        idx = np.minimum(m, N) * q + r  # 0-based index into the base prefix
        lo, hi = (int(idx.min()), int(idx.max()) + 1) if len(idx) else (0, 0)
        base_a, base_b = coefficient_arrays(p["base"], lo + 1, hi + 1)
        return (base_a[idx - lo], base_b[idx - lo])
    if spec.kind == "cosine_power":
        p = spec.params
        return (np.ones(n.shape), p["lam"] * np.cos(n.astype(np.float64) ** p["gamma"]))
    if spec.kind == "staircase_comb":
        p = spec.params
        rights, stair, wcomb = staircase_tables(p["schedule"], p["lam"])
        if stop - 1 > rights[-1]:
            raise HorizonError(
                f"index {stop - 1} beyond realized schedule horizon {rights[-1]}")
        idx = np.searchsorted(rights, n, side="left")
        b = stair[idx] + np.where(n % p["q"] == 0, wcomb[idx], 0.0)
        return (np.ones(n.shape), b)
    if spec.kind == "explicit":
        p = spec.params
        if stop - 1 > len(p["a"]):
            raise HorizonError(
                f"index {stop - 1} beyond explicit table of length {len(p['a'])}")
        return (np.asarray(p["a"])[n - 1], np.asarray(p["b"])[n - 1])
    raise AssertionError(spec.kind)
