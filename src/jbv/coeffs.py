"""Coefficient rules for semi-infinite Jacobi matrices.

A `CoefficientSpec` is a finitely describable rule producing the pair
(a_n, b_n) for any index n >= 1, with a_n > 0.  Rules are evaluated lazily so
sequences reaching n ~ 10^7 never materialize unless asked for; `explicit` is
the exception and exists for tests.

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
from bisect import bisect_left
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
        if self.kind not in KINDS:
            raise ValueError(f"unknown coefficient kind: {self.kind!r}")
        try:
            _VALIDATORS[self.kind](self.params)
        except KeyError as exc:
            raise ValueError(f"{self.kind} spec is missing params entry {exc}") from exc
        except TypeError as exc:
            raise ValueError(f"{self.kind} spec has an ill-typed params entry: "
                             f"{exc}") from exc
        if self.length_hint is not None and self.length_hint < 1:
            raise ValueError("length_hint must be positive")

    def to_dict(self) -> dict:
        doc: dict[str, Any] = {"kind": self.kind, "params": _params_to_plain(self)}
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
        kind = doc["kind"]
        params = dict(doc["params"])
        if kind == "eventually_periodic":
            params["base"] = CoefficientSpec.from_dict(_as_plain_spec(params.get("base")))
        return CoefficientSpec(kind, params, doc.get("length_hint"))

    @staticmethod
    def from_json(text: str) -> "CoefficientSpec":
        return CoefficientSpec.from_dict(json.loads(text))


def _as_plain_spec(obj) -> dict:
    if isinstance(obj, CoefficientSpec):
        return obj.to_dict()
    return obj


def _params_to_plain(spec: CoefficientSpec) -> dict:
    params = dict(spec.params)
    if spec.kind == "eventually_periodic":
        params["base"] = _as_plain_spec(params["base"])
    return params


# ---------------------------------------------------------------------------
# validation

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
    base = p["base"]
    if not isinstance(base, (CoefficientSpec, dict)):
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
    sched = p["schedule"]
    for key in ("w", "m", "rows"):
        if key not in sched:
            raise ValueError(f"schedule table missing {key!r}")


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
    return CoefficientSpec("periodic", {"q": int(q),
                                        "a": [float(x) for x in a],
                                        "b": [float(x) for x in b]})


def eventually_periodic_spec(base: CoefficientSpec, q: int, N: int) -> CoefficientSpec:
    return CoefficientSpec("eventually_periodic",
                           {"base": base, "q": int(q), "N": int(N)})


def explicit_spec(a, b) -> CoefficientSpec:
    a = [float(x) for x in a]
    b = [float(x) for x in b]
    return CoefficientSpec("explicit", {"a": a, "b": b}, length_hint=len(a))


# ---------------------------------------------------------------------------
# scalar evaluation

def eval_coefficients(spec: CoefficientSpec, n: int) -> tuple[float, float]:
    """The pair (a_n, b_n) of the rule at index n >= 1.  Pure and deterministic."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"coefficient index must be an integer >= 1, got {n}")
    return _EVAL[spec.kind](spec, int(n))


def _eval_constant(spec, n):
    p = spec.params
    return (p["a"], p["b"])


def _eval_periodic(spec, n):
    p = spec.params
    r = (n - 1) % p["q"]
    return (p["a"][r], p["b"][r])


def _eval_eventually_periodic(spec, n):
    p = spec.params
    q, N = p["q"], p["N"]
    m, r = divmod(n - 1, q)
    return eval_coefficients(_base_spec(spec), min(m, N) * q + r + 1)


def _base_spec(spec) -> CoefficientSpec:
    base = spec.params["base"]
    if isinstance(base, CoefficientSpec):
        return base
    return CoefficientSpec.from_dict(base)


def _eval_cosine_power(spec, n):
    p = spec.params
    return (1.0, p["lam"] * math.cos(n ** p["gamma"]))


def _eval_staircase_comb(spec, n):
    p = spec.params
    sched = p["schedule"]
    rights, stair, wcomb = _staircase_tables(sched, p["lam"])
    if n > rights[-1]:
        raise HorizonError(
            f"index {n} beyond realized schedule horizon {rights[-1]}")
    i = bisect_left(rights, n)
    b = stair[i]
    if n % p["q"] == 0:
        b += wcomb[i]
    return (1.0, b)


def _eval_explicit(spec, n):
    p = spec.params
    if n > len(p["a"]):
        raise HorizonError(f"index {n} beyond explicit table of length {len(p['a'])}")
    return (p["a"][n - 1], p["b"][n - 1])


_EVAL = {
    "constant": _eval_constant,
    "periodic": _eval_periodic,
    "eventually_periodic": _eval_eventually_periodic,
    "cosine_power": _eval_cosine_power,
    "staircase_comb": _eval_staircase_comb,
    "explicit": _eval_explicit,
}


def _staircase_tables(sched: dict, lam: float):
    """Flatten the schedule into per-window right endpoints and values.

    Windows are the half-open index ranges (n_{l,k}, n_{l,k+1}]; the tables
    list, per window, its right endpoint, its staircase value and the comb
    coupling of its level.
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
    if not rights:
        raise ValueError("schedule has no realized windows")
    return rights, stair, wcomb


# ---------------------------------------------------------------------------
# vectorized evaluation

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
        base_a, base_b = coefficient_arrays(_base_spec(spec), 1, (N + 1) * q + 1)
        return (base_a[idx], base_b[idx])
    if spec.kind == "cosine_power":
        p = spec.params
        return (np.ones(n.shape), p["lam"] * np.cos(n.astype(np.float64) ** p["gamma"]))
    if spec.kind == "staircase_comb":
        p = spec.params
        rights, stair, wcomb = _staircase_tables(p["schedule"], p["lam"])
        if stop - 1 > rights[-1]:
            raise HorizonError(
                f"index {stop - 1} beyond realized schedule horizon {rights[-1]}")
        idx = np.searchsorted(np.asarray(rights), n, side="left")
        b = np.asarray(stair)[idx] + np.where(n % p["q"] == 0,
                                              np.asarray(wcomb)[idx], 0.0)
        return (np.ones(n.shape), b)
    if spec.kind == "explicit":
        p = spec.params
        if stop - 1 > len(p["a"]):
            raise HorizonError(
                f"index {stop - 1} beyond explicit table of length {len(p['a'])}")
        return (np.asarray(p["a"])[n - 1], np.asarray(p["b"])[n - 1])
    raise AssertionError(spec.kind)
