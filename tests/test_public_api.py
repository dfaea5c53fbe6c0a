"""The names `jbv/__init__.py` exports are the library's contract: adding or
removing one is deliberate, and a removal is recorded in CHANGES.md."""

import inspect
import types

import pytest

import jbv

EXPORTED = {
    # coefficient rules
    "CoefficientSpec", "coefficient_arrays", "constant_spec",
    "eval_coefficients", "eventually_periodic_spec", "explicit_spec",
    "free_spec", "periodic_spec",
    # constructions
    "Schedule", "build_schedule", "bv_energy", "slow_cosine_spec",
    "staircase_bv_breakdown", "staircase_comb_spec", "staircase_level_value",
    # densities
    "ApproximantSpec", "WeylSolution", "ac_density", "approximant_coefficients",
    "m_function", "weyl_solution", "wronskian_defect",
    # diagnostics
    "AcIntervalEstimate", "GapWindowReport", "GrowthStatistic",
    "ac_interval_estimate", "gap_growth_lower_bound", "growth_statistic",
    "sturm_count", "verify_gap_window_growth",
    # errors
    "DegenerateBlockError", "HorizonError", "NonDiagonalizableFrameError",
    "OutsideBandError", "PoleOfMError", "PreconditionError",
    "RootIsolationError",
    # intervals
    "Interval", "IntervalUnion", "interval_union_intersect",
    # 2x2 matrices
    "Matrix2", "ScaledMatrix2", "one_step_matrix",
    # periodic blocks
    "BandStructure", "Gap", "GapReport", "PeriodicJacobi", "band_structure",
    "chebyshev_second_kind", "comb_potential", "discriminant_polynomial",
    "discriminant_value", "free_critical_points", "gap_report",
    "intersection_over_family", "same_discriminant", "spectral_bracket",
    # polynomials
    "PolynomialReal",
    # transfer matrices
    "CouplingSeries", "Diagonalization", "GrowthScanner", "QStepBlock",
    "branch_sign_for_interval", "coupling_series", "eigen_branch",
    "q_step_block", "strip_margins", "transfer_product", "weyl_branch_sign",
}


def test_exported_names_are_pinned():
    exported = {name for name, value in vars(jbv).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert exported == EXPORTED
    assert isinstance(jbv.__version__, str)


def test_growth_scanner_members_are_pinned():
    # one energy or a lane axis of energies, the same fields and methods
    scanner = jbv.GrowthScanner
    fields = ("x", "n", "t11", "t12", "t21", "t22", "e", "log_sum", "running_max_log")
    assert scanner.__slots__ == fields
    assert {name for name in vars(scanner) if not name.startswith("_")} == {
        *fields, "feed", "feed_arrays", "statistic_log", "statistic", "running_max"}
    for method, params in ((scanner, ["x"]), (scanner.feed, ["self", "a", "b"]),
                           (scanner.feed_arrays, ["self", "avals", "bvals"])):
        assert list(inspect.signature(method).parameters) == params
    for name in ("statistic_log", "statistic", "running_max"):
        assert isinstance(vars(scanner)[name], property)


SPEC_CALLS = {   # every public entry point that takes a coefficient spec
    "growth_statistic": lambda spec: jbv.growth_statistic(spec, 0.3, 50),
    "transfer_product": lambda spec: jbv.transfer_product(spec, 1, 5, 0.3),
    "q_step_block": lambda spec: jbv.q_step_block(spec, 2, 0, 0.3),
    "bv_energy": lambda spec: jbv.bv_energy(spec, 2, 10),
    "sturm_count": lambda spec: jbv.sturm_count(spec, 5, 0.3),
    "ac_interval_estimate": lambda spec: jbv.ac_interval_estimate(spec, 16),
    "coefficient_arrays": lambda spec: jbv.coefficient_arrays(spec, 1, 5),
    "eval_coefficients": lambda spec: jbv.eval_coefficients(spec, 1),
    "coupling_series": lambda spec: jbv.coupling_series(spec, 2, 0.3 + 0.1j, range(1, 4), 1),
    "verify_gap_window_growth":
        lambda spec: jbv.verify_gap_window_growth(spec, 2, 1, 20, 0.25, 0.12),
    "staircase_bv_breakdown": lambda spec: jbv.staircase_bv_breakdown(spec),
}


@pytest.mark.parametrize("spec", [None, {"kind": "constant", "params": {"a": 1.0, "b": 0.0}}],
                         ids=["None", "dict"])
@pytest.mark.parametrize("entry", sorted(SPEC_CALLS))
def test_a_non_spec_is_a_type_error_naming_the_spec(entry, spec):
    # each used to raise AttributeError on spec.params (spec.kind in the
    # breakdown)
    with pytest.raises(TypeError, match="^spec must be a CoefficientSpec, got "):
        SPEC_CALLS[entry](spec)


OBJECT_CALLS = {   # every public entry point that takes an approximant or a block
    "ac_density": (lambda obj: jbv.ac_density(obj, 0.0), "aspec", "ApproximantSpec"),
    "weyl_solution": (lambda obj: jbv.weyl_solution(obj, 0.1j, 1), "aspec", "ApproximantSpec"),
    "m_function": (lambda obj: jbv.m_function(obj, 0.1j), "aspec", "ApproximantSpec"),
    "approximant_coefficients": (lambda obj: jbv.approximant_coefficients(obj, 3),
                                 "aspec", "ApproximantSpec"),
    "eigen_branch": (lambda obj: jbv.eigen_branch(obj, 1), "block", "QStepBlock"),
    "weyl_branch_sign": (lambda obj: jbv.weyl_branch_sign(obj), "block", "QStepBlock"),
}


@pytest.mark.parametrize("obj", [None, {}], ids=["None", "dict"])
@pytest.mark.parametrize("entry", sorted(OBJECT_CALLS))
def test_a_wrong_object_is_a_type_error_naming_the_argument(entry, obj):
    # each used to raise AttributeError on .base, .as_spec or .Delta
    call, name, kind = OBJECT_CALLS[entry]
    with pytest.raises(TypeError, match=f"^{name} must be an? {kind}, got "):
        call(obj)
