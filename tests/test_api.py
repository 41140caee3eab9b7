"""The public API: each module's ``__all__`` and the package's.

Only internal helpers may leave the public names, so a change to any of
these lists is deliberate and shows here.
"""

import importlib

import pytest

import su2nlft

MODULES = {
    "core": {
        "BeurlingWeight", "CoefficientSequence", "GridFunction", "NlftPair",
        "convolve", "default_grid_size", "derivative", "determinant_residual",
        "fractional_derivative", "from_grid", "pair_from_sequences",
        "reciprocal_on_grid", "reciprocal_residual", "sequences_allclose",
        "sobolev_norm", "star_reflect", "to_grid", "weighted_l1_norm",
    },
    "forward": {
        "a_star_at_zero", "multilinear_partial_sum", "multilinear_term",
        "nlft_forward", "single_factor", "su2_product",
    },
    "spectral": {
        "grid_quotient", "outer_complement", "symbol_ratio",
        "symbol_tail_mass", "winding_number",
    },
    "inverse": {
        "InverseReport", "RhSolution", "RhSystem", "apply_m",
        "first_certified_index", "inverse_nlft", "inverse_nlft_detailed",
        "layer_strip", "layer_strip_detailed", "reflect_pair", "rh_solve",
        "solvability_certificate",
    },
    "verify": {
        "CheckRecord", "VerificationReport", "check_antisymmetry",
        "check_contraction", "check_decay_first_order",
        "check_decay_fractional", "check_determinant",
        "check_lu_factorization", "check_plancherel",
        "check_quantitative_baxter", "check_round_trip", "check_sinh_bound",
        "decay_table", "run_pair_checks", "run_suite",
    },
    "cli": {
        "Config", "load_pair", "load_sequence", "main", "pair_to_json",
        "sequence_to_json",
    },
}

ERRORS = {
    "CombinatoricsError", "ConsistencyError", "ConvergenceError",
    "DeterminantError", "GridSizeError", "NlftError", "NumericalError",
    "OuternessError", "SzegoMarginError", "ValidationError",
    "VanishingSymbolError", "WeightError",
}

# every module's public names but the CLI's, less ``reciprocal_residual``
# (public in ``core`` only), plus the errors and ``max_abs_difference``
PACKAGE = (set().union(*(names for m, names in MODULES.items() if m != "cli"))
           - {"reciprocal_residual"}) | ERRORS | {"max_abs_difference"}


@pytest.mark.parametrize("name", sorted(MODULES))
def test_module_all_is_pinned(name):
    module = importlib.import_module(f"su2nlft.{name}")
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == MODULES[name]
    for attr in module.__all__:
        assert hasattr(module, attr), f"su2nlft.{name}.{attr}"


def test_package_all_is_pinned():
    assert len(su2nlft.__all__) == len(PACKAGE) == 68
    assert set(su2nlft.__all__) == PACKAGE
    for attr in su2nlft.__all__:
        assert hasattr(su2nlft, attr), f"su2nlft.{attr}"
    assert [len(MODULES[m]) for m in
            ("core", "forward", "spectral", "inverse", "verify", "cli")] == [
        18, 6, 5, 12, 15, 6]
