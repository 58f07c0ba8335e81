"""Exact and numeric verification toolkit for weighted families of
parallelly translated hyperplanes: flag-space combinatorics, critical-set
algebra, connection operators, and the Frobenius-type structures built on
top of them.

The public names below are resolved on first use (PEP 562), so that
``import arrfrob`` executes no submodule and a command compiles only the
modules that it runs."""

import importlib

__version__ = "0.1.0"

# The defining module of each public name.
_EXPORTS = {
    "core": (
        "ArrangementFamily",
        "BasePoint",
        "Circuit",
        "ConfigError",
        "check_unbalanced",
        "circuits",
        "is_good_fiber",
        "load_family",
        "sample_good_point",
    ),
    "osflag": (
        "CoVector",
        "FlagVector",
        "SingularSubspace",
        "contravariant_pairing",
        "singular_subspace",
        "v_vector",
    ),
    "critalg": (
        "expected_critical_count",
        "reduce_to_w_basis",
        "structural_pairing",
    ),
    "critpoints": (
        "CriticalPoint",
        "MasterFunction",
        "canonical_iso_analytic",
        "naive_iso_and_constant",
        "residue_pairing_analytic",
        "solve_critical",
    ),
    "gaussmanin": ("k_operator",),
    "exact": (
        "a_constant",
        "check_conformal_block",
        "check_flatness",
        "check_symmetry_and_invariance",
        "derivative_sections",
        "flatness_certificate",
        "identity_element",
        "monomial_to_w",
        "multiply",
        "potential_derivative_row",
        "potential_first",
    ),
    "transport": ("FlowResult", "flow_flat_section"),
    "frobenius": ("alpha_structural", "period_map"),
    "strata": ("strata_restriction_k1",),
    "cli": ("main", "report_schema_version"),
}

_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN)


def __getattr__(name):
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
