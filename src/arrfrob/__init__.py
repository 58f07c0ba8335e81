"""Exact and numeric verification toolkit for weighted families of
parallelly translated hyperplanes: flag-space combinatorics, critical-set
algebra, connection operators, and the Frobenius-type structures built on
top of them."""

from .core import (
    ArrangementFamily,
    BasePoint,
    Circuit,
    ConfigError,
    check_unbalanced,
    circuits,
    is_good_fiber,
    load_family,
    sample_good_point,
)
from .osflag import (
    CoVector,
    FlagVector,
    SingularSubspace,
    contravariant_pairing,
    singular_subspace,
    v_vector,
)
from .critalg import (
    CriticalPoint,
    MasterFunction,
    expected_critical_count,
    identity_element,
    monomial_to_w,
    multiply,
    reduce_to_w_basis,
    residue_pairing_analytic,
    solve_critical,
    structural_pairing,
)
from .gaussmanin import (
    FlowResult,
    check_conformal_block,
    check_flatness,
    check_symmetry_and_invariance,
    derivative_sections,
    flatness_certificate,
    flow_flat_section,
    k_operator,
)
from .frobenius import (
    a_constant,
    alpha_structural,
    canonical_iso_analytic,
    eta_and_beta,
    naive_iso_and_constant,
    period_map,
    potential_first,
    potential_derivative_row,
    strata_restriction_k1,
)

__version__ = "0.1.0"


def __getattr__(name):
    # The command line is loaded on first use, not with the package, so that
    # ``import arrfrob`` does not load it; ``python -m arrfrob`` runs it.
    if name in ("main", "report_schema_version"):
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ArrangementFamily",
    "BasePoint",
    "Circuit",
    "ConfigError",
    "CoVector",
    "CriticalPoint",
    "FlagVector",
    "FlowResult",
    "MasterFunction",
    "SingularSubspace",
    "a_constant",
    "alpha_structural",
    "canonical_iso_analytic",
    "check_conformal_block",
    "check_flatness",
    "check_symmetry_and_invariance",
    "check_unbalanced",
    "circuits",
    "contravariant_pairing",
    "derivative_sections",
    "eta_and_beta",
    "expected_critical_count",
    "flatness_certificate",
    "flow_flat_section",
    "identity_element",
    "is_good_fiber",
    "k_operator",
    "load_family",
    "main",
    "monomial_to_w",
    "multiply",
    "naive_iso_and_constant",
    "period_map",
    "potential_derivative_row",
    "potential_first",
    "reduce_to_w_basis",
    "report_schema_version",
    "residue_pairing_analytic",
    "sample_good_point",
    "singular_subspace",
    "solve_critical",
    "strata_restriction_k1",
    "structural_pairing",
    "v_vector",
]
