"""Genus of the modular curve X0(N) and the statistics of its values.

The genus comes from the exact integer identity

    12 (g0(N) - 1) = mu - 3 nu2 - 4 nu3 - 6 nu_inf,

where mu is the index of the level-N congruence subgroup, nu2 and nu3
count elliptic points, and nu_inf counts cusps; all four are
multiplicative and evaluated from factorizations.  On top of that sit
batch scans over level ranges, sharp lower/upper bounds with exact
equality detection, enumeration of the integers never attained as a
genus, the six-family parity classification, residue-class densities,
and the growth constants of the attained-value counting function.

`x0genus.genus` is the function, which shadows its submodule: reach the
module with `importlib.import_module("x0genus.genus")` or with
`from x0genus.genus import ...`, not with `import x0genus.genus as G`.
"""

from .arith import (
    Factorization,
    factorize,
    primes_in_progression,
    primes_up_to,
)
from .bounds import (
    BoundsReport,
    LimsupDiagnostic,
    check_bounds_range,
    expected_equality_levels,
    limsup_diagnostic,
    limsup_table,
    lower_bound,
    lower_bound_equality,
    lower_bound_holds,
    mu_over_12_bound_check,
    primorial,
    upper_bound,
)
from .genus import (
    ConsistencyError,
    GenusBlock,
    GenusBreakdown,
    breakdown_block,
    breakdown_from_factorization,
    genus,
    iter_blocks,
    mu,
    nu2,
    nu3,
    nu_infinity,
    scan,
    theta,
)
from .stats import (
    AsymptoticConstants,
    AverageReport,
    DirichletCheck,
    ResidueDensity,
    ResidueHistogram,
    asymptotic_constants,
    average_partial,
    bound_3_over_ell_squared,
    dirichlet_F,
    dirichlet_tail_bound,
    even_genus_frequency,
    flagged_residue_classes,
    residue_density_empirical,
    residue_density_exact,
    residue_histogram,
    restricted_congruence_check,
    squarefree_fraction,
    two_is_primitive_root,
    zeta,
    zeta_identity_check,
    zeta_with_error,
)
from .values import (
    MissedValuesReport,
    ParityFamily,
    attained_genera,
    even_attained_count,
    even_genus_family,
    missed_values,
    power_of_two_congruence_check,
    scan_limit_for,
    verify_parity_classification,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticConstants",
    "AverageReport",
    "BoundsReport",
    "ConsistencyError",
    "DirichletCheck",
    "Factorization",
    "GenusBlock",
    "GenusBreakdown",
    "LimsupDiagnostic",
    "MissedValuesReport",
    "ParityFamily",
    "ResidueDensity",
    "ResidueHistogram",
    "asymptotic_constants",
    "attained_genera",
    "average_partial",
    "bound_3_over_ell_squared",
    "breakdown_block",
    "breakdown_from_factorization",
    "check_bounds_range",
    "dirichlet_F",
    "dirichlet_tail_bound",
    "even_attained_count",
    "even_genus_family",
    "even_genus_frequency",
    "expected_equality_levels",
    "factorize",
    "flagged_residue_classes",
    "genus",
    "iter_blocks",
    "limsup_diagnostic",
    "limsup_table",
    "lower_bound",
    "lower_bound_equality",
    "lower_bound_holds",
    "missed_values",
    "mu",
    "mu_over_12_bound_check",
    "nu2",
    "nu3",
    "nu_infinity",
    "power_of_two_congruence_check",
    "primes_in_progression",
    "primes_up_to",
    "primorial",
    "residue_density_empirical",
    "residue_density_exact",
    "residue_histogram",
    "restricted_congruence_check",
    "scan",
    "scan_limit_for",
    "squarefree_fraction",
    "theta",
    "two_is_primitive_root",
    "upper_bound",
    "verify_parity_classification",
    "zeta",
    "zeta_identity_check",
    "zeta_with_error",
]
