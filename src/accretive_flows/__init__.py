"""Accretive gradient flows with certified convergence and metastability rates.

The library computes quantitative zero-gap moduli for an accretive operator,
assembles certified Cauchy/metastability thresholds from them, and verifies
every certificate empirically against the operator's closed-form flow,
read as an ``AlmostOrbit``: a flow orbit is the almost-orbit with c = 0.  An
iterated-resolvent evaluator with a-posteriori error certificates is kept
too; no report uses it, and only the ``euler-chain`` bench workload runs it.
"""

from .errors import ConfigurationError, ResourceLimitError
from .space import Point, as_point, eta_hilbert, norm
from .operators import (
    AccretiveOperator,
    QuarticWell,
    SPDLinear,
    ScaledIdentity,
    dirichlet_laplacian_1d,
    make_quartic_well,
    make_scaled_identity,
    make_spd_linear,
    sample_graph_pairs,
)
from .semigroup import (
    AlmostOrbit,
    cl_error_bound,
    evaluate_semigroup,
    make_almost_orbit,
    resolvent_power,
    steps_for_tolerance,
)
from .moduli import (
    FullModulusReport,
    RateExpr,
    SequenceModulusReport,
    check_full_modulus,
    check_simple_modulus,
    check_weak_modulus,
    full_modulus_from_dyadic,
    full_modulus_linear,
    full_modulus_min_eigenvalue,
    full_modulus_quartic_well,
    full_modulus_strongly_accretive,
    identity_rate,
    rate_from_spec,
    rate_label,
    simple_from_full,
    theta_scaled_identity,
    weak_from_full,
    weak_from_simple,
)
from .rates import (
    CertifiedThreshold,
    FromRateFunctional,
    NRInputs,
    XuInputs,
    almost_orbit_cauchy_threshold,
    closure_cauchy_threshold,
    orbit_cauchy_threshold,
    orbit_metastability_bound,
    pairing_dip_rate,
    projection_modulus_from_convexity,
    projection_modulus_identity,
    zero_gap_metastability_bound,
    zero_gap_threshold,
)
from .harness import (
    CertifiedSequence,
    ExperimentConfig,
    Report,
    ReportRow,
    build_full_modulus,
    build_operator,
    certified_graph_sequence,
    empirical_rate_of_convergence,
    registered_pairs,
    run_experiment,
    verify_cauchy_rate,
    verify_flow_pairing_dip,
    verify_integrable_dip,
    verify_metastability,
    verify_orbit_cauchy,
)

__version__ = "0.1.0"
