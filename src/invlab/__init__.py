"""invlab: a numerical laboratory for invariant metrics on model complex domains.

Closed-form hyperbolic-type distances and their localization gap on the
half-disc, variational Finsler geodesics with quality certificates, a
moment-based numeric Bergman kernel oracle, and empirical sweeps for the
inequality shapes that govern local-versus-global distance comparison.
"""

from .geometry import (
    Ball,
    BallIntersection,
    ComplexPoint,
    DimensionMismatchError,
    Domain,
    EmptyIntersectionError,
    HalfDiscScaled,
    HalfPlane,
    MembershipError,
    Polydisc,
    Product,
    ReinhardtEllipsoid,
    UnitDisc,
    UnsupportedDomainError,
    boundary_distance,
    contains,
    dimension,
    intersect_with_ball,
)
from .conformal import (
    Cayley,
    Composition,
    HalfDiscToHalfPlane,
    Mobius,
    Scale,
    apply,
    derivative,
    invert_by_newton,
)
from .metrics import (
    FinslerDensity,
    bergman_density,
    bergman_metric,
    custom_density,
    kobayashi_density,
    kobayashi_royden_density,
    normalized_bergman,
    normalized_bergman_density,
    pullback,
    pullback_density,
)
from .distances import (
    DistanceValue,
    GapDecomposition,
    caratheodory_distance,
    gap_term_boundary_leading,
    gap_term_separation_leading,
    kobayashi_distance,
    localization_gap,
    mobius_halfplane,
)
from .geodesics import (
    EpsilonCertificate,
    Polyline,
    SolverConfig,
    epsilon_certificate,
    excursion_radius,
    finsler_length,
    minimize_curve,
)
from .bergman import (
    KernelResult,
    MomentTable,
    bergman_kernel_diag,
    bergman_metric_numeric,
    moment_table,
    monomial_moment,
)
from .localization import (
    AdmissibleWeight,
    BoundReport,
    check_admissible,
    empirical_constant,
    fit_exponent,
    integrated_weight_bound,
    linear_weight,
    near_boundary_lower_bound,
    near_boundary_upper_bound,
    planar_gap_bound,
    power_weight,
    ratio_weight_bound,
    refined_excursion_bound,
    sharpness_sweep,
    two_term_gap_bound,
    weight_integral,
)

__version__ = "0.1.0"
