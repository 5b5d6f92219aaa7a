"""Mixed-autonomy Stackelberg routing games on directed networks.

Solves system-optimal and induced-Nash flows for two-class (autonomous /
human) affine-latency routing games, plays the SCALE leader strategy, and
evaluates the closed-form price-of-anarchy upper bounds against empirical
outcomes.
"""

from .bounds import (
    AlphaThresholds,
    BoundResult,
    LambdaThresholds,
    Region,
    alpha_thresholds,
    beta_bound,
    beta_bound_relaxed,
    classify_region,
    delta,
    feasible_lambda_interval,
    lambda_thresholds,
    omega,
    omega1,
    omega1_sup,
    omega2,
    poa_bound,
    poa_bound_selfish,
    poa_bound_single_class,
    poa_from_lambda,
)
from .errors import DomainError, NotConverged, ScalerouteError, ValidationError
from .game import LinkMeasurement, StackelbergOutcome, measure_links, play, scale_strategy
from .harness import (
    BatchConfig,
    CurveTable,
    OracleConfig,
    ShapeConfig,
    VerificationReport,
    VerificationRow,
    curve_tables,
    is_parallel_link,
    oracle_nash,
    random_instance,
    report_to_csv,
    verify_bounds,
)
from .model import (
    ClassFlow,
    GameInstance,
    Link,
    ODPair,
    Path,
    PathSet,
    build_instance,
    enumerate_paths,
    load_instance,
    min_asymmetry,
    network_autonomy_fraction,
    social_cost,
    validate_instance,
)
from .solvers import (
    EquilibriumResult,
    SolverConfig,
    follower_equilibrium,
    system_optimal,
    wardrop_gap,
)

__version__ = "0.1.0"
