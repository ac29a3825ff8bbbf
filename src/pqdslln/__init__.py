"""Covariance-series conditions for Marcinkiewicz-Zygmund strong laws under
pairwise positive quadrant dependence: closed forms, independent numerical
oracles, Borel-Cantelli proof-machinery diagnostics, and seeded Monte Carlo.
"""

__version__ = "0.1.0"

from .borel_cantelli import (
    BracketCheck,
    EventSystem,
    GfmDependence,
    ScaledTailRatio,
    epsilon_bracket_check,
    event_prob,
    event_probs,
    pair_event_prob,
    renyi_lamperti_ratio,
    renyi_lamperti_ratios,
    scaled_tail_ratio,
)
from .conditions import (
    CONVERGES,
    DIVERGES,
    INCONCLUSIVE,
    MajorantBound,
    SeriesVerdict,
    classify_series,
    condition_sum,
    condition_terms,
    majorant_sum,
    tail_condition,
    verdict_from_terms,
)
from .copulas import (
    FunctionDescriptor,
    GfmCopula,
    PerturbationCopula,
    ThetaSchedule,
    pqd_grid_check,
    sample_pairs,
    theta_admissible_bound,
)
from .errors import (
    DomainError,
    Error,
    NumericError,
    ParameterError,
    QuadratureError,
    UndefinedRatioError,
)
from .gfun import (
    DeltaField,
    bracket_limit,
    g_closed_bracket,
    g_closed_form,
    g_factor,
    g_factor_many,
    g_numeric,
    g_numeric_many,
)
from .marginals import Marginal, ParetoMarginal
from .quadrature import QuadSpec, adaptive_quad, adaptive_quad_2d, adaptive_quad_2d_many, adaptive_quad_many
from .simulate import (
    DEFAULT_WINDOW,
    EXACT_DIMENSION_CAP,
    MultivariateFgmModel,
    PathReport,
    SlnnRun,
    count_exceedances,
    replicate_rng,
    run_slln,
    sample_uniform_paths,
)
from .specfun import HypergeometricArgs, gamma, gauss_2f1, pochhammer
