"""Covariance-series conditions for Marcinkiewicz-Zygmund strong laws under
pairwise positive quadrant dependence: closed forms, independent numerical
oracles, Borel-Cantelli proof-machinery diagnostics, and seeded Monte Carlo.
"""

__version__ = "0.1.0"

from .borel_cantelli import (
    BracketCheck,
    EventSystem,
    epsilon_bracket_check,
    event_prob,
    pair_event_prob,
    renyi_lamperti_ratios,
)
from .conditions import (
    CONVERGES,
    DIVERGES,
    MajorantBound,
    SeriesVerdict,
    condition_terms,
    decay_exponent,
    majorant_sum,
    tail_condition,
    verdict_from_terms,
)
from .copulas import GfmCopula, PowerSchedule
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
    factor_differences,
    g_closed_bracket,
    g_closed_form,
    g_factor,
    g_numeric,
)
from .marginals import ParetoMarginal
from .quadrature import QuadSpec, adaptive_quad_2d_many, adaptive_quad_many
from .simulate import (
    DEFAULT_WINDOW,
    EXACT_DIMENSION_CAP,
    MultivariateFgmModel,
    PathReport,
    SlnnRun,
    replicate_rng,
    run_slln,
)
from .specfun import HypergeometricArgs, gamma, gauss_2f1, pochhammer
