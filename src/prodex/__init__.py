"""prodex: certified expectations under infinite product measures.

Computes enclosures of E[f] for bounded tail-structured functions under
product (and hybrid product/Dirac) measures on countable products of
finite coordinate spaces, and constructs the two kinds of approximation
certificates: the smallest index where pinning a sampled point's tail
reproduces E[f] within epsilon, and a single-coordinate mixing measure
reproducing E[f] exactly.
"""

from .engine import (
    ExpectationResult,
    exact_expectation_product_indicator,
    expect,
    osc_bound,
)
from .errors import ProdexError
from .functions import (
    Cylinder,
    DiscountedSum,
    GeometricWeights,
    ProductIndicator,
    TailFunction,
    cylinder_sum,
    eval_function,
)
from .games import (
    FinitisticProfile,
    GameSpec,
    best_response_value,
    naming_game_exploit,
    naming_game_value,
    purify,
)
from .harness import VerificationReport, verify_strong, verify_weak
from .martingale import (
    MartingaleTrace,
    StrongApproxResult,
    find_strong_approx,
    g_n,
    trace,
)
from .model import (
    ConstantMeasureTail,
    ConstantSymbol,
    CoordinateMeasure,
    CoordinateSpace,
    DescribedPoint,
    HybridMeasure,
    LazyPoint,
    PeriodicMeasuresTail,
    PeriodicSymbols,
    PointSpec,
    ProductMeasure,
    SpaceFamily,
    agreement_index,
    bernoulli_measure,
    constant_point,
    dirac_measure,
    formula_tail,
    modify_point,
    point_coordinate,
    resolve_coordinate_measure,
    uniform_measure,
)
from .numeric import Interval, ValueBounds, as_fraction
from .scenario import Scenario, load_scenario, parse_scenario
from .tailclass import (
    ClassVerdict,
    HullEstimate,
    WeakApproxCertificate,
    classify,
    construct_weak_zero,
    hull_estimate,
    weak_zero_from_sample,
)

__version__ = "0.1.0"
