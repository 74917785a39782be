"""panelot: quota-constrained panel selection with maximally equal lotteries."""

from .adversary import (
    ManipReport,
    Misreport,
    apply_misreport,
    drop_features,
    make_lb_instance,
    manip_metric_exhaustive,
    mu_vector,
    worst_mu_manipulator,
)
from .errors import PanelotError
from .model import (
    FeatureScheme,
    Instance,
    duplicate_pool,
    load_instance,
    save_instance,
)
from .objectives import (
    EqualityObjective,
    Kind,
    evaluate,
    gamma_balanced,
    gamma_selection_bias,
    gamma_star,
    gini,
    parse_objective,
)
from .panels import (
    CompositionDistribution,
    Panel,
    PanelComposition,
    ProbabilityAssignment,
    composition_oracle,
    covering_compositions,
    feasible_compositions,
    strip_self_excluders,
    structurally_excluded,
)
from .rounding import UniformLottery, lottery_marginals, pipage_round, rounding_bounds
from .solver import (
    SolveConfig,
    SolveResult,
    approximation_ratios,
    deviation_delta,
    solve,
    solve_legacy,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
