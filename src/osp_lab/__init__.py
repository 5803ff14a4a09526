"""Online saddle-point optimization lab.

Algorithms for the online saddle-point problem (follow-the-leader variants,
gradient descent-ascent), online matrix games with full and bandit feedback,
and budget-constrained online convex optimization, together with the regret
metrics and seeded experiment harness used to validate their guarantees.
"""

from .geometry import Box, FeasibleSet, Simplex
from .knapsack import (
    KnapsackEnvironment,
    KnapsackInstance,
    PDRFTL,
    SPFTLKnapsackAgent,
    benchmark_r_star,
    knapsack_regret,
    sec82_instance,
)
from .matrix_games import (
    BanditOMGRFTL,
    EntropyRegularizer,
    OMGRFTL,
    one_point_estimate,
    sample_from_distribution,
)
from .metrics_harness import (
    AlgorithmSpec,
    ScenarioSpec,
    generate_scenario,
    run_experiment,
)
from .osp_algorithms import OGDA, SPFTL, SPRFTL
from .payoffs import (
    BilinearPayoff,
    PayoffFunction,
    SquaredNormRegularizer,
    SumPayoff,
    make_bilinear,
    make_quadratic_bilinear,
    regularize,
)
from .saddle_solver import (
    SaddleSolution,
    SolverConfig,
    gap_estimate,
    solve_matrix_game_2x2,
    solve_saddle,
)

__version__ = "0.1.0"
