"""matchline: a simulation and verification lab for online matching on a line.

Servers sit at the integers 1..n of the segment [0, n+1] with n = 2**i - 1.
A randomized request sequence arrives over i rounds; round r splits the
segment into (n+1)/2**r cells and draws one request uniformly in each cell.
The package provides the request generator, online matching algorithms, the
exact offline optimum, and exact/statistical checkers for the distribution's
cost guarantees, including the competitive-ratio floor sqrt(log2(n+1))/12.
"""

from matchline.adversary import GenParams, Instance, generate
from matchline.algorithms import ALGORITHM_KINDS, RunStats, run
from matchline.experiments import ExperimentConfig, SuiteResult, run_suite
from matchline.geometry import Coord
from matchline.lemma_checks import (
    LemmaReport,
    RoundConfig,
    config_lower_bound,
    lemma1_distance_mc,
    lemma1_exact,
    lemma2_config_property,
    render_reports,
)
from matchline.offline import Assignment, sorted_matching_cost
from matchline.oracle import exact_round_game_value, oracle_report

__version__ = "0.1.0"

__all__ = [
    "ALGORITHM_KINDS",
    "Assignment",
    "Coord",
    "ExperimentConfig",
    "GenParams",
    "Instance",
    "LemmaReport",
    "RoundConfig",
    "RunStats",
    "SuiteResult",
    "config_lower_bound",
    "exact_round_game_value",
    "generate",
    "lemma1_distance_mc",
    "lemma1_exact",
    "lemma2_config_property",
    "oracle_report",
    "render_reports",
    "run",
    "run_suite",
    "sorted_matching_cost",
    "__version__",
]
