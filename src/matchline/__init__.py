"""matchline: a simulation and verification lab for online matching on a line.

Servers sit at the integers 1..n of the segment [0, n+1] with n = 2**i - 1.
A randomized request sequence arrives over i rounds; round r splits the
segment into (n+1)/2**r cells and draws one request uniformly in each cell.
The package provides the request generator, online matching algorithms, the
exact offline optimum, and exact/statistical checkers for the distribution's
cost guarantees, including the competitive-ratio floor sqrt(log2(n+1))/12.

The names below are the ones README.md documents; everything else is
reached through its module.
"""

from matchline.adversary import GenParams, generate
from matchline.experiments import ExperimentConfig, run_suite
from matchline.lemma_checks import (
    RoundConfig,
    lemma1_distance_mc,
    lemma1_exact,
    lemma2_config_property,
)
from matchline.oracle import exact_round_game_value

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "GenParams",
    "RoundConfig",
    "exact_round_game_value",
    "generate",
    "lemma1_distance_mc",
    "lemma1_exact",
    "lemma2_config_property",
    "run_suite",
]
