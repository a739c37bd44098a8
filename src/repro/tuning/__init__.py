"""Auto-tuning of partition and credit sizes (Bayesian Optimization)."""

from repro.tuning.adaptive import AdaptiveTuner, PageHinkley
from repro.tuning.autotuner import AutoTuner, TuningResult, simulated_objective
from repro.tuning.gp import GaussianProcess
from repro.tuning.online import LiveTuner, LiveTuningResult, OnlineTuner
from repro.tuning.searchers import (
    BayesianOptimizer,
    GridSearch,
    RandomSearch,
    Searcher,
    SGDMomentumSearch,
    expected_improvement,
    make_searcher,
)
from repro.tuning.space import Point, SearchSpace

__all__ = [
    "SearchSpace",
    "Point",
    "GaussianProcess",
    "Searcher",
    "BayesianOptimizer",
    "GridSearch",
    "RandomSearch",
    "SGDMomentumSearch",
    "expected_improvement",
    "make_searcher",
    "AdaptiveTuner",
    "AutoTuner",
    "LiveTuner",
    "LiveTuningResult",
    "OnlineTuner",
    "PageHinkley",
    "TuningResult",
    "simulated_objective",
]
