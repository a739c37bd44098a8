"""Search strategies over (partition, credit): BO and the §6.3 baselines.

All searchers share one ask/tell interface:

* ``suggest()`` returns the next configuration to profile (bytes);
* ``observe(point, speed)`` reports the measured training speed.

The four strategies are the ones Figure 14 compares: Bayesian
Optimization with Expected Improvement (the paper's choice), grid
search, random search, and SGD with momentum (restarted when stuck, as
described in §6.3).
"""

from __future__ import annotations

import abc
import math
import random
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import TuningError
from repro.tuning.gp import GaussianProcess
from repro.tuning.space import Point, SearchSpace

__all__ = [
    "Searcher",
    "BayesianOptimizer",
    "GridSearch",
    "RandomSearch",
    "SGDMomentumSearch",
    "expected_improvement",
    "make_searcher",
]

_SQRT_HALF = math.sqrt(0.5)


def _ndtr(z: float) -> float:
    """Standard normal CDF with Cephes ``ndtr``'s branch split: erf near
    zero, erfc in the tails so they keep their relative precision."""
    x = z * _SQRT_HALF
    if abs(x) < _SQRT_HALF:
        return 0.5 + 0.5 * math.erf(x)
    tail = 0.5 * math.erfc(abs(x))
    return 1.0 - tail if x > 0 else tail


_norm_cdf = np.vectorize(_ndtr, otypes=[float])


def expected_improvement(improvement: np.ndarray, std: np.ndarray) -> np.ndarray:
    """EI of candidates whose posterior beats the incumbent by
    ``improvement`` (already net of any exploration margin) with
    posterior standard deviation ``std``."""
    z = improvement / std
    pdf = np.exp(-z * z / 2.0) / np.sqrt(2 * np.pi)
    return improvement * _norm_cdf(z) + std * pdf


class Searcher(abc.ABC):
    """Ask/tell interface for knob search."""

    def __init__(self, space: SearchSpace) -> None:
        self.space = space
        self.history: List[Tuple[Point, float]] = []

    @abc.abstractmethod
    def suggest(self) -> Point:
        """The next (partition_bytes, credit_bytes) to try."""

    def observe(self, point: Point, speed: float) -> None:
        """Record a profiled configuration."""
        self.history.append((point, speed))

    @property
    def trials(self) -> int:
        """Number of configurations profiled so far."""
        return len(self.history)

    def best(self) -> Tuple[Point, float]:
        """Best configuration seen."""
        if not self.history:
            raise TuningError("no observations yet")
        return max(self.history, key=lambda entry: entry[1])


class BayesianOptimizer(Searcher):
    """GP surrogate + Expected Improvement acquisition (§4.3).

    The first ``bootstrap`` suggestions are space-filling (corners plus
    the centre, then random); afterwards each suggestion maximises EI
    over a random candidate set.  ``xi`` is the paper's EI
    exploration/exploitation hyper-parameter (default 0.1).
    """

    def __init__(
        self,
        space: SearchSpace,
        seed: int = 0,
        xi: float = 0.1,
        bootstrap: int = 4,
        candidates: int = 512,
    ) -> None:
        super().__init__(space)
        self._rng = random.Random(seed)
        self.xi = xi
        self.bootstrap = max(2, bootstrap)
        self.candidates = candidates
        self._seed_points = [
            (0.25, 0.35),
            (0.75, 0.65),
            (0.5, 0.5),
            (0.1, 0.85),
        ]

    def suggest(self) -> Point:
        if self.trials < self.bootstrap:
            if self.trials < len(self._seed_points):
                return self.space.from_unit(self._seed_points[self.trials])
            return self.space.sample(self._rng)
        gp = self._fit()
        units = np.array(
            [[self._rng.random(), self._rng.random()] for _ in range(self.candidates)]
        )
        ei = self._expected_improvement(gp, units)
        best_index = int(np.argmax(ei))
        return self.space.from_unit(tuple(units[best_index]))

    def _fit(self) -> GaussianProcess:
        x = np.array([self.space.to_unit(point) for point, _ in self.history])
        y = np.array([speed for _, speed in self.history])
        return GaussianProcess().fit(x, y)

    def _expected_improvement(
        self, gp: GaussianProcess, units: np.ndarray
    ) -> np.ndarray:
        mean, std = gp.predict(units)
        best = max(speed for _, speed in self.history)
        spread = float(np.std([speed for _, speed in self.history])) or 1.0
        return expected_improvement(mean - best - self.xi * spread, std)

    def posterior(self, units: np.ndarray):
        """(mean, std) of the current surrogate — used by Figure 9."""
        return self._fit().predict(units)


class GridSearch(Searcher):
    """Exhaustive log-uniform grid, visited in order."""

    def __init__(self, space: SearchSpace, resolution: int = 8) -> None:
        super().__init__(space)
        self._points = space.grid(resolution)
        self._cursor = 0

    def suggest(self) -> Point:
        if self._cursor >= len(self._points):
            raise TuningError("grid exhausted")
        point = self._points[self._cursor]
        self._cursor += 1
        return point

    @property
    def remaining(self) -> int:
        return len(self._points) - self._cursor


class RandomSearch(Searcher):
    """Uniform (in log space) random probing."""

    def __init__(self, space: SearchSpace, seed: int = 0) -> None:
        super().__init__(space)
        self._rng = random.Random(seed)

    def suggest(self) -> Point:
        return self.space.sample(self._rng)


class SGDMomentumSearch(Searcher):
    """Coordinate finite-difference ascent with momentum (§6.3).

    The gradient is approximated from probe evaluations, which makes the
    search noisy and prone to local optima; following the paper, the
    search restarts from a random point when an update stops improving.
    """

    def __init__(
        self,
        space: SearchSpace,
        seed: int = 0,
        learning_rate: float = 0.3,
        momentum: float = 0.7,
        probe_step: float = 0.08,
        patience: int = 3,
    ) -> None:
        super().__init__(space)
        self._rng = random.Random(seed)
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.probe_step = probe_step
        self.patience = patience
        self._position = np.array([self._rng.random(), self._rng.random()])
        self._velocity = np.zeros(2)
        self._phase = 0  # 0: evaluate here; 1: probe dim 0; 2: probe dim 1
        self._f_here: Optional[float] = None
        self._f_probe0: Optional[float] = None
        self._stale = 0
        self._best_seen = -math.inf

    def suggest(self) -> Point:
        if self._phase == 0:
            unit = self._position
        elif self._phase == 1:
            unit = self._position + np.array([self.probe_step, 0.0])
        else:
            unit = self._position + np.array([0.0, self.probe_step])
        return self.space.from_unit((float(unit[0]), float(unit[1])))

    def observe(self, point: Point, speed: float) -> None:
        super().observe(point, speed)
        if self._phase == 0:
            self._f_here = speed
            self._phase = 1
            if speed > self._best_seen + 1e-9:
                self._best_seen = speed
                self._stale = 0
            else:
                self._stale += 1
                if self._stale >= self.patience:
                    self._restart()
        elif self._phase == 1:
            self._f_probe0 = speed
            self._phase = 2
        else:
            gradient = np.array(
                [
                    (self._f_probe0 - self._f_here) / self.probe_step,
                    (speed - self._f_here) / self.probe_step,
                ]
            )
            scale = max(abs(self._f_here), 1e-9)
            self._velocity = (
                self.momentum * self._velocity
                + self.learning_rate * gradient / scale
            )
            self._position = np.clip(self._position + self._velocity, 0.0, 1.0)
            self._phase = 0

    def _restart(self) -> None:
        self._position = np.array([self._rng.random(), self._rng.random()])
        self._velocity = np.zeros(2)
        self._stale = 0


def make_searcher(method: str, space: SearchSpace, seed: int = 0) -> Searcher:
    """Build a searcher by name ('bo', 'grid', 'random', 'sgd')."""
    if method == "bo":
        return BayesianOptimizer(space, seed=seed)
    if method == "grid":
        return GridSearch(space)
    if method == "random":
        return RandomSearch(space, seed=seed)
    if method == "sgd":
        return SGDMomentumSearch(space, seed=seed)
    raise TuningError(f"unknown search method {method!r}")
