"""Figure 9: a Bayesian Optimization search trace.

Tuning the credit size for VGG16 on MXNet all-reduce: a handful of
profiled samples, the GP posterior mean ("Prediction") and its 95%
confidence interval over the credit axis.  This is the illustration of
§4.3's surrogate-model machinery.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.experiments.knobs import tuned_knobs
from repro.training import SchedulerSpec, run_experiment
from repro.training.cluster import ClusterSpec
from repro.tuning import GaussianProcess, expected_improvement
from repro.units import MB

__all__ = ["Figure9Result", "run", "format_result"]


@dataclass
class Figure9Result:
    """Samples plus the fitted posterior over the credit axis."""

    sample_credits: List[float] = field(default_factory=list)
    sample_speeds: List[float] = field(default_factory=list)
    grid_credits: List[float] = field(default_factory=list)
    posterior_mean: List[float] = field(default_factory=list)
    ci_low: List[float] = field(default_factory=list)
    ci_high: List[float] = field(default_factory=list)

    @property
    def best_credit(self) -> float:
        index = self.sample_speeds.index(max(self.sample_speeds))
        return self.sample_credits[index]


def run(
    model: str = "vgg16",
    machines: int = 4,
    samples: int = 7,
    credit_min: float = 8 * MB,
    credit_max: float = 320 * MB,
    measure: int = 2,
    seed: int = 0,
    xi: float = 0.1,
) -> Figure9Result:
    """Run a 1-D BO trace over credit size (partition fixed at its tuned
    value), mirroring the 7-sample trace of Figure 9."""
    cluster = ClusterSpec(
        machines=machines, arch="allreduce", transport="rdma", framework="mxnet"
    )
    partition, _credit = tuned_knobs(model, "allreduce", "rdma")
    rng = random.Random(seed)
    log_low, log_high = math.log2(credit_min), math.log2(credit_max)

    def profile(credit: float) -> float:
        spec = SchedulerSpec(
            kind="bytescheduler", partition_bytes=partition, credit_bytes=credit
        )
        return run_experiment(model, cluster, spec, measure=measure, warmup=1).speed

    def to_unit(credit: float) -> float:
        return (math.log2(credit) - log_low) / (log_high - log_low)

    def from_unit(unit: float) -> float:
        return 2 ** (log_low + min(max(unit, 0.0), 1.0) * (log_high - log_low))

    observed: List[Tuple[float, float]] = []
    for trial in range(samples):
        if trial < 2:
            unit = (0.2, 0.8)[trial]
        else:
            gp = GaussianProcess(length_scale=0.3).fit(
                np.array([[to_unit(c)] for c, _ in observed]),
                np.array([s for _, s in observed]),
            )
            candidates = np.array([[rng.random()] for _ in range(256)])
            mean, std = gp.predict(candidates)
            best = max(s for _, s in observed)
            spread = float(np.std([s for _, s in observed])) or 1.0
            ei = expected_improvement(mean - best - xi * spread, std)
            unit = float(candidates[int(np.argmax(ei))][0])
        credit = from_unit(unit)
        observed.append((credit, profile(credit)))

    gp = GaussianProcess(length_scale=0.3).fit(
        np.array([[to_unit(c)] for c, _ in observed]),
        np.array([s for _, s in observed]),
    )
    grid_units = np.linspace(0.0, 1.0, 64)[:, None]
    mean, _std = gp.predict(grid_units)
    low, high = gp.confidence_interval(grid_units)
    return Figure9Result(
        sample_credits=[c for c, _ in observed],
        sample_speeds=[s for _, s in observed],
        grid_credits=[from_unit(float(u[0])) for u in grid_units],
        posterior_mean=list(mean),
        ci_low=list(low),
        ci_high=list(high),
    )


def format_result(result: Figure9Result) -> str:
    lines = [
        "Figure 9: BO search over credit size (VGG16, MXNet all-reduce)",
        f"{'trial':>5}  {'credit (MB)':>12}  {'speed (img/s)':>14}",
    ]
    for index, (credit, speed) in enumerate(
        zip(result.sample_credits, result.sample_speeds), start=1
    ):
        lines.append(f"{index:>5}  {credit / MB:>12.1f}  {speed:>14,.0f}")
    lines.append(
        f"best sampled credit: {result.best_credit / MB:.1f} MB; posterior "
        f"has {len(result.grid_credits)} grid points with a 95% CI band"
    )
    return "\n".join(lines)
