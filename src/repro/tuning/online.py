"""Online auto-tuning: re-tune knobs *while training runs* (§5, §7).

The paper's deployment tunes at the start of training; §7 proposes
"consistently searching for the best values using newly profiled
results".  This module implements that loop on top of a live
:class:`~repro.training.TrainingJob`:

1. train a short *segment* of iterations under the current knobs;
2. measure the segment's speed (the "newly profiled result");
3. feed it to a searcher (BO by default) and apply its next suggestion
   via ``Core.reconfigure`` — broadcast by the master, effective from
   the next iteration's tensors;
4. repeat, then finish training on the best knobs found.

Deployment asymmetry (§5): all-reduce re-tunes live for free; PS
partition changes need a checkpoint-restart, charged per change so the
reported tuning overhead is honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import TuningError
from repro.training.job import TrainingJob
from repro.tuning.searchers import Searcher, make_searcher
from repro.tuning.space import Point, SearchSpace

__all__ = ["OnlineTuner", "OnlineTuningResult", "record_tuning_stats"]

#: Checkpoint-restart cost for a PS partition change (§5 reports ~5-9 s;
#: scaled to the short simulated runs this harness drives).
DEFAULT_RESTART_PENALTY = 5.0

#: After a membership epoch change the tuner burns in at its first
#: anchor, discarding segments until consecutive speeds agree within
#: this tolerance (or the cap is hit) — profiles taken while the
#: post-event transient decays would invert the knob ranking.
SETTLE_TOLERANCE = 0.02
MAX_SETTLE_SEGMENTS = 6

#: Iterations discarded after every ``reconfigure`` before profiling:
#: iterations already in flight when the knobs change still drain
#: under the old configuration, and a 2-3 iteration profile window
#: measured straight away inherits the previous point's backlog —
#: enough to invert the knob ranking.
PIPELINE_FLUSH_ITERATIONS = 2


def record_tuning_stats(
    job: TrainingJob,
    tuner: str,
    *,
    reconfigures: int,
    change_points: int,
    best_point: Point,
    restart_overhead: float,
    timeline: List[Tuple[float, float, Point, float]],
) -> Dict[str, Any]:
    """Attach a tuner's accounting to the job for RunReport/trace.

    ``timeline`` is the tuner's profiled-segment ledger
    ``(t_start, t_end, point, speed)`` in simulated time — the raw
    material for post-hoc regret accounting against an oracle.
    """
    stats: Dict[str, Any] = {
        "tuner": tuner,
        "reconfigures": reconfigures,
        "change_points": change_points,
        "best_partition_bytes": best_point[0],
        "best_credit_bytes": best_point[1],
        "restart_overhead": restart_overhead,
        "profiled_segments": len(timeline),
        "timeline": [
            {
                "start": start,
                "end": end,
                "partition_bytes": point[0],
                "credit_bytes": point[1],
                "speed": speed,
            }
            for start, end, point, speed in timeline
        ],
    }
    job.tuning_stats = stats
    return stats


@dataclass
class OnlineTuningResult:
    """Outcome of an online tuning run."""

    best_point: Point
    best_speed: float
    final_speed: float
    segments: List[Tuple[Point, float]] = field(default_factory=list)
    restart_overhead: float = 0.0
    #: Searcher resets triggered by membership-epoch changes: stale
    #: profiles describe a cluster size that no longer exists.
    change_point_resets: int = 0
    #: Profiled-segment ledger ``(t_start, t_end, point, speed)`` in
    #: simulated time — regret accounting integrates against this.
    timeline: List[Tuple[float, float, Point, float]] = field(
        default_factory=list
    )

    @property
    def num_segments(self) -> int:
        return len(self.segments)


class OnlineTuner:
    """Interleaves training segments with knob search on one job."""

    def __init__(
        self,
        job: TrainingJob,
        space: Optional[SearchSpace] = None,
        method: str = "bo",
        seed: int = 0,
        segment_iterations: int = 3,
        restart_penalty: float = DEFAULT_RESTART_PENALTY,
    ) -> None:
        if segment_iterations < 1:
            raise TuningError("segment_iterations must be >= 1")
        if not job.scheduler.row.tunable:
            raise TuningError(
                f"scheduler {job.scheduler.kind!r} has no partition/credit "
                "knobs the online tuner may drive"
            )
        self.job = job
        self.space = space or SearchSpace()
        self._method = method
        self._seed = seed
        self.searcher: Searcher = make_searcher(method, self.space, seed=seed)
        self.segment_iterations = segment_iterations
        self.restart_penalty = restart_penalty
        self._needs_restart = job.cluster.arch == "ps"
        self._reconfigures = 0

    def _reconfigure(self, partition: float, credit: float) -> None:
        """Apply knobs and leave a breadcrumb in the job's trace."""
        self.job.reconfigure(partition_bytes=partition, credit_bytes=credit)
        self._reconfigures += 1
        self.job.trace.point(
            "tuning.reconfigure", f"p={partition:g},c={credit:g}"
        )

    def _current_point(self) -> Optional[Point]:
        """The knobs the job is running right now, if readable."""
        core = self.job.master_core
        partition = getattr(core, "partition_bytes", None)
        credit = getattr(core, "credit_capacity", None)
        if partition is None or credit is None:
            return None
        return (partition, credit)

    def _train_segment(self, iterations: int) -> bool:
        """Run ``iterations`` more; True when a membership epoch landed
        inside the segment (elastic jobs advance boundary by boundary,
        fixed-membership jobs extend + drain as before)."""
        job = self.job
        if job.membership is not None:
            before = job.membership.epoch
            job.advance(iterations)
            return job.membership.epoch != before
        job.extend(iterations)
        job.drain()
        return False

    def run(self, segments: int = 8, final_iterations: int = 4) -> OnlineTuningResult:
        """Tune over ``segments`` profiling windows, then finish on the
        best knobs and report the final steady speed."""
        if segments < 1:
            raise TuningError("segments must be >= 1")
        job = self.job
        # Warm-up segment under the job's initial knobs.
        epoch_changed = self._train_segment(self.segment_iterations + 1)

        restart_overhead = 0.0
        change_point_resets = 0
        # Seed from the job's *current* partition so the very first
        # differing suggestion is charged the PS restart penalty too.
        last_partition: Optional[float] = getattr(
            job.master_core, "partition_bytes", None
        )
        initial_point = self._current_point()
        last_sample: Optional[Tuple[Point, float]] = None
        pending_anchors: List[Point] = []
        timeline: List[Tuple[float, float, Point, float]] = []
        for _ in range(segments):
            if epoch_changed:
                job.trace.point("tuning.change_point", "membership-epoch")
                # Change-point reset: every profile the searcher holds
                # was measured on a cluster size that no longer exists,
                # and old profiles *rank* points wrongly at the new
                # scale.  Discard them, but re-profile both incumbents
                # — the knobs running right now and the pre-reset
                # argmax location — so the fresh search starts from the
                # best priors instead of from scratch.
                change_point_resets += 1
                history = self.searcher.history
                best_prev = (
                    max(history, key=lambda sample: sample[1])[0]
                    if history
                    else None
                )
                anchors: List[Point] = []
                for candidate in (
                    self._current_point(),
                    best_prev,
                    initial_point,
                ):
                    if candidate is None:
                        continue
                    clipped = self.space.clip(candidate)
                    if clipped not in anchors:
                        anchors.append(clipped)
                self.searcher = make_searcher(
                    self._method,
                    self.space,
                    seed=self._seed + change_point_resets,
                )
                if anchors:
                    # Settle before profiling: right after a scale
                    # event the job is still paying membership
                    # transients (state sync, pipeline refill) that
                    # decay over several iterations and would credit
                    # whichever knobs happen to run later.  Hold the
                    # first anchor and discard segments until the
                    # measured speed stabilises.
                    partition, credit = anchors[0]
                    if (
                        self._needs_restart
                        and last_partition is not None
                        and partition != last_partition
                    ):
                        restart_overhead += self.restart_penalty
                    last_partition = partition
                    self._reconfigure(partition, credit)
                    pending_anchors = anchors
                    previous = None
                    for _settle in range(MAX_SETTLE_SEGMENTS):
                        start = job._built_iterations
                        t0 = job.env.now
                        epoch_changed = self._train_segment(
                            self.segment_iterations
                        )
                        if job._built_iterations <= start or epoch_changed:
                            break
                        speed = job.segment_speed(
                            start, job._built_iterations
                        )
                        timeline.append(
                            (t0, job.env.now, (partition, credit), speed)
                        )
                        if (
                            previous is not None
                            and abs(speed - previous)
                            <= SETTLE_TOLERANCE * previous
                        ):
                            break
                        previous = speed
                    continue
            if pending_anchors:
                partition, credit = pending_anchors.pop(0)
            else:
                partition, credit = self.space.clip(self.searcher.suggest())
            if (
                self._needs_restart
                and last_partition is not None
                and partition != last_partition
            ):
                restart_overhead += self.restart_penalty
            last_partition = partition
            self._reconfigure(partition, credit)
            # Flush before profiling so the window measures only the
            # new knobs, not the previous point's in-flight backlog.
            epoch_changed = self._train_segment(PIPELINE_FLUSH_ITERATIONS)
            if epoch_changed:
                continue
            start = job._built_iterations
            t0 = job.env.now
            epoch_changed = self._train_segment(self.segment_iterations)
            if job._built_iterations <= start:
                break  # parked below min_workers: no profile to take
            speed = job.segment_speed(start, job._built_iterations)
            timeline.append((t0, job.env.now, (partition, credit), speed))
            last_sample = ((partition, credit), speed)
            if epoch_changed:
                continue  # segment straddles a scale event: skip it
            self.searcher.observe((partition, credit), speed)

        if not self.searcher.history:
            if last_sample is None:
                raise TuningError(
                    "no tuning segment completed (job parked immediately)"
                )
            # Every segment straddled a scale event; keep the freshest.
            self.searcher.observe(*last_sample)
        best_point, best_speed = self.searcher.best()
        self._reconfigure(best_point[0], best_point[1])
        self._train_segment(PIPELINE_FLUSH_ITERATIONS)
        start = job._built_iterations
        t0 = job.env.now
        self._train_segment(final_iterations)
        if job._built_iterations <= start:
            raise TuningError("job parked before the final measurement")
        final_speed = job.segment_speed(start, job._built_iterations)
        timeline.append((t0, job.env.now, best_point, final_speed))
        record_tuning_stats(
            job,
            "online",
            reconfigures=self._reconfigures,
            change_points=change_point_resets,
            best_point=best_point,
            restart_overhead=restart_overhead,
            timeline=timeline,
        )
        return OnlineTuningResult(
            best_point=best_point,
            best_speed=best_speed,
            final_speed=final_speed,
            segments=list(self.searcher.history),
            restart_overhead=restart_overhead,
            change_point_resets=change_point_resets,
            timeline=timeline,
        )
