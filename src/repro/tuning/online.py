"""Online auto-tuning: re-tune knobs *while training runs* (§5, §7).

The paper's deployment tunes at the start of training; §7 proposes
"consistently searching for the best values using newly profiled
results".  This module implements that loop on top of a live
:class:`~repro.training.TrainingJob`:

1. train a short *segment* of iterations under the current knobs;
2. measure the segment's speed (the "newly profiled result");
3. feed it to BO and apply its next suggestion via ``Core.reconfigure``
   — broadcast by the master, effective from the next iteration's
   tensors;
4. repeat, then finish training on the best knobs found.

Deployment asymmetry (§5): all-reduce re-tunes live for free; PS
partition changes need a checkpoint-restart, charged per change so the
reported tuning overhead is honest.

:class:`LiveTuner` holds the segment, reconfigure and ledger machinery
that :class:`OnlineTuner` (global BO, for stationary runs) and
:class:`~repro.tuning.adaptive.AdaptiveTuner` (local tracking, for
drift) share; each keeps only its search policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import TuningError
from repro.training.job import TrainingJob
from repro.tuning.searchers import BayesianOptimizer
from repro.tuning.space import Point, SearchSpace

__all__ = ["LiveTuner", "LiveTuningResult", "OnlineTuner"]

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


@dataclass
class LiveTuningResult:
    """Outcome of a live tuning run (online or adaptive)."""

    tuner: str
    best_point: Point
    final_speed: float
    #: Membership-epoch resets, plus Page-Hinkley alarms (adaptive).
    change_points: int = 0
    reconfigures: int = 0
    #: Neighbour probes (adaptive; always 0 for online).
    probes: int = 0
    restart_overhead: float = 0.0
    #: The ``(point, speed)`` samples the search policy acted on.
    segments: List[Tuple[Point, float]] = field(default_factory=list)
    #: Profiled-segment ledger ``(t_start, t_end, point, speed)`` in
    #: simulated time — the raw material for post-hoc regret accounting
    #: against an oracle.
    timeline: List[Tuple[float, float, Point, float]] = field(
        default_factory=list
    )

    @property
    def num_segments(self) -> int:
        return len(self.segments)

    def stats(self) -> Dict[str, Any]:
        """The accounting dict RunReport's ``tuning`` section carries."""
        return {
            "tuner": self.tuner,
            "reconfigures": self.reconfigures,
            "change_points": self.change_points,
            "best_partition_bytes": self.best_point[0],
            "best_credit_bytes": self.best_point[1],
            "restart_overhead": self.restart_overhead,
            "profiled_segments": len(self.timeline),
            "timeline": [
                {
                    "start": start,
                    "end": end,
                    "partition_bytes": point[0],
                    "credit_bytes": point[1],
                    "speed": speed,
                }
                for start, end, point, speed in self.timeline
            ],
        }


class LiveTuner:
    """Segment, reconfigure and ledger machinery shared by the live
    tuners; a subclass's ``run`` supplies only the search policy.

    A run is ``_start`` (warm-up), then any mix of ``_switch_to`` /
    ``_reconfigure`` and ``_measure``, then ``_finish`` on the chosen
    knobs.  Deployment asymmetry (§5): PS partition changes need a
    checkpoint-restart, charged per change in ``_reconfigure``;
    all-reduce re-tunes for free.
    """

    #: Set by each subclass; recorded as ``job.tuning_stats["tuner"]``.
    name: str

    def __init__(
        self,
        job: TrainingJob,
        space: Optional[SearchSpace],
        segment_iterations: int,
        restart_penalty: float,
    ) -> None:
        if segment_iterations < 1:
            raise TuningError("segment_iterations must be >= 1")
        if not job.scheduler.row.tunable:
            raise TuningError(
                f"scheduler {job.scheduler.kind!r} has no partition/credit "
                f"knobs the {self.name} tuner may drive"
            )
        self.job = job
        self.space = space or SearchSpace()
        self.segment_iterations = segment_iterations
        self.restart_penalty = restart_penalty
        self._needs_restart = job.cluster.arch == "ps"

    def _start(self, segments: int) -> bool:
        """Open the run's ledger and train the warm-up segment under the
        job's initial knobs; True when a membership epoch landed in it."""
        if segments < 1:
            raise TuningError("segments must be >= 1")
        self.timeline: List[Tuple[float, float, Point, float]] = []
        self._reconfigures = 0
        self._restart_overhead = 0.0
        # Seed from the job's *current* partition so the very first
        # differing point is charged the PS restart penalty too.
        self._last_partition: Optional[float] = getattr(
            self.job.master_core, "partition_bytes", None
        )
        return self._train_segment(self.segment_iterations + 1)

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
        inside.  :meth:`TrainingJob.advance` — unlike an extend + drain
        barrier — leaves trailing communication in flight across segment
        boundaries: draining between short segments would insert a
        pipeline bubble into every control segment and depress every
        measurement by the refill cost."""
        job = self.job
        before = job.membership.epoch if job.membership is not None else None
        job.advance(iterations)
        return job.membership is not None and job.membership.epoch != before

    def _reconfigure(self, point: Point) -> None:
        """Apply knobs, charge a PS restart if the partition moved, and
        leave a breadcrumb in the job's trace."""
        partition, credit = point
        if (
            self._needs_restart
            and self._last_partition is not None
            and partition != self._last_partition
        ):
            self._restart_overhead += self.restart_penalty
        self._last_partition = partition
        self.job.reconfigure(partition_bytes=partition, credit_bytes=credit)
        self._reconfigures += 1
        self.job.trace.point(
            "tuning.reconfigure", f"p={partition:g},c={credit:g}"
        )

    def _switch_to(self, point: Point) -> bool:
        """Reconfigure, then flush so the next profile measures only the
        new knobs, not the previous point's in-flight backlog; True when
        a membership epoch landed in the flush."""
        self._reconfigure(point)
        return self._train_segment(PIPELINE_FLUSH_ITERATIONS)

    def _measure(
        self, point: Point, iterations: int
    ) -> Tuple[Optional[float], bool]:
        """Train one segment at ``point`` and add it to the ledger.

        Returns ``(speed, epoch_changed)``; speed is None when the job
        parked below ``min_workers`` and built no iteration.
        """
        job = self.job
        start = job._built_iterations
        t0 = job.env.now
        epoch_changed = self._train_segment(iterations)
        if job._built_iterations <= start:
            return None, epoch_changed
        speed = job.segment_speed(start, job._built_iterations)
        self.timeline.append((t0, job.env.now, point, speed))
        return speed, epoch_changed

    def _finish(
        self,
        point: Point,
        final_iterations: int,
        *,
        change_points: int,
        segments: List[Tuple[Point, float]],
        probes: int = 0,
    ) -> LiveTuningResult:
        """Flush, measure the final steady speed on ``point`` (already
        applied), and record the run's accounting on the job."""
        self._train_segment(PIPELINE_FLUSH_ITERATIONS)
        final_speed, _ = self._measure(point, final_iterations)
        if final_speed is None:
            raise TuningError("job parked before the final measurement")
        result = LiveTuningResult(
            tuner=self.name,
            best_point=point,
            final_speed=final_speed,
            change_points=change_points,
            reconfigures=self._reconfigures,
            probes=probes,
            restart_overhead=self._restart_overhead,
            segments=segments,
            timeline=self.timeline,
        )
        self.job.tuning_stats = result.stats()
        return result


class OnlineTuner(LiveTuner):
    """Interleaves training segments with BO knob search on one job."""

    name = "online"

    def __init__(
        self,
        job: TrainingJob,
        space: Optional[SearchSpace] = None,
        seed: int = 0,
        segment_iterations: int = 3,
        restart_penalty: float = DEFAULT_RESTART_PENALTY,
    ) -> None:
        super().__init__(job, space, segment_iterations, restart_penalty)
        self._seed = seed
        self.searcher = BayesianOptimizer(self.space, seed=seed)

    def _train_segment(self, iterations: int) -> bool:
        """Fixed-membership jobs extend + drain (elastic jobs advance
        boundary by boundary, as in the base)."""
        if self.job.membership is not None:
            return super()._train_segment(iterations)
        self.job.extend(iterations)
        self.job.drain()
        return False

    def run(self, segments: int = 8, final_iterations: int = 4) -> LiveTuningResult:
        """Tune over ``segments`` profiling windows, then finish on the
        best knobs and report the final steady speed."""
        epoch_changed = self._start(segments)
        change_points = 0
        initial_point = self._current_point()
        last_sample: Optional[Tuple[Point, float]] = None
        pending_anchors: List[Point] = []
        for _ in range(segments):
            if epoch_changed:
                self.job.trace.point("tuning.change_point", "membership-epoch")
                # Change-point reset: every profile the searcher holds
                # was measured on a cluster size that no longer exists,
                # and old profiles *rank* points wrongly at the new
                # scale.  Discard them, but re-profile both incumbents
                # — the knobs running right now and the pre-reset
                # argmax location — so the fresh search starts from the
                # best priors instead of from scratch.
                change_points += 1
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
                self.searcher = BayesianOptimizer(
                    self.space, seed=self._seed + change_points
                )
                if anchors:
                    # Settle before profiling: right after a scale
                    # event the job is still paying membership
                    # transients (state sync, pipeline refill) that
                    # decay over several iterations and would credit
                    # whichever knobs happen to run later.  Hold the
                    # first anchor and discard segments until the
                    # measured speed stabilises.
                    self._reconfigure(anchors[0])
                    pending_anchors = anchors
                    previous = None
                    for _settle in range(MAX_SETTLE_SEGMENTS):
                        speed, epoch_changed = self._measure(
                            anchors[0], self.segment_iterations
                        )
                        if speed is None:
                            break
                        if epoch_changed:
                            # Cut short by the next scale event: the
                            # sample spans two memberships, so it stays
                            # off the ledger.
                            self.timeline.pop()
                            break
                        if (
                            previous is not None
                            and abs(speed - previous)
                            <= SETTLE_TOLERANCE * previous
                        ):
                            break
                        previous = speed
                    continue
            if pending_anchors:
                point = pending_anchors.pop(0)
            else:
                point = self.space.clip(self.searcher.suggest())
            epoch_changed = self._switch_to(point)
            if epoch_changed:
                continue
            speed, epoch_changed = self._measure(point, self.segment_iterations)
            if speed is None:
                break  # parked below min_workers: no profile to take
            last_sample = (point, speed)
            if epoch_changed:
                continue  # segment straddles a scale event: skip it
            self.searcher.observe(point, speed)

        if not self.searcher.history:
            if last_sample is None:
                raise TuningError(
                    "no tuning segment completed (job parked immediately)"
                )
            # Every segment straddled a scale event; keep the freshest.
            self.searcher.observe(*last_sample)
        best_point, _ = self.searcher.best()
        self._reconfigure(best_point)
        return self._finish(
            best_point,
            final_iterations,
            change_points=change_points,
            segments=list(self.searcher.history),
        )
