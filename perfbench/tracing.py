"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public entry points of each simulator layer
(the table in ``ENTRY_POINTS``) for the length of one traced pass and
restores them afterwards; nothing inside ``src/`` changes.  Every
wrapped call is a span.  Spans nest on one stack (the load generator is
single-threaded), so a layer's *self time* is the sum of its spans'
durations minus the time their child spans cover.  Spans are folded into
per-layer totals as they close instead of being stored, which keeps a
pass of a few million calls in constant memory.

Work the event loop resumes without passing through a wrapped entry
point (process bodies, link-completion callbacks) is charged to the
innermost open span, which is usually ``Environment.run`` -- so
``sim.self_s`` is the kernel plus every callback body no other layer's
entry point covers.

The program's own counters (link message/byte totals, engine ops, core
counters, delivery-guard stats, recovery stats) are read from each job
after it finishes, through :meth:`Tracer.inspect`.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from typing import Dict, List, Tuple

from repro import obs
from repro.comm import DecoupledAllReduceBackend, PSBackend, RingAllReduceBackend
from repro.core import ByteSchedulerCore, CommTask, SubCommTask
from repro.frameworks import Engine
from repro.invariants import ChaosOracle, Invariant
import repro.invariants as invariants_package
from repro.net import Fabric, Link
from repro.obs import MetricsRegistry
from repro.sim import Environment
from repro.training import TrainingJob

LAYERS = ("net", "comm", "core", "sim", "frameworks", "training", "invariants", "obs")

#: Invariant classes that define their own ``on_complete``.
_INVARIANTS = tuple(
    value
    for value in vars(invariants_package).values()
    if isinstance(value, type)
    and issubclass(value, Invariant)
    and "on_complete" in vars(value)
)

#: (layer, owner, attribute, call counters the call increments).
ENTRY_POINTS: Tuple[Tuple[str, object, str, Tuple[str, ...]], ...] = (
    ("net", Fabric, "transfer", ("net.transfer_calls",)),
    ("net", Link, "transmit", ("net.transmit_calls",)),
    ("net", Link, "transmit_cut_through", ("net.transmit_calls",)),
    ("comm", PSBackend, "start_chunk", ("comm.start_chunk_calls",)),
    ("comm", RingAllReduceBackend, "start_chunk", ("comm.start_chunk_calls",)),
    ("comm", DecoupledAllReduceBackend, "start_reduce_scatter", ()),
    ("comm", DecoupledAllReduceBackend, "start_all_gather", ()),
    ("core", ByteSchedulerCore, "create_task", ("core.calls",)),
    ("core", ByteSchedulerCore, "enqueue", ("core.calls",)),
    ("core", CommTask, "notify_ready", ("core.calls",)),
    ("core", SubCommTask, "start", ("core.calls",)),
    ("sim", Environment, "timeout", ("sim.timeout_calls",)),
    ("sim", Environment, "process", ("sim.process_calls",)),
    ("sim", Environment, "defer", ("sim.defer_calls",)),
    ("sim", Environment, "run", ()),
    ("frameworks", Engine, "post", ()),
    ("training", TrainingJob, "__init__", ()),
    ("training", TrainingJob, "run", ()),
    ("invariants", ChaosOracle, "verify", ()),
    *(("invariants", cls, "on_complete", ()) for cls in _INVARIANTS),
    ("obs", MetricsRegistry, "record_iteration", ()),
    ("obs", obs, "build_run_report", ()),
)

#: Counts read from the program after each job: name -> unit.
_COUNTS = {
    "net.transfer_calls": "count/iter",
    "net.transmit_calls": "count/iter",
    "net.messages_sent": "count/iter",
    "net.bytes_sent": "B/iter",
    "net.retransmits": "count/iter",
    "net.corrupt_detected": "count/iter",
    "net.dups_absorbed": "count/iter",
    "comm.start_chunk_calls": "count/iter",
    "comm.chunks_completed": "count/iter",
    "core.calls": "count/iter",
    "core.subtasks_started": "count/iter",
    "core.preemption_opportunities": "count/iter",
    "sim.timeout_calls": "count/iter",
    "sim.process_calls": "count/iter",
    "sim.defer_calls": "count/iter",
    "frameworks.ops_posted": "count/iter",
}


class Tracer:
    """Context manager: wraps every entry point on enter, restores on exit."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        #: Inclusive time of TrainingJob.__init__ spans (job build),
        #: host-speed sampling excluded.
        self.build_s = 0.0
        self.counts: Counter = Counter()
        self.recoveries = 0
        self.iterations = 0
        self.sim_time = 0.0
        self.compute_time = 0.0
        self.queue_kinds: set = set()
        #: Child time accumulated by each open span; the bottom entry
        #: collects top-level span time.
        self._stack: List[float] = [0.0]
        #: Host-speed sampling time, excluded from every span.
        self._excluded = 0.0
        self._patches: List[Tuple[object, str, object]] = []

    def _wrap(self, layer: str, attribute: str, counters: Tuple[str, ...], original):
        stack = self._stack
        self_s = self.self_s
        counts = self.counts
        clock = time.perf_counter
        build = attribute == "__init__"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            for name in counters:
                counts[name] += 1
            excluded = self._excluded
            stack.append(0.0)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                stack[-1] += elapsed
                if build:
                    self.build_s += elapsed - (self._excluded - excluded)

        return traced

    def __enter__(self) -> "Tracer":
        for layer, owner, attribute, counters in ENTRY_POINTS:
            original = vars(owner)[attribute]
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(layer, attribute, counters, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    def exclude(self, seconds: float) -> None:
        """Charge ``seconds`` spent in the host-speed sampler to no layer."""
        self._stack[-1] += seconds
        self._excluded += seconds

    def inspect(self, job, outcome) -> None:
        """Fold one finished job's own counters into the pass totals."""
        counts = self.counts
        self.iterations += outcome.iterations
        self.sim_time += outcome.iteration_time
        self.compute_time += outcome.compute_time
        self.queue_kinds.add(job.env.queue_kind)
        fabric = job.fabric
        if fabric is not None:
            for node in fabric.nodes:
                nic = fabric.nic(node)
                for link in (nic.uplink, nic.downlink, fabric.loopback(node)):
                    counts["net.messages_sent"] += link.messages_sent
                    counts["net.bytes_sent"] += link.bytes_sent
            if fabric.guard is not None:
                stats = fabric.guard.stats
                counts["net.retransmits"] += stats.retransmits
                counts["net.corrupt_detected"] += stats.corrupt_detected
                counts["net.dups_absorbed"] += stats.dup_absorbed
        counts["comm.chunks_completed"] += len(job.backend.sync_digest())
        for core in {id(core): core for core in job.cores.values()}.values():
            counts["core.subtasks_started"] += core.subtasks_started
            counts["core.preemption_opportunities"] += core.preemption_opportunities
        for engine in job.engines.values():
            counts["frameworks.ops_posted"] += engine.ops_posted
        if job.recovery is not None:
            self.recoveries += int(job.recovery.stats()["recoveries"])

    def metrics(self, points: int, traced_s: float, untraced_s: float) -> Dict:
        """Per-layer metrics of the pass, as ``{name: (value, unit)}``.

        ``traced_s`` and ``untraced_s`` are the two passes' job times at
        the reference host speed; self times are rescaled so that they
        sum to ``traced_s``.  Counts are per simulated iteration, and
        ``training.sim_iter_ms`` is the mean simulated iteration time of
        the pass's ``points`` jobs.
        """
        spans = self._stack[0] - self._excluded
        scale = traced_s / spans if spans > 0 else 0.0
        out = {f"{layer}.self_s": (self.self_s[layer] * scale, "s") for layer in LAYERS}
        per_iter = max(self.iterations, 1)
        for name, unit in _COUNTS.items():
            out[f"{name}_per_iter"] = (self.counts[name] / per_iter, unit)
        out["training.build_s"] = (self.build_s * scale, "s")
        out["training.sim_iter_ms"] = (1000.0 * self.sim_time / max(points, 1), "ms")
        out["training.exposed_comm_share"] = (
            1.0 - self.compute_time / self.sim_time if self.sim_time else 0.0,
            "ratio",
        )
        out["recovery.recoveries"] = (self.recoveries, "count")
        out["trace.overhead"] = (traced_s / untraced_s - 1.0, "ratio")
        return out
