"""Applying a :class:`~repro.faults.plan.FaultPlan` to a built job.

The injector is the only piece that knows where each fault kind lands:

* link faults become degradation windows on the fabric's FIFO links
  (PS) or on the collective pipe (all-reduce);
* straggler faults become a ``compute_scale`` hook on the affected
  worker's engine;
* transport faults wrap the remote links' transport in a
  :class:`~repro.net.transport.FaultyTransport` drawing from the plan's
  seeded RNG;
* integrity faults arm per-link corrupt/dup/reorder injectors (PS) or
  per-collective draws (all-reduce).

Crash clauses and scale events are not wired here: they drive the
recovery and membership control planes, which
:class:`~repro.training.job.TrainingJob` installs itself right after
this injector runs, so ``faults`` never imports the layers above it.

Injection happens once, after the substrate is built and before any
iteration is constructed, so a faulted run replays identically.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Iterable, Sequence, Tuple

from repro.errors import ConfigError
from repro.net.fabric import Fabric
from repro.net.transport import FaultyTransport, LinkIntegrityInjector
from repro.faults.plan import FaultPlan, sample_drift_windows
from repro.net.windows import compose_windows, slowest_windows

#: Knuth multiplicative hash, decorrelating the integrity RNG stream
#: from the transport-fault stream without str/tuple seeds (which vary
#: with PYTHONHASHSEED).
_INTEGRITY_SEED_SALT = 2654435761

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.training.job import TrainingJob

__all__ = ["apply_fault_plan", "make_straggler_scale"]


def make_straggler_scale(windows: Tuple[Tuple[float, float, float], ...]):
    """Build an engine ``compute_scale`` hook from straggler windows.

    An op whose start falls inside a ``(start, end, slowdown)`` window
    runs ``slowdown`` times longer.  Ops are attributed to the window
    containing their start — a deliberate simplification that keeps the
    hook O(windows) and the run deterministic.
    """

    def scale(now: float, duration: float) -> float:
        for start, end, slowdown in windows:
            if start <= now < end:
                return duration * slowdown
        return duration

    return scale


def _chain_walk_scale(inner, walk_windows):
    """Multiply a drift random-walk multiplier on top of the static
    straggler hook (whose first-matching-window semantics it keeps)."""

    def scale(now: float, duration: float) -> float:
        duration = inner(now, duration)
        for start, end, multiplier in walk_windows:
            if start <= now < end:
                return duration * multiplier
            if start > now:
                break
        return duration

    return scale


def apply_fault_plan(job: "TrainingJob", plan: FaultPlan) -> None:
    """Impose ``plan``'s data-plane faults on a freshly built
    :class:`TrainingJob`."""
    if plan.empty:
        return
    rng = random.Random(plan.seed)

    # Stragglers: per-worker compute slowdown windows on the engine,
    # with any walk-drift multiplier chained multiplicatively on top.
    _check_known(
        [fault.worker for fault in plan.stragglers]
        + [fault.node for fault in plan.drift if fault.compute],
        sorted(job.workers),
        "worker",
        "workers",
    )
    for worker in job.workers:
        windows = plan.straggler_windows(worker)
        walk = plan.drift_walk_windows(worker)
        if windows or walk:
            scale = make_straggler_scale(windows)
            if walk:
                scale = _chain_walk_scale(scale, walk)
            job.engines[worker].compute_scale = scale

    # Every link-level clause must name a node of the substrate.
    link_nodes = (
        [fault.node for fault in plan.link_faults]
        + [fault.node for fault in plan.drift if not fault.compute]
        + [fault.node for fault in plan.integrity]
    )
    if job.fabric is not None:
        _check_known(link_nodes, job.fabric.nodes, "node", "nodes")
        _apply_to_fabric(job.fabric, plan, rng)
    else:
        nodes = list(job.backend.workers)
        _check_known(link_nodes, nodes, "node", "all-reduce nodes")
        _apply_to_collective(job.backend, plan, rng)


def _check_known(
    names: Iterable[str], known: Sequence[str], noun: str, listing: str
) -> None:
    for name in names:
        if name not in known:
            raise ConfigError(
                f"fault plan names unknown {noun} {name!r}; "
                f"{listing} are {known}"
            )


def _apply_to_fabric(fabric: Fabric, plan: FaultPlan, rng: random.Random) -> None:
    """PS path: fault the fabric's links and transports directly.

    Integrity injectors all share one seeded RNG (draws happen in
    deterministic FIFO transmit order), one stats block, and the
    fabric's pending-duplicate set; the delivery guard holds the
    receiver side of the protocol.
    """
    guard = fabric.enable_integrity() if plan.integrity else None
    integrity_rng = _integrity_rng(plan)
    for node in fabric.nodes:
        nic = fabric.nic(node)
        targets = (
            ("up", nic.uplink),
            ("down", nic.downlink),
            ("loop", fabric.loopback(node)),
        )
        for direction, link in targets:
            # Static windows (merged, disjoint) overlaid with the
            # sampled drift profile: factors multiply where they
            # overlap, and a factor-0 blackout survives composition.
            windows = compose_windows(
                plan.link_windows(node, direction),
                plan.drift_link_windows(node, direction),
            )
            if windows:
                link.set_fault_windows(windows)
            if guard is None:
                continue
            corrupt = plan.integrity_windows(node, direction, "corrupt")
            dup = plan.integrity_windows(node, direction, "dup")
            reorder = plan.integrity_windows(node, direction, "reorder")
            if corrupt or dup or reorder:
                link.integrity = LinkIntegrityInjector(
                    integrity_rng,
                    guard.stats,
                    corrupt=corrupt,
                    dup=dup,
                    reorder=reorder,
                    dup_pending=fabric.dup_pending,
                )
    if plan.transport.active:
        faulty = FaultyTransport(fabric.transport, plan.transport, rng)
        fabric.transport = faulty
        for nic in fabric.nics.values():
            nic.uplink.transport = faulty
            nic.downlink.transport = faulty


def _integrity_rng(plan: FaultPlan) -> random.Random:
    """Seeded RNG for integrity draws, decorrelated from the transport
    stream (same plan seed, different fault history)."""
    return random.Random(plan.seed * _INTEGRITY_SEED_SALT % 2**32 + 1)


def _apply_to_collective(backend, plan: FaultPlan, rng: random.Random) -> None:
    """All-reduce path: degrade the single collective pipe.

    The ring runs at the speed of its slowest hop, so *any* worker
    node's link fault degrades the whole ring for its window; where
    faults on different links overlap, the lowest factor wins.
    """
    combined = slowest_windows(
        window
        for node in backend.workers
        for direction in ("up", "down", "loop")
        for window in plan.link_windows(node, direction)
    )
    for fault in plan.drift:
        if not fault.compute:  # a compute walk lands on the engine
            combined = compose_windows(
                combined, sample_drift_windows(fault, plan.seed)
            )
    if combined:
        backend.set_fault_windows(combined)
    if plan.transport.active and plan.transport.loss_probability > 0:
        backend.set_loss(plan.transport.loss_probability, rng)
    if plan.integrity:
        backend.set_integrity(plan.integrity, _integrity_rng(plan))
