"""ByteScheduler's primary contribution: the generic tensor scheduler.

* :class:`ByteSchedulerCore` — Algorithm 1 (priority queue +
  credit-based preemption).
* :class:`CommTask` / :class:`SubCommTask` — the unified communication
  abstraction (§3.2).
* :class:`ByteSchedulerAdapter` / :class:`VanillaAdapter` — framework
  plugins: Dependency Proxies and barrier crossing (§3.3–3.4).
* :class:`FusionCore` / :class:`DeARCore` — Horovod-style tensor fusion
  and DeAR's decoupled all-reduce phases.

The evaluated scheduler kinds (FIFO, P3, ByteScheduler, fusion, DeAR)
are configurations of these cores, declared once in
:data:`repro.training.cluster.SCHEDULERS`.
"""

from repro.core.commtask import CommTask, SubCommTask, TaskState
from repro.core.dear import DeARCore
from repro.core.fusion import FusionCore
from repro.core.plugin import (
    Adapter,
    ByteSchedulerAdapter,
    ReadyCountdown,
    VanillaAdapter,
    make_adapter,
)
from repro.core.scheduler import (
    PRIORITY_FIFO,
    PRIORITY_LAYER,
    ByteSchedulerCore,
)

__all__ = [
    "ByteSchedulerCore",
    "DeARCore",
    "FusionCore",
    "CommTask",
    "SubCommTask",
    "TaskState",
    "PRIORITY_LAYER",
    "PRIORITY_FIFO",
    "Adapter",
    "VanillaAdapter",
    "ByteSchedulerAdapter",
    "ReadyCountdown",
    "make_adapter",
]
