"""Deterministic fault injection for simulated training runs.

Declare *what* goes wrong with a :class:`FaultPlan`: link slowdown and
blackout windows, straggler workers, probabilistic message loss and
delay, node crashes, corrupt/dup/reorder integrity damage, planned
join/leave scale events, and continuous drift (diurnal, ramp,
random-walk and background-tenant curves).  :func:`apply_fault_plan`
wires the data-plane faults into a built
:class:`~repro.training.job.TrainingJob`; the job itself stands up the
recovery and membership control planes for crashes and scale events.

``faults`` is plain data above ``net`` and ``cluster``: the window
arithmetic the links run on lives in :mod:`repro.net.windows`.
Everything runs on the deterministic sim kernel from a seeded RNG: the
same plan replays the same faulted trajectory, byte for byte.
"""

from repro.faults.inject import apply_fault_plan, make_straggler_scale
from repro.faults.plan import (
    CrashFault,
    DriftFault,
    FaultPlan,
    IntegrityFault,
    LinkFault,
    ScaleEvent,
    StragglerFault,
    TransportFault,
    sample_drift_windows,
)

__all__ = [
    "CrashFault",
    "DriftFault",
    "FaultPlan",
    "IntegrityFault",
    "LinkFault",
    "ScaleEvent",
    "StragglerFault",
    "TransportFault",
    "apply_fault_plan",
    "make_straggler_scale",
    "sample_drift_windows",
]
