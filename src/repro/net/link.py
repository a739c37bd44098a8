"""A unidirectional FIFO link.

The link is the FIFO queue the whole paper is about: once a message is
handed to it, the message serialises at line rate behind everything
already queued, and *nothing can jump ahead* — priority has to be
enforced above the link, by the scheduler, before enqueueing.

Implementation notes: because service is strict FIFO at a fixed rate, a
link does not need a simulated server process; it keeps a ``busy_until``
horizon and computes each message's completion time at enqueue.  The
completions themselves are **batched**: completion times on a serial
link never decrease, so the link keeps its own completion FIFO and each
wake-up drains *every* completion due at that instant in one callback.
Equal-end frames coalesce, and the wake-up is a bare deferred tuple
rather than a per-message :class:`~repro.sim.Timeout` event.  Each
frame still arms its own wake-up, deliberately: one kernel entry
serving many frames would occupy a *different same-instant tie-break
position* (its sequence number is the head's, not each frame's), which
measurably perturbs trajectories.  Per-frame wake-ups keep every
completion at the tie-break position a per-message timeout would have
had; wake-ups for already-drained frames find nothing due and fall
through.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional, Sequence, Tuple

from repro.sim import Environment, Trace
from repro.net.message import Message
from repro.net.transport import Transport
from repro.net.windows import blackout_time, degraded_finish

__all__ = ["Link"]

_NO_WINDOWS: Tuple[Tuple[float, float, float], ...] = ()


class Link:
    """One direction of a NIC: FIFO service at ``bandwidth`` bytes/s."""

    def __init__(
        self,
        env: Environment,
        name: str,
        bandwidth: float,
        transport: Transport,
        trace: Optional[Trace] = None,
    ) -> None:
        if bandwidth <= 0:
            raise ValueError(f"bandwidth must be > 0, got {bandwidth!r}")
        self.env = env
        self.name = name
        self.bandwidth = bandwidth
        self.transport = transport
        self.trace = trace
        self._busy_until = env.now
        #: Batched completions: ``(end, callback, message)`` in FIFO
        #: order (ends are non-decreasing — see :meth:`_enqueue`).
        self._fifo: deque = deque()
        #: Degradation windows imposed by a fault plan: sorted, disjoint
        #: (start, end, rate_factor) triples; empty = healthy.
        self._fault_windows: Tuple[Tuple[float, float, float], ...] = _NO_WINDOWS
        #: Optional :class:`~repro.net.transport.LinkIntegrityInjector`
        #: drawing corrupt/dup/reorder fates for messages on this link.
        self.integrity = None
        #: Totals for utilisation accounting.
        self.bytes_sent = 0.0
        self.messages_sent = 0
        self.busy_time = 0.0

    @property
    def busy_until(self) -> float:
        """Earliest time a newly enqueued message could start serialising."""
        return self._busy_until

    @property
    def queue_delay(self) -> float:
        """Seconds a message enqueued *now* would wait before starting."""
        return max(0.0, self._busy_until - self.env.now)

    def set_fault_windows(
        self, windows: Sequence[Tuple[float, float, float]]
    ) -> None:
        """Impose degradation windows from a fault plan.

        ``windows`` are ``(start, end, rate_factor)`` triples, sorted
        and disjoint (see :func:`repro.net.windows.merge_windows`);
        factor 0 stalls the link for the window.  Passing an empty
        sequence restores the healthy link.
        """
        self._fault_windows = tuple(windows)

    def _integrity_delay(self, message: Message, now: float) -> float:
        """Roll the integrity injector (corrupt flips the checksum in
        place, dup is queued for the fabric) and return any reorder
        delay — extra switch-buffer time added to *delivery* without
        occupying the link."""
        outcome = self.integrity.roll(message, now)
        if outcome.dup:
            self.integrity.dup_pending.add(message.uid)
        return outcome.reorder_delay

    def _service_end(self, start: float, service: float) -> float:
        """When ``service`` seconds of full-rate work finish, given the
        degradation windows."""
        if not self._fault_windows:
            return start + service
        return degraded_finish(start, service, self._fault_windows)

    def _account(self, message: Message, start: float, serialise_end: float) -> None:
        """Byte/message/busy-time accounting, common to both paths.

        Busy time is the serialisation interval minus any blackout
        (factor-0) stall inside it: a blacked-out link holds the
        message but moves no bytes, so counting the stall as busy
        overstated utilisation (and did so differently on the two
        transmit paths — store-and-forward counted it, cut-through's
        pinned tail did not exist to compare against).
        """
        self.bytes_sent += message.size
        self.messages_sent += 1
        busy = serialise_end - start
        if self._fault_windows:
            busy -= blackout_time(start, serialise_end, self._fault_windows)
        self.busy_time += busy

    def _enqueue(
        self, end: float, callback: Callable[[Message], None], message: Message
    ) -> None:
        """File a completion on the batched FIFO and arm its wake-up —
        a bare ``(callback, arg)`` kernel tuple, no Event.

        Correctness rests on completion times never decreasing: every
        enqueue sets ``busy_until = end`` and the next end is at least
        ``busy_until``, so the FIFO head is always the earliest
        completion and :meth:`_drain` can pop strictly from the front.
        The wake-up is armed *here*, at enqueue, so it occupies the same
        same-instant tie-break position a per-message timeout would —
        see the module docstring for why that matters.
        """
        self._fifo.append((end, callback, message))
        self.env.defer(self._drain, None, end - self.env._now)

    def _drain(self, _arg: None) -> None:
        """A completion wake-up: pop and complete every frame due now.

        Equal-end frames coalesce into the earliest wake-up; the later
        frames' own wake-ups then find nothing due and fall through.
        A completion callback may enqueue more frames on this link —
        those land behind the cursor with ``end`` in the future (or due
        now, in which case the loop drains them too)."""
        fifo = self._fifo
        now = self.env._now
        while fifo and fifo[0][0] <= now:
            _end, callback, message = fifo.popleft()
            callback(message)

    def transmit(
        self, message: Message, callback: Callable[[Message], None]
    ) -> None:
        """Enqueue ``message``; ``callback(message)`` fires when its last
        byte has left this link."""
        env = self.env
        now = env._now
        message.enqueued_at = now
        start = now if now > self._busy_until else self._busy_until
        service = self.transport.wire_time(message.size, self.bandwidth)
        end = self._service_end(start, service)
        self._busy_until = end
        self._account(message, start, end)
        extra = 0.0
        if self.integrity is not None:
            extra = self._integrity_delay(message, now)
        if self.trace is not None:
            self.trace.span(
                "link",
                self.name,
                start,
                end,
                message=self.trace.intern(message.uid),
                size=message.size,
                kind=message.kind,
            )
        if extra > 0.0:
            # A reorder fate may legitimately complete after later
            # messages, so it cannot ride the in-order FIFO.
            env.defer(callback, message, end - now + extra)
        else:
            self._enqueue(end, callback, message)

    def transmit_cut_through(
        self,
        message: Message,
        available_at: float,
        callback: Callable[[Message], None],
    ) -> None:
        """Enqueue a message whose bytes *streamed in* while an upstream
        link serialised them (virtual cut-through).

        ``available_at`` is when the last byte arrived from upstream.
        If this link is idle it finishes almost immediately after that
        (it was receiving and forwarding concurrently); if it is
        backlogged, the message still occupies a full service slot:
        ``end = max(available_at, busy_until + service)``, at which
        point ``callback(message)`` fires, as on :meth:`transmit`.
        """
        env = self.env
        now = env._now
        message.enqueued_at = now
        service = self.transport.wire_time(message.size, self.bandwidth)
        # The service slot opens when the link frees, or just early
        # enough to end at the upstream arrival — whichever is later.
        start = max(self._busy_until, available_at - service)
        serialise_end = self._service_end(start, service)
        end = max(available_at, serialise_end)
        self._busy_until = end
        # Busy time is the serialisation interval only: when ``end`` is
        # pinned by ``available_at`` (a backlogged link waiting on slow
        # upstream bytes), the tail [serialise_end, end] is idle wait,
        # not transmission — counting it overstated utilisation.
        self._account(message, start, serialise_end)
        extra = 0.0
        if self.integrity is not None:
            extra = self._integrity_delay(message, now)
        if self.trace is not None:
            self.trace.span(
                "link",
                self.name,
                start,
                end,
                message=self.trace.intern(message.uid),
                size=message.size,
                kind=message.kind,
            )
        if extra > 0.0:
            env.defer(callback, message, max(0.0, end - now) + extra)
        else:
            # A past ``end`` (available_at already elapsed on an idle
            # link) means every earlier completion has drained, so
            # clamping to now keeps the FIFO ends non-decreasing.
            self._enqueue(end if end > now else now, callback, message)

    def reset_counters(self) -> None:
        """Zero the byte/message/busy counters (e.g. after warm-up)."""
        self.bytes_sent = 0.0
        self.messages_sent = 0
        self.busy_time = 0.0

    def snapshot(self) -> dict:
        """Point-in-time counters for per-iteration metric sampling."""
        return {
            "bytes_sent": self.bytes_sent,
            "messages_sent": self.messages_sent,
            "busy_time": self.busy_time,
            "queue_delay": self.queue_delay,
        }

    def __repr__(self) -> str:
        return f"<Link {self.name} {self.bandwidth:.3g}B/s {self.transport.name}>"
