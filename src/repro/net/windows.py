"""Degraded-rate windows: the arithmetic a faulted link runs on.

A window is a ``(start, end, factor)`` triple: inside ``[start, end)``
a link (or the all-reduce pipe) serves work at ``factor`` of line rate,
and factor 0 is a blackout.  Outside every window the rate is full.
Fault plans (:mod:`repro.faults`) build these profiles; the links and
the collective pipe only read them, so the math lives here, in the
layer that uses it.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.errors import ConfigError

__all__ = [
    "blackout_time",
    "compose_windows",
    "degraded_finish",
    "merge_windows",
    "slowest_windows",
]

Window = Tuple[float, float, float]


def merge_windows(windows: Sequence[Window]) -> Tuple[Window, ...]:
    """Sort windows and check they do not overlap.

    Overlapping degradation windows on the same link would make the
    effective rate ambiguous; the plan rejects them up front.
    """
    ordered = tuple(sorted(windows))
    for (_s0, e0, _f0), (s1, _e1, _f1) in zip(ordered, ordered[1:]):
        if s1 < e0:
            raise ConfigError(
                f"overlapping fault windows on the same link: "
                f"{e0!r} > {s1!r}"
            )
    return ordered


def slowest_windows(windows: Iterable[Window]) -> Tuple[Window, ...]:
    """Overlay windows from different links, keeping the minimum factor.

    A ring moves at the speed of its slowest hop, so where windows of
    different members overlap the lowest factor wins.  Disjoint inputs
    come back exactly as :func:`merge_windows` returns them; only a run
    of overlapping windows is cut at its edges, with adjacent equal
    factors inside the run coalesced.
    """
    ordered = sorted(windows)
    out: List[Window] = []
    first = 0
    while first < len(ordered):
        last, reach = first + 1, ordered[first][1]
        while last < len(ordered) and ordered[last][0] < reach:
            reach = max(reach, ordered[last][1])
            last += 1
        run = ordered[first:last]
        first = last
        if len(run) == 1:
            out.append(run[0])
            continue
        mark = len(out)
        edges = sorted({t for lo, hi, _ in run for t in (lo, hi)})
        for lo, hi in zip(edges, edges[1:]):
            factor = min(f for s, e, f in run if s <= lo and hi <= e)
            if len(out) > mark and out[-1][2] == factor:
                out[-1] = (out[-1][0], hi, factor)
            else:
                out.append((lo, hi, factor))
    return tuple(out)


def degraded_finish(
    start: float,
    work: float,
    windows: Sequence[Window],
) -> float:
    """When ``work`` seconds of full-rate service finish, starting at
    ``start``, given ``(win_start, win_end, rate_factor)`` windows.

    Outside every window the link runs at full rate; inside, at
    ``rate_factor`` of it (0 = total stall).  Windows must be sorted and
    disjoint (use :func:`merge_windows`).
    """
    clock = start
    remaining = work
    for win_start, win_end, rate in windows:
        if win_end <= clock:
            continue
        if remaining <= 0:
            break
        if win_start > clock:
            healthy = win_start - clock
            if remaining <= healthy:
                return clock + remaining
            remaining -= healthy
            clock = win_start
        span = win_end - clock
        if rate <= 0.0:
            clock = win_end  # blackout: time passes, no progress
        else:
            capacity = span * rate
            if remaining <= capacity:
                return clock + remaining / rate
            remaining -= capacity
            clock = win_end
    return clock + remaining


def compose_windows(
    a: Sequence[Window],
    b: Sequence[Window],
) -> Tuple[Window, ...]:
    """Overlay two factor profiles, multiplying where they overlap.

    Each input is a sorted, disjoint ``(start, end, factor)`` sequence
    with factor 1 implied outside its windows; the result is again
    sorted and disjoint, with factor-1 stretches dropped and adjacent
    equal-factor windows coalesced.  ``0 × f = 0``, so a static blackout
    stays a blackout whatever the drift curve does — which is what keeps
    the busy-time accounting identical on both transmit paths.
    """
    a = tuple(a)
    b = tuple(b)
    if not a:
        return b
    if not b:
        return a
    edges: List[float] = sorted(
        {t for lo, hi, _ in a for t in (lo, hi)}
        | {t for lo, hi, _ in b for t in (lo, hi)}
    )
    out: List[Window] = []
    ia = ib = 0
    for lo, hi in zip(edges, edges[1:]):
        while ia < len(a) and a[ia][1] <= lo:
            ia += 1
        while ib < len(b) and b[ib][1] <= lo:
            ib += 1
        factor = 1.0
        if ia < len(a) and a[ia][0] <= lo:
            factor *= a[ia][2]
        if ib < len(b) and b[ib][0] <= lo:
            factor *= b[ib][2]
        if factor == 1.0:
            continue
        if out and out[-1][1] == lo and out[-1][2] == factor:
            out[-1] = (out[-1][0], hi, factor)
        else:
            out.append((lo, hi, factor))
    return tuple(out)


def blackout_time(
    start: float,
    end: float,
    windows: Sequence[Window],
) -> float:
    """Seconds of total stall (``rate_factor`` 0) inside ``[start, end]``.

    Degraded-but-moving windows do not count: a link serialising at a
    fraction of line rate is still *busy*.  A blackout window is not —
    no bytes move — so utilisation accounting subtracts it from the
    serialisation interval (the same on both the store-and-forward and
    cut-through transmit paths).
    """
    stalled = 0.0
    for win_start, win_end, rate in windows:
        if rate > 0.0:
            continue
        if win_start >= end:
            break
        lo = win_start if win_start > start else start
        hi = win_end if win_end < end else end
        if hi > lo:
            stalled += hi - lo
    return stalled
