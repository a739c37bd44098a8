"""Degraded-rate window arithmetic (``repro.net.windows``)."""

import pytest

from repro.errors import ConfigError
from repro.net.windows import (
    compose_windows,
    degraded_finish,
    merge_windows,
    slowest_windows,
)


def test_merge_windows_sorts_and_rejects_overlap():
    merged = merge_windows([(0.5, 0.6, 0.1), (0.0, 0.2, 0.5)])
    assert merged == ((0.0, 0.2, 0.5), (0.5, 0.6, 0.1))
    with pytest.raises(ConfigError):
        merge_windows([(0.0, 0.3, 0.5), (0.2, 0.4, 0.1)])


def test_degraded_finish_healthy_path():
    assert degraded_finish(1.0, 2.0, ()) == pytest.approx(3.0)
    # Window entirely in the past: no effect.
    assert degraded_finish(1.0, 2.0, ((0.0, 0.5, 0.0),)) == pytest.approx(3.0)
    # Work finishes before the window opens.
    assert degraded_finish(0.0, 1.0, ((2.0, 3.0, 0.0),)) == pytest.approx(1.0)


def test_degraded_finish_half_rate_window():
    # 1s of work starting at 0; [0, 2) runs at half rate -> done at 2.
    assert degraded_finish(0.0, 1.0, ((0.0, 2.0, 0.5),)) == pytest.approx(2.0)
    # Window ends mid-work: 0.5s served in [0,1) at half rate, rest after.
    assert degraded_finish(0.0, 1.0, ((0.0, 1.0, 0.5),)) == pytest.approx(1.5)


def test_degraded_finish_blackout_stalls():
    assert degraded_finish(0.0, 1.0, ((0.0, 5.0, 0.0),)) == pytest.approx(6.0)
    # Start mid-blackout.
    assert degraded_finish(2.0, 1.0, ((0.0, 5.0, 0.0),)) == pytest.approx(6.0)


def test_degraded_finish_chains_multiple_windows():
    windows = ((0.0, 1.0, 0.5), (2.0, 3.0, 0.0))
    # 2s of work: 0.5 done in [0,1), 1.0 done in [1,2), stall to 3, rest.
    assert degraded_finish(0.0, 2.0, windows) == pytest.approx(3.5)


def test_degraded_finish_zero_work():
    assert degraded_finish(1.0, 0.0, ((0.0, 5.0, 0.5),)) == pytest.approx(1.0)


def test_compose_multiplies_on_overlap_and_preserves_blackouts():
    drift = ((0.0, 4.0, 0.5),)
    static = ((1.0, 2.0, 0.5), (3.0, 5.0, 0.0))
    composed = compose_windows(static, drift)
    assert composed == (
        (0.0, 1.0, 0.5),
        (1.0, 2.0, 0.25),
        (2.0, 3.0, 0.5),
        (3.0, 5.0, 0.0),  # 0 x f = 0: the blackout survives the drift
    )


def test_slowest_windows_keeps_disjoint_windows_as_merge_does():
    windows = [(1.0, 2.0, 0.5), (0.0, 1.0, 0.5), (3.0, 4.0, 0.0)]
    assert slowest_windows(windows) == merge_windows(windows)
    assert slowest_windows([]) == ()


def test_slowest_windows_takes_the_minimum_factor_on_overlap():
    windows = [(0.0, 1.0, 0.5), (0.5, 1.5, 0.25), (0.5, 1.5, 0.25), (2.0, 3.0, 0.5)]
    assert slowest_windows(windows) == (
        (0.0, 0.5, 0.5),
        (0.5, 1.5, 0.25),
        (2.0, 3.0, 0.5),
    )
    # A restart stall inside a slow window blacks out its own span only.
    assert slowest_windows([(0.0, 1.0, 0.5), (0.1, 0.15, 0.0)]) == (
        (0.0, 0.1, 0.5),
        (0.1, 0.15, 0.0),
        (0.15, 1.0, 0.5),
    )
