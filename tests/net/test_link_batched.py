"""Batched link completions against the closed-form FIFO schedule.

``transmit`` rides the link's completion FIFO and a bare deferred
wake-up instead of allocating a Timeout event per message.  The
contract: callbacks fire at exactly the times a strict FIFO server at
line rate gives, in enqueue order — batching is an allocation
optimisation, not a semantic change.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Link, Message, Transport
from repro.sim import Environment

BANDWIDTH = 100.0


def make_link(env):
    return Link(env, "n0.up", BANDWIDTH, Transport("t", 0.0, 1.0))


sizes = st.lists(
    st.floats(min_value=1.0, max_value=1e4), min_size=1, max_size=15
)
offsets = st.lists(
    st.floats(min_value=0.0, max_value=200.0), min_size=15, max_size=15
)


@given(sizes=sizes, offsets=offsets, cut=st.lists(st.booleans(), min_size=15, max_size=15))
@settings(max_examples=60, deadline=None)
def test_completions_follow_the_closed_form_fifo_schedule(sizes, offsets, cut):
    env = Environment()
    link = make_link(env)
    completions = []
    expected = []
    busy_until = env.now
    for i, (size, offset, use_cut) in enumerate(zip(sizes, offsets, cut)):
        record = lambda _message, i=i: completions.append((env.now, i))
        service = size / BANDWIDTH
        if use_cut:
            link.transmit_cut_through(
                Message("a", "b", size), available_at=offset, callback=record
            )
            end = max(offset, max(busy_until, offset - service) + service)
        else:
            link.transmit(Message("a", "b", size), callback=record)
            end = max(env.now, busy_until) + service
        busy_until = end
        expected.append((end, i))
    env.run()
    assert completions == expected
    assert link.busy_time == pytest.approx(sum(size / BANDWIDTH for size in sizes))
    assert link.bytes_sent == sum(sizes)


def test_equal_end_completions_coalesce_in_fifo_order():
    # Two zero-size messages complete at the same instant; the first
    # wake-up drains both, in enqueue order.
    env = Environment()
    link = make_link(env)
    order = []
    link.transmit(Message("a", "b", 0.0), callback=lambda m: order.append("first"))
    link.transmit(Message("a", "b", 0.0), callback=lambda m: order.append("second"))
    env.run()
    assert order == ["first", "second"]
    assert not link._fifo


def test_callback_may_enqueue_more_traffic():
    # A completion callback that transmits again must not corrupt the
    # FIFO: the new frame lands behind the drain cursor.
    env = Environment()
    link = make_link(env)
    hops = []

    def relay(message):
        hops.append(env.now)
        if len(hops) < 3:
            link.transmit(message, callback=relay)

    link.transmit(Message("a", "b", 100.0), callback=relay)
    env.run()
    assert hops == pytest.approx([1.0, 2.0, 3.0])
    assert link.messages_sent == 3


def test_past_available_at_fires_without_time_travel():
    # Cut-through with an already-elapsed arrival clamps to now: the
    # callback fires this instant, never in the simulated past.
    env = Environment()
    link = make_link(env)
    env.timeout(5.0).callbacks.append(
        lambda _evt: link.transmit_cut_through(
            Message("a", "b", 1.0),
            available_at=0.0,
            callback=lambda m: fired.append(env.now),
        )
    )
    fired = []
    env.run()
    assert len(fired) == 1
    assert fired[0] >= 5.0
