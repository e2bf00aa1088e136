"""Unit tests for the resilience primitives (repro.sim.resilience).

The retry loops that use :class:`RetryPolicy` are pinned where they run:
coherence copies in tests/test_core_coherence.py and virtio kicks in
tests/test_faults.py.
"""

import pytest

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    TransientCopyError,
)
from repro.sim import RetryPolicy, Simulator, Timeout, with_deadline


def run_to_result(sim, gen, name="test"):
    proc = sim.spawn(gen, name=name)
    outcome = {}

    def on_done(value, exc):
        outcome["value"] = value
        outcome["exc"] = exc

    proc.add_callback(on_done)
    sim.run()
    return outcome


# -- RetryPolicy -------------------------------------------------------------

def test_retry_policy_backoff_schedule():
    policy = RetryPolicy(max_attempts=5, base_delay_ms=1.0, multiplier=2.0, max_delay_ms=5.0)
    assert policy.delay_before_retry(1) == 1.0
    assert policy.delay_before_retry(2) == 2.0
    assert policy.delay_before_retry(3) == 4.0
    assert policy.delay_before_retry(4) == 5.0  # capped


def test_retry_policy_exhaustion():
    policy = RetryPolicy(max_attempts=3)
    assert not policy.exhausted(2)
    assert policy.exhausted(3)
    unbounded = RetryPolicy(max_attempts=None)
    assert not unbounded.exhausted(10_000)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(max_attempts=0),
        dict(base_delay_ms=-1.0),
        dict(base_delay_ms=float("nan")),
        dict(multiplier=0.5),
        dict(max_delay_ms=float("inf")),
    ],
)
def test_retry_policy_rejects_bad_parameters(kwargs):
    with pytest.raises(ConfigurationError):
        RetryPolicy(**kwargs)


# -- with_deadline -----------------------------------------------------------

def test_with_deadline_passes_through_fast_ops():
    sim = Simulator()

    def op():
        yield Timeout(2.0)
        return "done"

    def runner():
        value = yield from with_deadline(sim, op(), 10.0, name="fast")
        return value

    outcome = run_to_result(sim, runner())
    assert outcome["value"] == "done"
    assert sim.now == pytest.approx(2.0)


def test_with_deadline_fails_slow_ops_at_the_deadline():
    sim = Simulator()

    def op():
        yield Timeout(50.0)
        return "late"

    def runner():
        return (yield from with_deadline(sim, op(), 10.0, name="slow"))

    outcome = run_to_result(sim, runner())
    assert isinstance(outcome["exc"], DeadlineExceededError)
    # The caller was released at the deadline, not at op completion...
    assert "10.000 ms" in str(outcome["exc"])


def test_with_deadline_orphan_keeps_running():
    """A timed-out op still completes in the background (like a real DMA)."""
    sim = Simulator()
    finished = []

    def op():
        yield Timeout(50.0)
        finished.append(sim.now)
        return "late"

    def runner():
        try:
            yield from with_deadline(sim, op(), 10.0)
        except DeadlineExceededError:
            pass
        return "recovered"

    outcome = run_to_result(sim, runner())
    assert outcome["value"] == "recovered"
    assert finished == [pytest.approx(50.0)]  # orphan drained to completion


def test_with_deadline_propagates_inner_failure():
    sim = Simulator()

    def op():
        yield Timeout(1.0)
        raise TransientCopyError("inner")

    def runner():
        return (yield from with_deadline(sim, op(), 10.0))

    outcome = run_to_result(sim, runner())
    assert isinstance(outcome["exc"], TransientCopyError)


def test_with_deadline_rejects_bad_deadline():
    sim = Simulator()

    def op():
        yield Timeout(1.0)

    gen = with_deadline(sim, op(), -1.0)
    with pytest.raises(ConfigurationError):
        next(gen)
