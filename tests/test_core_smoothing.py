"""Unit tests + property tests for exponential smoothing (repro.core.smoothing)."""

import pytest
from hypothesis import given, strategies as st

from repro.core import ExponentialSmoothing
from repro.errors import ConfigurationError


def test_cold_start_predicts_none():
    s = ExponentialSmoothing()
    assert s.predict() is None


def test_first_observation_becomes_level():
    s = ExponentialSmoothing()
    s.update(10.0)
    assert s.predict() == 10.0


def test_alpha_half_recurrence():
    """With α=0.5 the level is the midpoint of observation and old level."""
    s = ExponentialSmoothing(alpha=0.5)
    s.update(10.0)
    s.update(20.0)
    assert s.predict() == pytest.approx(15.0)
    s.update(5.0)
    assert s.predict() == pytest.approx(10.0)


def test_alpha_one_tracks_last_value():
    s = ExponentialSmoothing(alpha=1.0)
    for x in (3.0, 7.0, 1.0):
        s.update(x)
    assert s.predict() == 1.0


def test_constant_series_zero_error():
    s = ExponentialSmoothing()
    for _ in range(10):
        s.update(17.2)
    assert s.predict() == pytest.approx(17.2)
    assert s.std_error == pytest.approx(0.0)


def test_std_error_none_before_second_sample():
    s = ExponentialSmoothing()
    assert s.std_error is None
    s.update(1.0)
    assert s.std_error is None
    s.update(2.0)
    assert s.std_error == pytest.approx(1.0)


def test_invalid_alpha_rejected():
    with pytest.raises(ConfigurationError):
        ExponentialSmoothing(alpha=0.0)
    with pytest.raises(ConfigurationError):
        ExponentialSmoothing(alpha=1.5)


@given(st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_subnormal=False),
    min_size=1, max_size=200,
))
def test_prediction_within_observed_range(values):
    """Property: the smoothed level never escapes [min, max] of the data."""
    s = ExponentialSmoothing()
    for v in values:
        s.update(v)
    assert min(values) <= s.predict() <= max(values)


@given(
    st.floats(min_value=0.01, max_value=1.0),
    st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=100),
)
def test_sample_count_tracks_updates(alpha, values):
    s = ExponentialSmoothing(alpha=alpha)
    for v in values:
        s.update(v)
    assert s.n == len(values)


@given(st.lists(st.floats(min_value=1.0, max_value=100.0), min_size=5, max_size=50))
def test_convergence_to_constant_tail(values):
    """Property: a long constant tail pulls the forecast to that constant."""
    s = ExponentialSmoothing(alpha=0.5)
    for v in values:
        s.update(v)
    for _ in range(60):
        s.update(55.5)
    assert s.predict() == pytest.approx(55.5, abs=1e-6)
