"""Single exponential smoothing — the paper's forecasting algorithm (§3.3).

Slack intervals and bus bandwidths are univariate time series with no trend
or seasonality, so the paper uses single exponential smoothing with
α = 0.5. The predictor keeps a running estimate

    s_t = α · x_t + (1 − α) · s_{t−1}

and forecasts the next value as the current estimate. We also track the
running standard error of the one-step-ahead forecast, which §5.2 reports
(0.9 ms for slack intervals, 0.3 ms for prefetch time).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.errors import ConfigurationError

#: The paper's empirically chosen smoothing weight.
DEFAULT_ALPHA = 0.5


class ExponentialSmoothing:
    """Single exponential smoothing with forecast-error tracking."""

    def __init__(self, alpha: float = DEFAULT_ALPHA):
        if not 0.0 < alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._level: Optional[float] = None
        self.n = 0
        self._err_sum_sq = 0.0
        self._err_count = 0

    def update(self, value: float) -> None:
        """Fold in one observation."""
        if self._level is None:
            self._level = value
        else:
            error = value - self._level
            self._err_sum_sq += error * error
            self._err_count += 1
            self._level = self.alpha * value + (1.0 - self.alpha) * self._level
        self.n += 1

    def predict(self) -> Optional[float]:
        """One-step-ahead forecast; ``None`` before any observation."""
        return self._level

    @property
    def std_error(self) -> Optional[float]:
        """RMS one-step forecast error; ``None`` with fewer than 2 samples."""
        if self._err_count == 0:
            return None
        return math.sqrt(self._err_sum_sq / self._err_count)

    def state_dict(self) -> dict:
        """JSON-able predictor state for checkpointing."""
        return {
            "alpha": self.alpha,
            "level": self._level,
            "n": self.n,
            "err_sum_sq": self._err_sum_sq,
            "err_count": self._err_count,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ExponentialSmoothing a={self.alpha} level={self._level} n={self.n}>"
