"""Machine-readable export of experiment results.

Every experiment's result object can be rendered to plain JSON-compatible
dicts, so downstream users can plot the figures with their own tooling
(the library itself deliberately has no plotting dependencies).
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, IO, Mapping, Optional, Union

from repro.experiments.appbench import AppBenchResult
from repro.experiments.breakdown import PopularBreakdownResult
from repro.experiments.measurement import MeasurementResult


def to_plain(result: Any) -> Any:
    """Best-effort conversion of a result object into JSON-compatible data."""
    if dataclasses.is_dataclass(result) and not isinstance(result, type):
        return {k: to_plain(v) for k, v in dataclasses.asdict(result).items()}
    if isinstance(result, Mapping):
        return {str(k): to_plain(v) for k, v in result.items()}
    if isinstance(result, (list, tuple)):
        return [to_plain(v) for v in result]
    if isinstance(result, (int, float, str, bool)) or result is None:
        return result
    if isinstance(result, MeasurementResult):
        return measurement_to_dict(result)
    if isinstance(result, PopularBreakdownResult):
        return popular_breakdown_to_dict(result)
    # objects with a __dict__ of plain fields (PopularResult, ...)
    if hasattr(result, "__dict__"):
        return {k: to_plain(v) for k, v in vars(result).items()
                if not k.startswith("_")}
    return str(result)


def measurement_to_dict(result: MeasurementResult) -> Dict[str, Any]:
    """Figures 4-6 series: sizes, coherence and slack CDFs."""
    return {
        "platform": result.platform,
        "region_size_cdf": result.size_cdf(),
        "coherence_cdf": result.coherence_cdf(),
        "slack_cdf": result.slack_cdf(),
        "mean_coherence_ms": result.mean_coherence,
        "mean_slack_ms": result.mean_slack,
        "api_calls_per_second": result.api_calls_per_second,
    }


def appbench_to_dict(result: AppBenchResult) -> Dict[str, Any]:
    """A Figures 10/11/13/14 bar group."""
    return {
        "emulator": result.emulator,
        "machine": result.machine,
        "category_fps": dict(result.category_fps),
        "category_latency_ms": dict(result.category_latency),
        "mean_fps": result.mean_fps,
        "mean_latency_ms": result.mean_latency,
        "runnable": result.runnable,
        "per_app_fps": dict(result.per_app),
    }


def popular_breakdown_to_dict(result: PopularBreakdownResult) -> Dict[str, Any]:
    """One §5.5 ablation row."""
    return {
        "variant": result.variant,
        "apps_with_drops": result.apps_with_drops,
        "average_drop_percent": result.average_drop_percent,
        "per_app_fps": dict(result.per_app_fps),
    }


def dump_json(result: Any, destination: Union[str, IO[str]],
              indent: Optional[int] = 2) -> None:
    """Serialize any experiment result to a file path or open stream."""
    data = to_plain(result)
    if isinstance(destination, str):
        with open(destination, "w") as stream:
            json.dump(data, stream, indent=indent)
    else:
        json.dump(data, destination, indent=indent)
