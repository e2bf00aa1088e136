"""The scenario schema: stdlib validation with precise error paths.

A scenario document is plain data (dicts/lists/scalars — JSON round-trips
losslessly). :func:`validate_scenario` walks it and raises
:class:`~repro.errors.ConfigurationError` whose message starts with the
dotted path of the offending node (``apps[1].frame_rate: ...``), so a
fuzzer-shrunken reproducer or a hand-written file fails with a pointer,
not a stack trace.

App stanzas are *sparse*: only the knobs the author wrote are validated
and forwarded to the app constructor, so an empty stanza compiles to the
factory's own defaults — the property that makes scenario-expressed
catalog apps bit-identical to their hand-coded counterparts.

Top-level shape::

    {
      "name": "mixed-chaos",              # required
      "emulator": "vSoC",                 # required, an EMULATOR_FACTORIES key
      "machine": "high-end-desktop",      # default
      "duration_ms": 8000.0,              # default 8000
      "seed": 0,                          # default 0
      "apps": [ {"name": ..., "pipeline": ..., <knobs>}, ... ],   # required
      "environment": {                    # optional
        "bus_load": [{"time_ms", "bus", "load"}, ...],
        "thermal":  [{"time_ms", "device", "busy_ms"}, ...],
        "faults":   { <FaultPlan.to_dict() document> }
      },
      "audit": {"interval_ms": 50.0, "fence_wait_deadline_ms": 1000.0}
    }
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.emulators import EMULATOR_FACTORIES
from repro.emulators.base import VDEV_NAMES
from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.hw.machine import HIGH_END_DESKTOP, MIDDLE_END_LAPTOP
from repro.units import KIB, MIB

#: Machine aliases a scenario may name.
MACHINE_SPECS = {
    "high-end-desktop": HIGH_END_DESKTOP,
    "middle-end-laptop": MIDDLE_END_LAPTOP,
}

#: Buses the injector can reach on every emulator/machine combination.
KNOWN_BUSES = ("memctl", "pcie", "boundary")

#: Physical devices every HostMachine builds (stall/reset/thermal targets).
MACHINE_DEVICES = ("cpu", "gpu", "camera", "nic")

#: Stage ops a graph pipeline may run, per virtual device. The pairs are
#: exactly those valid under every emulator's §3.2 virtual→physical
#: mapping: ``decode``/``encode``/``convert`` are resolved to the hw or
#: sw path at run time (their backing physical device tracks the same
#: config bit), the rest are literal ops of the device that always backs
#: that vdev (gpu/display → the GPU, cpu → the CPU, modem → the NIC).
DEVICE_OPS = {
    "gpu": ("render", "compose", "present"),
    "display": ("render", "compose", "present"),
    "codec": ("decode", "encode"),
    "isp": ("convert",),
    "camera": ("deliver", "capture"),
    "cpu": ("track", "memcpy"),
    "modem": ("send", "recv"),
}

DEFAULT_MACHINE = "high-end-desktop"
DEFAULT_DURATION_MS = 8_000.0
DEFAULT_AUDIT_INTERVAL_MS = 50.0
DEFAULT_FENCE_DEADLINE_MS = 1_000.0

MAX_APPS = 8
MAX_GRAPH_STAGES = 6


# ---------------------------------------------------------------------------
# Field checkers
# ---------------------------------------------------------------------------

def _fail(path: str, message: str) -> None:
    raise ConfigurationError(f"{path}: {message}")


def _require_mapping(path: str, value: Any) -> Mapping:
    if not isinstance(value, Mapping):
        _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _require_list(path: str, value: Any) -> list:
    if not isinstance(value, (list, tuple)):
        _fail(path, f"expected a list, got {type(value).__name__}")
    return list(value)


def _check_keys(path: str, doc: Mapping, allowed: Tuple[str, ...],
                required: Tuple[str, ...] = ()) -> None:
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        _fail(path, f"unknown key {unknown[0]!r} (allowed: {sorted(allowed)})")
    missing = [key for key in required if key not in doc]
    if missing:
        _fail(path, f"missing required key {missing[0]!r}")


@dataclass(frozen=True)
class _Num:
    """A numeric field: bounds, integrality, and its factory default.

    ``default`` is the app constructor's own default — recorded so the
    shrinker can run its toward-default scalar passes without importing
    every app class.
    """

    lo: float
    hi: float
    integer: bool = False
    lo_open: bool = False
    default: Optional[float] = None

    def check(self, path: str, value: Any) -> None:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            _fail(path, f"expected a number, got {type(value).__name__}")
        if self.integer and not isinstance(value, int):
            _fail(path, f"expected an integer, got {value!r}")
        if not math.isfinite(value):
            _fail(path, f"must be finite, got {value!r}")
        if value < self.lo or (self.lo_open and value == self.lo):
            bound = ">" if self.lo_open else ">="
            _fail(path, f"must be {bound} {self.lo}, got {value!r}")
        if value > self.hi:
            _fail(path, f"must be <= {self.hi}, got {value!r}")


@dataclass(frozen=True)
class _Bool:
    default: bool = False

    def check(self, path: str, value: Any) -> None:
        if not isinstance(value, bool):
            _fail(path, f"expected true/false, got {type(value).__name__}")


_BUFFERS = _Num(1, 16, integer=True, default=4)
_FRAME_BYTES = _Num(4 * KIB, 256 * MIB, integer=True, default=3840 * 2160 * 2)
_DIRTY = _Num(0.0, 1.0, lo_open=True, default=0.5)
_WARMUP = _Num(0.0, 60_000.0, default=2_000.0)
_DEADLINE = _Num(0.0, 20.0, lo_open=True, default=3.0)


@dataclass(frozen=True)
class _Pipeline:
    """One compilable pipeline: target factory + its sparse knob schema."""

    factory: str
    fields: Dict[str, Any] = field(default_factory=dict)


PIPELINES: Dict[str, _Pipeline] = {
    "video": _Pipeline(
        "repro.apps.video:UhdVideoApp",
        {
            "buffers": _BUFFERS,
            "frame_bytes": _FRAME_BYTES,
            "compose_dirty_fraction": _DIRTY,
            "deadline_vsyncs": _DEADLINE,
            "warmup_ms": _WARMUP,
        },
    ),
    "video360": _Pipeline(
        "repro.apps.video:Video360App",
        {
            "buffers": _BUFFERS,
            "frame_bytes": _FRAME_BYTES,
            "compose_dirty_fraction": _Num(0.0, 1.0, lo_open=True, default=1.0),
            "deadline_vsyncs": _Num(0.0, 20.0, lo_open=True, default=3.5),
            "warmup_ms": _WARMUP,
        },
    ),
    "camera": _Pipeline(
        "repro.apps.camera:CameraApp",
        {
            "raw_buffers": _Num(1, 16, integer=True, default=3),
            "out_buffers": _Num(1, 16, integer=True, default=3),
            "frame_bytes": _FRAME_BYTES,
            "compose_dirty_fraction": _DIRTY,
            "warmup_ms": _WARMUP,
        },
    ),
    "ar": _Pipeline(
        "repro.apps.ar:ArApp",
        {
            "raw_buffers": _Num(1, 16, integer=True, default=3),
            "out_buffers": _Num(1, 16, integer=True, default=3),
            "frame_bytes": _FRAME_BYTES,
            "compose_dirty_fraction": _Num(0.0, 1.0, lo_open=True, default=1.0),
            "render_overdraw": _Num(0.0, 4.0, default=1.0),
            "warmup_ms": _WARMUP,
        },
    ),
    "livestream": _Pipeline(
        "repro.apps.livestream:LivestreamApp",
        {
            "buffers": _BUFFERS,
            "frame_bytes": _FRAME_BYTES,
            "bitstream_bytes": _Num(KIB, 64 * MIB, integer=True),
            "network_latency_ms": _Num(0.0, 100.0, default=1.2),
            "compose_dirty_fraction": _DIRTY,
            "warmup_ms": _WARMUP,
        },
    ),
    "popular": _Pipeline(
        "repro.apps.popular:PopularApp",
        {
            "render_bytes": _Num(KIB, 2_048 * MIB, integer=True),
            "svm_calls_per_frame": _Num(0, 64, integer=True),
            "svm_call_bytes": _Num(0, 64 * MIB, integer=True),
            "window_bytes": _Num(KIB, 256 * MIB, integer=True),
            "compose_dirty_fraction": _DIRTY,
            "atlas_bytes": _Num(0, 256 * MIB, integer=True),
            "warmup_ms": _WARMUP,
        },
    ),
    "heavy3d": _Pipeline(
        "repro.apps.popular:Heavy3dApp",
        {
            "render_bytes": _Num(KIB, 2_048 * MIB, integer=True,
                                 default=420 * MIB),
            "warmup_ms": _WARMUP,
        },
    ),
    "graph": _Pipeline(
        "repro.scenario.compiled:GraphApp",
        {
            "frame_rate": _Num(1.0, 240.0, default=60.0),
            "buffers": _BUFFERS,
            "frame_bytes": _FRAME_BYTES,
            "burst": _Num(1, 8, integer=True, default=1),
            "source_jitter": _Num(0.0, 0.5, default=0.04),
            "compose_dirty_fraction": _DIRTY,
            "deadline_vsyncs": _DEADLINE,
            "measure_latency": _Bool(default=False),
            "warmup_ms": _WARMUP,
            # "stages" is required and checked structurally below.
        },
    ),
}

_TOP_KEYS = ("name", "emulator", "machine", "duration_ms", "seed", "apps",
             "environment", "audit")
_APP_COMMON = ("name", "pipeline")
_ENV_KEYS = ("bus_load", "thermal", "faults")
_AUDIT_KEYS = ("interval_ms", "fence_wait_deadline_ms")


def _validate_app(path: str, stanza: Mapping) -> None:
    pipeline_name = stanza.get("pipeline")
    if pipeline_name not in PIPELINES:
        _fail(f"{path}.pipeline",
              f"unknown pipeline {pipeline_name!r} "
              f"(choices: {sorted(PIPELINES)})")
    pipeline = PIPELINES[pipeline_name]
    allowed = _APP_COMMON + tuple(pipeline.fields)
    required: Tuple[str, ...] = ("name", "pipeline")
    if pipeline_name == "graph":
        allowed = allowed + ("stages",)
        required = required + ("stages",)
    _check_keys(path, stanza, allowed, required=required)
    name = stanza["name"]
    if not isinstance(name, str) or not name:
        _fail(f"{path}.name", "expected a non-empty string")
    for key, checker in pipeline.fields.items():
        if key in stanza:
            checker.check(f"{path}.{key}", stanza[key])
    if pipeline_name == "graph":
        stages = _require_list(f"{path}.stages", stanza["stages"])
        if not 1 <= len(stages) <= MAX_GRAPH_STAGES:
            _fail(f"{path}.stages",
                  f"expected 1..{MAX_GRAPH_STAGES} stages, got {len(stages)}")
        for i, stage in enumerate(stages):
            spath = f"{path}.stages[{i}]"
            stage = _require_mapping(spath, stage)
            _check_keys(spath, stage, ("device", "op", "bytes"),
                        required=("device", "op", "bytes"))
            device = stage["device"]
            if device not in DEVICE_OPS:
                _fail(f"{spath}.device",
                      f"unknown virtual device {device!r} "
                      f"(choices: {sorted(DEVICE_OPS)})")
            if stage["op"] not in DEVICE_OPS[device]:
                _fail(f"{spath}.op",
                      f"op {stage['op']!r} is not valid on {device!r} "
                      f"(choices: {list(DEVICE_OPS[device])})")
            _Num(1, 512 * MIB, integer=True).check(f"{spath}.bytes",
                                                   stage["bytes"])


def _validate_environment(path: str, env: Mapping) -> None:
    _check_keys(path, env, _ENV_KEYS)
    for i, event in enumerate(_require_list(f"{path}.bus_load",
                                            env.get("bus_load", []))):
        epath = f"{path}.bus_load[{i}]"
        event = _require_mapping(epath, event)
        _check_keys(epath, event, ("time_ms", "bus", "load"),
                    required=("time_ms", "bus", "load"))
        _Num(0.0, 600_000.0).check(f"{epath}.time_ms", event["time_ms"])
        if event["bus"] not in KNOWN_BUSES:
            _fail(f"{epath}.bus", f"unknown bus {event['bus']!r} "
                                  f"(choices: {list(KNOWN_BUSES)})")
        load = event["load"]
        _Num(0.0, 1.0).check(f"{epath}.load", load)
        if load >= 1.0:
            _fail(f"{epath}.load", f"must be < 1, got {load!r}")
    for i, event in enumerate(_require_list(f"{path}.thermal",
                                            env.get("thermal", []))):
        epath = f"{path}.thermal[{i}]"
        event = _require_mapping(epath, event)
        _check_keys(epath, event, ("time_ms", "device", "busy_ms"),
                    required=("time_ms", "device", "busy_ms"))
        _Num(0.0, 600_000.0).check(f"{epath}.time_ms", event["time_ms"])
        if event["device"] not in MACHINE_DEVICES:
            _fail(f"{epath}.device",
                  f"unknown device {event['device']!r} "
                  f"(choices: {list(MACHINE_DEVICES)})")
        _Num(0.0, 60_000.0, lo_open=True).check(f"{epath}.busy_ms",
                                                event["busy_ms"])
    if "faults" in env:
        faults = _require_mapping(f"{path}.faults", env["faults"])
        try:
            plan = FaultPlan.from_dict(faults)
        except ConfigurationError as err:
            _fail(f"{path}.faults", str(err))
        _cross_check_plan(f"{path}.faults", plan)


def _cross_check_plan(path: str, plan: FaultPlan) -> None:
    """Plan targets must exist on every machine/emulator the schema allows,
    so a fuzzed document never dies inside the injector instead."""
    for i, event in enumerate(plan.bus_loads):
        if event.bus not in KNOWN_BUSES:
            _fail(f"{path}.bus_loads[{i}].bus",
                  f"unknown bus {event.bus!r} (choices: {list(KNOWN_BUSES)})")
    for i, window in enumerate(plan.copy_windows):
        if window.bus is not None and window.bus not in KNOWN_BUSES:
            _fail(f"{path}.copy_windows[{i}].bus",
                  f"unknown bus {window.bus!r} (choices: {list(KNOWN_BUSES)})")
    for i, stall in enumerate(plan.stalls):
        if stall.device not in MACHINE_DEVICES:
            _fail(f"{path}.stalls[{i}].device",
                  f"unknown device {stall.device!r} "
                  f"(choices: {list(MACHINE_DEVICES)})")
    for i, reset in enumerate(plan.resets):
        if reset.device not in MACHINE_DEVICES:
            _fail(f"{path}.resets[{i}].device",
                  f"unknown device {reset.device!r} "
                  f"(choices: {list(MACHINE_DEVICES)})")
    for i, crash in enumerate(plan.crashes):
        if crash.vdev not in VDEV_NAMES:
            _fail(f"{path}.crashes[{i}].vdev",
                  f"unknown virtual device {crash.vdev!r} "
                  f"(choices: {list(VDEV_NAMES)})")


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------

def normalize_scenario(doc: Mapping) -> Dict[str, Any]:
    """Deep-copy with top-level defaults filled; app stanzas stay sparse."""
    out: Dict[str, Any] = copy.deepcopy(dict(doc))
    out.setdefault("machine", DEFAULT_MACHINE)
    out.setdefault("duration_ms", DEFAULT_DURATION_MS)
    out.setdefault("seed", 0)
    return out


def validate_scenario(doc: Mapping) -> Dict[str, Any]:
    """Validate one scenario document; returns the normalized deep copy.

    Raises :class:`~repro.errors.ConfigurationError` whose message begins
    with the dotted path of the offending node.
    """
    doc = _require_mapping("scenario", doc)
    out = normalize_scenario(doc)
    _check_keys("scenario", out, _TOP_KEYS,
                required=("name", "emulator", "apps"))
    if not isinstance(out["name"], str) or not out["name"]:
        _fail("scenario.name", "expected a non-empty string")
    if out["emulator"] not in EMULATOR_FACTORIES:
        _fail("scenario.emulator",
              f"unknown emulator {out['emulator']!r} "
              f"(choices: {sorted(EMULATOR_FACTORIES)})")
    if out["machine"] not in MACHINE_SPECS:
        _fail("scenario.machine",
              f"unknown machine {out['machine']!r} "
              f"(choices: {sorted(MACHINE_SPECS)})")
    _Num(0.0, 600_000.0, lo_open=True).check("scenario.duration_ms",
                                             out["duration_ms"])
    _Num(0, 2**32 - 1, integer=True).check("scenario.seed", out["seed"])

    apps = _require_list("scenario.apps", out["apps"])
    if not 1 <= len(apps) <= MAX_APPS:
        _fail("scenario.apps", f"expected 1..{MAX_APPS} apps, got {len(apps)}")
    names = set()
    for i, stanza in enumerate(apps):
        path = f"scenario.apps[{i}]"
        stanza = _require_mapping(path, stanza)
        _validate_app(path, stanza)
        if stanza["name"] in names:
            _fail(f"{path}.name", f"duplicate app name {stanza['name']!r}")
        names.add(stanza["name"])

    if "environment" in out:
        _validate_environment("scenario.environment",
                              _require_mapping("scenario.environment",
                                               out["environment"]))
    if "audit" in out:
        audit = _require_mapping("scenario.audit", out["audit"])
        _check_keys("scenario.audit", audit, _AUDIT_KEYS)
        if "interval_ms" in audit:
            _Num(0.0, 10_000.0, lo_open=True).check(
                "scenario.audit.interval_ms", audit["interval_ms"])
        if "fence_wait_deadline_ms" in audit:
            _Num(0.0, 60_000.0, lo_open=True).check(
                "scenario.audit.fence_wait_deadline_ms",
                audit["fence_wait_deadline_ms"])
    return out


def canonical_json(doc: Mapping) -> str:
    """The canonical serialized form (stable key order, no whitespace)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def scenario_digest(doc: Mapping) -> str:
    """sha256 of the normalized document — the id REPRODUCE lines carry."""
    return hashlib.sha256(
        canonical_json(normalize_scenario(doc)).encode("utf-8")
    ).hexdigest()
