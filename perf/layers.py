"""Layer map of ``src/repro`` and cProfile self-time attribution.

Every module under ``src/repro`` belongs to exactly one layer. A module
is looked up by its own path first (``sim/kernel``), then by its
top-level package (``hw``). ``sim`` and ``core`` are split across layers,
so their modules are listed one by one: a new module there must be
classified here before the traced run stops charging it to ``other``.

Self time of a function defined in ``src/repro`` goes to its module's
layer. Self time of a builtin or stdlib function goes to the layers of
its callers, split by pstats' per-caller times, recursively through
callers that are themselves builtin or stdlib.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

SRC_REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"

LAYERS = (
    "sim", "sim.tracing", "sim.fastforward", "sim.resilience", "hw", "guest",
    "apps", "core.manager", "core.coherence", "emulators", "metrics", "obs",
    "experiments", "other",
)

_CORE_MANAGER = (
    "__init__", "manager", "region", "hypergraph", "ordering", "fence",
    "flowcontrol", "smoothing", "degradation",
)

LAYER_MAP: Dict[str, str] = {
    "sim/__init__": "sim",
    "sim/kernel": "sim",
    "sim/primitives": "sim",
    "sim/eventq": "sim",
    "sim/tracing": "sim.tracing",
    "sim/fastforward": "sim.fastforward",
    "sim/resilience": "sim.resilience",
    "hw": "hw",
    "guest": "guest",
    "apps": "apps",
    **{f"core/{name}": "core.manager" for name in _CORE_MANAGER},
    "core/coherence": "core.coherence",
    "core/prefetch": "core.coherence",
    "core/twin": "core.coherence",
    "emulators": "emulators",
    "metrics": "metrics",
    "obs": "obs",
    "experiments": "experiments",
    # Not on the paper's run path; kept apart so `other.share` shows it.
    "__init__": "other",
    "errors": "other",
    "units": "other",
    "faults": "other",
    "fleet": "other",
    "recovery": "other",
    "scenario": "other",
    "workloads": "other",
}

#: Functions whose call counts feed the ratio and count metrics.
COUNTED = {
    "resumes": ("sim/kernel.py", "_step"),
    "cancels": ("sim/kernel.py", "cancel"),
    "schedules": ("sim/kernel.py", "schedule"),
    "span_begins": ("obs/span.py", "begin"),
    "span_instants": ("obs/span.py", "instant"),
}


def layer_of(relpath: str) -> Optional[str]:
    """The layer of ``src/repro/<relpath>``, or None when unmapped."""
    key = relpath[:-3] if relpath.endswith(".py") else relpath
    if key in LAYER_MAP:
        return LAYER_MAP[key]
    package = key.split("/", 1)[0]
    if "/" in key and package in LAYER_MAP and package not in ("sim", "core"):
        return LAYER_MAP[package]
    return None


def unmapped_modules(root: Path = SRC_REPRO) -> List[str]:
    """Every ``*.py`` under ``root`` that no rule maps to a layer."""
    return sorted(
        rel for rel in (p.relative_to(root).as_posix() for p in root.rglob("*.py"))
        if layer_of(rel) is None
    )


def _relpath(filename: str, root: Path) -> Optional[str]:
    try:
        return Path(filename).resolve().relative_to(root).as_posix()
    except (ValueError, OSError):
        return None


def attribute(stats: Dict[Tuple[str, int, str], Any], root: Path = SRC_REPRO
              ) -> Tuple[Dict[str, float], Dict[str, int], Dict[str, int]]:
    """Charge a ``pstats.Stats(...).stats`` table to layers.

    Returns ``(self_s, calls, counted)``: self seconds and call counts per
    layer, and the call counts of the :data:`COUNTED` functions. Calls
    count only functions defined in ``src/repro``; builtin and stdlib
    calls add time to their callers' layers but no calls.
    """
    root = root.resolve()
    home: Dict[Tuple[str, int, str], Optional[str]] = {}
    self_s = {layer: 0.0 for layer in LAYERS}
    calls = {layer: 0 for layer in LAYERS}
    counted = {name: 0 for name in COUNTED}
    for key, (_cc, nc, tt, _ct, _callers) in stats.items():
        rel = _relpath(key[0], root) if not key[0].startswith("~") else None
        layer = None if rel is None else (layer_of(rel) or "other")
        home[key] = layer
        if layer is not None:
            self_s[layer] += tt
            calls[layer] += nc
            for name, (path, func) in COUNTED.items():
                if rel == path and key[2] == func:
                    counted[name] += nc

    shares: Dict[Tuple[str, int, str], Dict[str, float]] = {}

    def share_of(key) -> Dict[str, float]:
        layer = home.get(key)
        if layer is not None:
            return {layer: 1.0}
        if key in shares:
            return shares[key]
        # Direct recursion follows the outer callers; a longer cycle
        # through foreign functions lands in `other`.
        shares[key] = {"other": 1.0}
        callers = {c: v for c, v in stats.get(key, (0, 0, 0, 0, {}))[4].items()
                   if c != key}
        total = sum(v[2] for v in callers.values())
        if total > 0:
            mix: Dict[str, float] = {}
            for caller, (_cc, _nc, tt, _ct) in callers.items():
                for layer, frac in share_of(caller).items():
                    mix[layer] = mix.get(layer, 0.0) + frac * tt / total
            shares[key] = mix
        return shares[key]

    for key, (_cc, _nc, tt, _ct, _callers) in stats.items():
        if home[key] is None:
            for layer, frac in share_of(key).items():
                self_s[layer] += tt * frac
    return self_s, calls, counted
