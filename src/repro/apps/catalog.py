"""The workload catalog: Table 1's 50 emerging apps + the top-25 popular apps.

Parameters are jittered deterministically per app (seeded by the app name)
so the ten apps of a category behave like ten different real apps rather
than ten clones.

Runnability
-----------
§5.3 reports exactly how many apps each emulator can run (emerging:
48/47/42/43/44/20 of 50; popular: 25/21/17/25/24/24 of 25). Structural
capability gaps (Trinity's missing camera and encoder) are enforced by the
emulators themselves; the remaining failures are app-specific crashes/ANRs
the paper observed, reproduced here as an explicit compatibility table.
QEMU-KVM's popular-app failures concentrate on the heavy games — the
reason its Figure 15 bar (over the apps it *can* run) looks better than
GAE's.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.apps.ar import ArApp
from repro.apps.base import App
from repro.apps.camera import CameraApp
from repro.apps.livestream import LivestreamApp
from repro.apps.popular import Heavy3dApp, PopularApp
from repro.apps.video import UhdVideoApp, Video360App
from repro.units import MIB

#: (dotted factory path, ctor kwargs) — the declarative form of one app.
#: The experiment engine ships these across process boundaries and hashes
#: them into cache keys, so they must stay plain picklable data.
AppParams = Tuple[str, Dict[str, Any]]

_FACTORY_PATHS = {
    UhdVideoApp: "repro.apps.video:UhdVideoApp",
    Video360App: "repro.apps.video:Video360App",
    CameraApp: "repro.apps.camera:CameraApp",
    ArApp: "repro.apps.ar:ArApp",
    LivestreamApp: "repro.apps.livestream:LivestreamApp",
    PopularApp: "repro.apps.popular:PopularApp",
    Heavy3dApp: "repro.apps.popular:Heavy3dApp",
}


def app_factory_path(cls: type) -> str:
    """The dotted ``"pkg.mod:Name"`` path of a catalog app class."""
    try:
        return _FACTORY_PATHS[cls]
    except KeyError:
        return f"{cls.__module__}:{cls.__qualname__}"


def resolve_callable(path: str) -> Callable[..., Any]:
    """The callable a dotted ``"pkg.mod:name"`` path names.

    Specs address app constructors, emulator factories and point
    functions this way, so they stay plain picklable data.
    """
    module_name, _, attr = path.partition(":")
    module = __import__(module_name, fromlist=[attr])
    return getattr(module, attr)


def build_app(params: AppParams) -> App:
    """Instantiate one app from its declarative (factory, kwargs) form."""
    path, kwargs = params
    return resolve_callable(path)(**kwargs)

#: Table 1 categories, in the paper's row order.
EMERGING_CATEGORIES = ("UHD Video", "360 Video", "Camera", "AR", "Livestream")

#: Apps each emulator cannot run (crash / ANR within the 5-minute test).
#: Structural gaps (Trinity: all Camera/AR/Livestream apps) are *not*
#: listed — the capability system handles those.
EMERGING_INCOMPATIBLE: Dict[str, Sequence[str]] = {
    "vSoC": ("ar-07", "ar-09"),
    "GAE": ("ar-07", "ar-09", "live-03"),
    "QEMU-KVM": (
        "ar-05", "ar-07", "ar-09", "cam-06", "live-02", "live-03", "360-08", "uhd-09",
    ),
    "LDPlayer": ("ar-07", "ar-09", "cam-04", "live-03", "live-08", "360-05", "uhd-02"),
    "Bluestacks": ("ar-07", "ar-09", "live-03", "cam-02", "360-05", "uhd-06"),
    "Trinity": (),
}

POPULAR_INCOMPATIBLE: Dict[str, Sequence[str]] = {
    "vSoC": (),
    # GAE's four popular-app failures are all light apps, which skews the
    # set it *can* run toward the heavy end — one reason its Figure 15 bar
    # trails even QEMU-KVM's (computed over QEMU's lighter runnable set).
    "GAE": ("pop-02", "pop-04", "pop-06", "pop-08"),
    "QEMU-KVM": (
        # all six heavy games + two medium apps
        "pop-20", "pop-21", "pop-22", "pop-23", "pop-24", "pop-25", "pop-12", "pop-15",
    ),
    "LDPlayer": (),
    "Bluestacks": ("pop-17",),
    "Trinity": ("pop-09",),
}


def can_run(app_name: str, emulator_name: str) -> bool:
    """Compatibility-table check (capability gaps are checked at install)."""
    table = EMERGING_INCOMPATIBLE if not app_name.startswith("pop-") else POPULAR_INCOMPATIBLE
    return app_name not in table.get(emulator_name, ())


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"{name}:{seed}")


def emerging_app_params(seed: int = 0, per_category: int = 10) -> List[AppParams]:
    """Declarative parameters for the 50 emerging apps of Table 1.

    The rng draw order per app matches the historical inline construction,
    so the jittered parameters (and therefore every published number) are
    unchanged.
    """
    params: List[AppParams] = []
    for i in range(per_category):
        r = _rng(f"uhd-{i}", seed)
        params.append((_FACTORY_PATHS[UhdVideoApp], dict(
            name=f"uhd-{i + 1:02d}",
            buffers=r.choice((3, 4, 4, 5)),
            compose_dirty_fraction=r.uniform(0.45, 0.6),
            deadline_vsyncs=r.uniform(2.5, 3.5),
        )))
    for i in range(per_category):
        r = _rng(f"360-{i}", seed)
        params.append((_FACTORY_PATHS[Video360App], dict(
            name=f"360-{i + 1:02d}",
            buffers=r.choice((3, 4, 4, 5)),
            deadline_vsyncs=r.uniform(3.0, 4.0),
        )))
    for i in range(per_category):
        r = _rng(f"cam-{i}", seed)
        params.append((_FACTORY_PATHS[CameraApp], dict(
            name=f"cam-{i + 1:02d}",
            raw_buffers=r.choice((3, 3, 4)),
            out_buffers=r.choice((3, 3, 4)),
            # Full-screen viewfinder: nearly the whole frame is damage.
            compose_dirty_fraction=r.uniform(0.85, 1.0),
        )))
    for i in range(per_category):
        r = _rng(f"ar-{i}", seed)
        params.append((_FACTORY_PATHS[ArApp], dict(
            name=f"ar-{i + 1:02d}",
            render_overdraw=r.uniform(0.8, 1.4),
        )))
    for i in range(per_category):
        r = _rng(f"live-{i}", seed)
        params.append((_FACTORY_PATHS[LivestreamApp], dict(
            name=f"live-{i + 1:02d}",
            buffers=r.choice((3, 4, 4, 5)),
            network_latency_ms=r.uniform(0.8, 2.0),
        )))
    return params


def emerging_apps(seed: int = 0, per_category: int = 10) -> List[App]:
    """Instantiate the 50 emerging apps of Table 1 (fresh objects each call)."""
    return [build_app(p) for p in emerging_app_params(seed, per_category)]


#: (tier, count): the top-25 popular mix — mostly light/medium UI apps with
#: a tail of heavy games (the apps QEMU-KVM cannot run).
_POPULAR_TIERS = (
    ("light", 10),
    ("medium", 9),
    ("heavy", 6),
)


def popular_app_params(seed: int = 0) -> List[AppParams]:
    """Declarative parameters for the top-25 popular apps of §5.5."""
    params: List[AppParams] = []
    index = 1
    for tier, count in _POPULAR_TIERS:
        for _ in range(count):
            name = f"pop-{index:02d}"
            r = _rng(name, seed)
            # render_bytes is fill-rate work (pixels x overdraw layers), so
            # realistic UHD figures are far above one framebuffer's size.
            # Window buffers reflect the app's *internal* render resolution
            # (apps upscale; they rarely draw UI at native 4K).
            if tier == "light":
                params.append((_FACTORY_PATHS[PopularApp], dict(
                    name=name,
                    render_bytes=int(r.uniform(30, 80) * MIB),
                    svm_calls_per_frame=r.randint(4, 8),
                    svm_call_bytes=int(r.uniform(0.3, 1.2) * MIB),
                    window_bytes=int(r.uniform(4, 8) * MIB),
                    compose_dirty_fraction=r.uniform(0.2, 0.35),
                    atlas_bytes=int(r.uniform(2, 4) * MIB),
                )))
            elif tier == "medium":
                params.append((_FACTORY_PATHS[PopularApp], dict(
                    name=name,
                    render_bytes=int(r.uniform(180, 360) * MIB),
                    svm_calls_per_frame=r.randint(8, 14),
                    svm_call_bytes=int(r.uniform(0.5, 1.5) * MIB),
                    window_bytes=int(r.uniform(10, 14) * MIB),
                    compose_dirty_fraction=r.uniform(0.35, 0.5),
                    atlas_bytes=int(r.uniform(8, 15) * MIB),
                )))
            else:
                params.append((_FACTORY_PATHS[Heavy3dApp], dict(
                    name=name,
                    render_bytes=int(r.uniform(380, 460) * MIB),
                )))
            index += 1
    return params
