"""Workloads: the five emerging-app categories of Table 1 plus popular apps."""

from repro.apps.ar import ArApp
from repro.apps.base import App, AppResult
from repro.apps.camera import CameraApp
from repro.apps.catalog import (
    EMERGING_CATEGORIES,
    emerging_apps,
    can_run,
)
from repro.apps.livestream import LivestreamApp
from repro.apps.popular import Heavy3dApp, PopularApp
from repro.apps.video import ShortFormVideoApp, UhdVideoApp, Video360App

__all__ = [
    "App",
    "AppResult",
    "UhdVideoApp",
    "Video360App",
    "ShortFormVideoApp",
    "CameraApp",
    "ArApp",
    "LivestreamApp",
    "PopularApp",
    "Heavy3dApp",
    "EMERGING_CATEGORIES",
    "emerging_apps",
    "can_run",
]
