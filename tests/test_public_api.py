"""The public API surface imports cleanly and exposes what the docs promise."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.hw",
    "repro.guest",
    "repro.core",
    "repro.emulators",
    "repro.apps",
    "repro.metrics",
    "repro.workloads",
    "repro.experiments",
    "repro.experiments.ablations",
    "repro.experiments.sweeps",
    "repro.experiments.density",
    "repro.experiments.validate",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports(package):
    module = importlib.import_module(package)
    assert module is not None


@pytest.mark.parametrize("package", [
    "repro.sim", "repro.hw", "repro.core", "repro.emulators", "repro.apps",
    "repro.metrics", "repro.workloads", "repro.obs",
])
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{package}.__all__ lists missing {name}"


def test_readme_quickstart_names_exist():
    """Every symbol the README's quickstart uses must exist."""
    from repro.emulators import make_vsoc  # noqa: F401
    from repro.hw import HIGH_END_DESKTOP, build_machine  # noqa: F401
    from repro.sim import Simulator, Timeout  # noqa: F401
    from repro.units import UHD_FRAME_BYTES  # noqa: F401
