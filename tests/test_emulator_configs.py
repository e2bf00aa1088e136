"""Invariants across the emulator configurations (calibration sanity)."""

from repro.core.coherence import GuestMemoryWriteInvalidate, UnifiedPrefetchProtocol
from repro.emulators.commercial import bluestacks_config, ldplayer_config
from repro.emulators.gae import gae_config
from repro.emulators.qemu_kvm import qemu_kvm_config
from repro.emulators.trinity import trinity_config
from repro.emulators.vsoc import vsoc_config

ALL_CONFIGS = {
    "vSoC": vsoc_config(),
    "GAE": gae_config(),
    "QEMU-KVM": qemu_kvm_config(),
    "LDPlayer": ldplayer_config(),
    "Bluestacks": bluestacks_config(),
    "Trinity": trinity_config(),
}


def test_only_vsoc_has_unified_svm():
    """vSoC runs the prefetch protocol over unified SVM; every baseline
    keeps coherence through guest memory (§2.2)."""
    assert ALL_CONFIGS["vSoC"].coherence is UnifiedPrefetchProtocol
    for name, config in ALL_CONFIGS.items():
        if name != "vSoC":
            assert config.coherence is GuestMemoryWriteInvalidate, name


def test_only_vsoc_uses_fences():
    from repro.core.ordering import OrderingMode

    assert ALL_CONFIGS["vSoC"].ordering is OrderingMode.FENCES
    for name, config in ALL_CONFIGS.items():
        if name != "vSoC":
            assert config.ordering is OrderingMode.ATOMIC, name


def test_only_vsoc_has_hardware_codecs():
    """§5.3: the baselines decode in software (the thermal story depends
    on it); vSoC uses the GPU's decode engine."""
    assert ALL_CONFIGS["vSoC"].hw_codec
    for name, config in ALL_CONFIGS.items():
        if name != "vSoC":
            assert not config.hw_codec, name


def test_decode_efficiency_ordering():
    """GAE has the best software decoder, Trinity (Android-x86) the worst."""
    scales = {name: c.decode_scale for name, c in ALL_CONFIGS.items()}
    assert scales["GAE"] <= scales["QEMU-KVM"] <= scales["LDPlayer"]
    assert scales["LDPlayer"] <= scales["Bluestacks"] < scales["Trinity"]


def test_trinity_has_best_baseline_gpu():
    render = {name: c.render_scale for name, c in ALL_CONFIGS.items()}
    assert render["Trinity"] == min(render.values())
    assert render["QEMU-KVM"] == max(render.values())  # virgl overhead


def test_qemu_boundary_faster_than_gae():
    """Table 2: QEMU's coherence (6.15 ms) beats GAE's (7.05 ms)."""
    assert (ALL_CONFIGS["QEMU-KVM"].coherence_bandwidth_scale
            > ALL_CONFIGS["GAE"].coherence_bandwidth_scale == 1.0)


def test_commercial_emulators_stall():
    for name in ("LDPlayer", "Bluestacks"):
        assert ALL_CONFIGS[name].stall_period_ms > 0, name
    assert (ALL_CONFIGS["Bluestacks"].stall_duration_ms
            > ALL_CONFIGS["LDPlayer"].stall_duration_ms)


def test_access_overhead_matches_table2():
    """GAE's extra per-access cost lifts it to ~0.76 ms over the 0.22 floor."""
    assert ALL_CONFIGS["QEMU-KVM"].extra_access_overhead_ms == 0.0
    assert 0.4 < ALL_CONFIGS["GAE"].extra_access_overhead_ms < 0.6
