"""Emulator assemblies: vSoC and the five comparison emulators of §5.1.

Every emulator is an :class:`~repro.emulators.base.Emulator` built from an
:class:`~repro.emulators.base.EmulatorConfig`: a coherence protocol class
(which also fixes the memory architecture, unified vs guest-memory), an
ordering mechanism, a virtual→physical device mapping policy, and
per-implementation efficiency factors. The factory functions return ready
instances bound to a simulator and host machine.
"""

from repro.emulators.base import Emulator, EmulatorConfig, StageResult, VDEV_NAMES
from repro.emulators.commercial import make_bluestacks, make_ldplayer
from repro.emulators.gae import make_gae
from repro.emulators.qemu_kvm import make_qemu_kvm
from repro.emulators.trinity import make_trinity
from repro.emulators.vsoc import make_vsoc

#: The evaluation's emulator lineup, by report name.
EMULATOR_FACTORIES = {
    "vSoC": make_vsoc,
    "GAE": make_gae,
    "QEMU-KVM": make_qemu_kvm,
    "LDPlayer": make_ldplayer,
    "Bluestacks": make_bluestacks,
    "Trinity": make_trinity,
}

__all__ = [
    "Emulator",
    "EmulatorConfig",
    "StageResult",
    "VDEV_NAMES",
    "make_vsoc",
    "make_gae",
    "make_qemu_kvm",
    "make_ldplayer",
    "make_bluestacks",
    "make_trinity",
    "EMULATOR_FACTORIES",
]
