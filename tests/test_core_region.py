"""Unit tests for SVM regions (repro.core.region)."""

import pytest

from repro.core import AccessUsage, SvmRegion, location_of
from repro.core.region import GUEST_LOCATION, HOST_LOCATION
from repro.errors import AccessStateError, SvmError
from repro.hw import MemoryPool
from repro.units import MIB


def test_usage_flags():
    assert AccessUsage.READ.reads and not AccessUsage.READ.writes
    assert AccessUsage.WRITE.writes and not AccessUsage.WRITE.reads
    assert AccessUsage.READ_WRITE.reads and AccessUsage.READ_WRITE.writes


def test_new_region_is_coherent_everywhere():
    region = SvmRegion(1, MIB)
    assert region.is_valid_at("gpu")
    assert region.is_valid_at(HOST_LOCATION)


def test_write_invalidates_other_locations():
    region = SvmRegion(1, MIB)
    region.note_copy("gpu")
    region.note_write("codec", HOST_LOCATION, MIB)
    assert region.is_valid_at(HOST_LOCATION)
    assert not region.is_valid_at("gpu")
    assert region.last_writer_vdev == "codec"
    assert region.dirty_bytes == MIB


def test_copy_extends_valid_set():
    region = SvmRegion(1, MIB)
    region.note_write("codec", HOST_LOCATION, MIB)
    region.note_copy("gpu")
    assert region.is_valid_at("gpu")
    assert region.is_valid_at(HOST_LOCATION)


def test_write_clears_prefetch_state():
    region = SvmRegion(1, MIB)
    region.prefetch_targets = {"gpu"}
    region.prefetch_predicted_slack = 2.0
    region.note_write("codec", HOST_LOCATION, MIB)
    assert region.prefetch_targets == set()
    assert region.prefetch_predicted_slack is None
    assert region.pending_prefetch is None


def test_access_bracket_pairing():
    region = SvmRegion(1, MIB)
    region.open_access("gpu", AccessUsage.READ, MIB)
    assert region.open_accessors == {"gpu"}
    opened = region.close_access("gpu")
    assert opened.usage is AccessUsage.READ
    assert region.open_accessors == set()


def test_double_begin_access_rejected():
    region = SvmRegion(1, MIB)
    region.open_access("gpu", AccessUsage.READ, MIB)
    with pytest.raises(AccessStateError):
        region.open_access("gpu", AccessUsage.READ, MIB)


def test_end_access_without_begin_rejected():
    region = SvmRegion(1, MIB)
    with pytest.raises(AccessStateError):
        region.close_access("gpu")


def test_oversized_window_rejected():
    region = SvmRegion(1, MIB)
    with pytest.raises(SvmError):
        region.open_access("gpu", AccessUsage.READ, 2 * MIB)


def test_access_to_freed_region_rejected():
    region = SvmRegion(1, MIB)
    region.freed = True
    with pytest.raises(SvmError):
        region.open_access("gpu", AccessUsage.READ, MIB)


def test_zero_size_region_rejected():
    with pytest.raises(SvmError):
        SvmRegion(1, 0)


def test_reader_writer_vdev_tracking():
    region = SvmRegion(1, MIB)
    region.open_access("codec", AccessUsage.WRITE, MIB)
    region.close_access("codec")
    region.open_access("gpu", AccessUsage.READ, MIB)
    region.close_access("gpu")
    assert region.writer_vdevs == {"codec"}
    assert region.reader_vdevs == {"gpu"}
    assert region.total_accesses == 2


def test_release_backing_frees_pools():
    pool = MemoryPool("vram", 4 * MIB)
    region = SvmRegion(1, MIB)
    region.backing["gpu"] = pool.allocate(MIB)
    region.release_backing()
    assert pool.in_use == 0
    assert region.backing == {}


def test_location_of_uses_local_memory():
    class FakeDev:
        def __init__(self, name, local):
            self.name = name
            self.local_memory = local

    assert location_of(FakeDev("gpu", object())) == "gpu"
    assert location_of(FakeDev("cpu", None)) == HOST_LOCATION


def test_guest_location_distinct():
    assert GUEST_LOCATION != HOST_LOCATION
