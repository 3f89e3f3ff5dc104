"""Unit tests for the crash-aware sector device."""

import hashlib

import pytest

from repro.disk.device import SectorDevice
from repro.errors import DeviceCrashedError, OutOfRangeError


@pytest.fixture
def device() -> SectorDevice:
    return SectorDevice(num_sectors=128)


class TestBasicIO:
    def test_fresh_device_reads_zeros(self, device):
        assert device.read(0, 2) == b"\x00" * 1024

    def test_write_then_read(self, device):
        payload = bytes(range(256)) * 2
        device.write(4, payload)
        assert device.read(4, 1) == payload

    def test_multi_sector_write(self, device):
        payload = b"ab" * 512  # two sectors
        device.write(10, payload)
        assert device.read(10, 2) == payload

    def test_read_out_of_range(self, device):
        with pytest.raises(OutOfRangeError):
            device.read(127, 2)
        with pytest.raises(OutOfRangeError):
            device.read(-1, 1)

    def test_zero_count_read_rejected(self, device):
        with pytest.raises(OutOfRangeError):
            device.read(0, 0)

    def test_unaligned_write_rejected(self, device):
        with pytest.raises(OutOfRangeError):
            device.write(0, b"x" * 100)

    def test_write_out_of_range(self, device):
        with pytest.raises(OutOfRangeError):
            device.write(127, b"x" * 1024)

    def test_counters(self, device):
        device.write(0, b"a" * 512)
        device.read(0, 1)
        device.read(0, 2)
        assert device.total_sectors_written == 1
        assert device.total_sectors_read == 3


class TestCrashSemantics:
    def test_crash_rolls_back_undurable_write(self, device):
        device.write(0, b"a" * 512, completion_time=5.0)
        device.crash(now=1.0)  # crash before the write completed
        device.revive()
        assert device.read(0, 1) == b"\x00" * 512

    def test_crash_keeps_completed_write(self, device):
        device.write(0, b"a" * 512, completion_time=5.0)
        device.crash(now=5.0)
        device.revive()
        assert device.read(0, 1) == b"a" * 512

    def test_rollback_is_ordered(self, device):
        device.write(0, b"a" * 512, completion_time=1.0)
        device.write(0, b"b" * 512, completion_time=3.0)
        device.crash(now=2.0)  # second write lost, first survives
        device.revive()
        assert device.read(0, 1) == b"a" * 512

    def test_overlapping_rollback_reverse_order(self, device):
        device.write(0, b"a" * 1024, completion_time=5.0)
        device.write(1, b"b" * 512, completion_time=6.0)
        device.crash(now=0.0)
        device.revive()
        assert device.read(0, 2) == b"\x00" * 1024

    def test_io_rejected_while_crashed(self, device):
        device.crash(now=0.0)
        with pytest.raises(DeviceCrashedError):
            device.read(0, 1)
        with pytest.raises(DeviceCrashedError):
            device.write(0, b"x" * 512)

    def test_revive_restores_io(self, device):
        device.write(0, b"z" * 512, completion_time=0.0)
        device.mark_durable(0.0)
        device.crash(now=1.0)
        device.revive()
        assert device.read(0, 1) == b"z" * 512

    def test_mark_durable_trims_pending(self, device):
        device.write(0, b"a" * 512, completion_time=1.0)
        device.write(1, b"b" * 512, completion_time=2.0)
        assert device.pending_writes() == 2
        device.mark_durable(1.5)
        assert device.pending_writes() == 1

    def test_reads_see_pending_writes(self, device):
        device.write(0, b"q" * 512, completion_time=100.0)
        assert device.read(0, 1) == b"q" * 512

    def test_snapshot_copies_image(self, device):
        device.write(0, b"s" * 512)
        image = device.snapshot()
        assert image[:512] == b"s" * 512
        assert len(image) == device.total_bytes

    def test_image_sha256_hashes_live_image_without_moving_counters(self, device):
        device.write(0, b"h" * 512, completion_time=100.0)
        state = {k: v for k, v in vars(device).items() if k != "_data"}
        digest = device.image_sha256()
        assert {k: v for k, v in vars(device).items() if k != "_data"} == state
        assert digest == hashlib.sha256(device.snapshot()).hexdigest()
        device.write(1, b"i" * 512)
        assert device.image_sha256() != digest


class TestConstruction:
    def test_rejects_zero_sectors(self):
        with pytest.raises(ValueError):
            SectorDevice(num_sectors=0)

    def test_rejects_bad_sector_size(self):
        with pytest.raises(ValueError):
            SectorDevice(num_sectors=8, sector_size=0)

    def test_total_bytes(self):
        assert SectorDevice(num_sectors=16, sector_size=512).total_bytes == 8192
