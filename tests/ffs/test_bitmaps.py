"""Unit tests for cylinder-group bitmaps."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptionError, InvalidArgumentError
from repro.ffs.bitmaps import Bitmap


class TestBasics:
    def test_starts_free(self):
        bitmap = Bitmap(100)
        assert bitmap.free_count == 100
        assert bitmap.used_count == 0
        assert not bitmap.is_set(0)

    def test_set_clear(self):
        bitmap = Bitmap(10)
        bitmap.set(3)
        assert bitmap.is_set(3)
        assert bitmap.free_count == 9
        bitmap.clear(3)
        assert not bitmap.is_set(3)
        assert bitmap.free_count == 10

    def test_double_set_raises(self):
        bitmap = Bitmap(10)
        bitmap.set(0)
        with pytest.raises(CorruptionError):
            bitmap.set(0)

    def test_double_clear_raises(self):
        bitmap = Bitmap(10)
        with pytest.raises(CorruptionError):
            bitmap.clear(0)

    def test_bounds(self):
        bitmap = Bitmap(8)
        with pytest.raises(InvalidArgumentError):
            bitmap.is_set(8)
        with pytest.raises(InvalidArgumentError):
            bitmap.set(-1)

    def test_zero_bits_rejected(self):
        with pytest.raises(InvalidArgumentError):
            Bitmap(0)


class TestAllocNear:
    def test_takes_hint_when_free(self):
        bitmap = Bitmap(32)
        assert bitmap.alloc_near(10) == 10

    def test_scans_forward(self):
        bitmap = Bitmap(32)
        bitmap.set(10)
        bitmap.set(11)
        assert bitmap.alloc_near(10) == 12

    def test_wraps_around(self):
        bitmap = Bitmap(4)
        bitmap.set(2)
        bitmap.set(3)
        assert bitmap.alloc_near(2) == 0

    def test_exhausted_returns_none(self):
        bitmap = Bitmap(2)
        bitmap.set(0)
        bitmap.set(1)
        assert bitmap.alloc_near(0) is None

    def test_sequential_allocation_pattern(self):
        # The FFS layout property: consecutive hints give consecutive
        # blocks.
        bitmap = Bitmap(64)
        prev = bitmap.alloc_near(0)
        for _ in range(10):
            nxt = bitmap.alloc_near(prev + 1)
            assert nxt == prev + 1
            prev = nxt

    def test_out_of_range_hint_clamped(self):
        bitmap = Bitmap(8)
        assert bitmap.alloc_near(100) == 7


class TestSerialization:
    def test_roundtrip(self):
        bitmap = Bitmap(19)
        for i in (0, 7, 8, 18):
            bitmap.set(i)
        other = Bitmap.from_bytes(bitmap.to_bytes(), 19)
        assert other == bitmap
        assert other.free_count == 15

    def test_padding_bits_masked(self):
        data = b"\xff\xff\xff"
        bitmap = Bitmap.from_bytes(data, 19)
        assert bitmap.used_count == 19

    def test_short_data_rejected(self):
        with pytest.raises(CorruptionError):
            Bitmap.from_bytes(b"\x00", 19)

    def test_iter_set(self):
        bitmap = Bitmap(16)
        bitmap.set(1)
        bitmap.set(9)
        assert list(bitmap.iter_set()) == [1, 9]

    def test_equality(self):
        a, b = Bitmap(8), Bitmap(8)
        assert a == b
        a.set(1)
        assert a != b


# -- oracle: the byte-level search vs a bit-by-bit scan ------------------


def _reference_alloc(bits, hint):
    """The bit-at-a-time wrap-around scan ``alloc_near`` replaced."""
    nbits = len(bits)
    hint = max(0, min(hint, nbits - 1))
    for index in list(range(hint, nbits)) + list(range(0, hint)):
        if not bits[index]:
            bits[index] = True
            return index
    return None


def _reference_bytes(bits):
    out = bytearray((len(bits) + 7) // 8)
    for index, bit in enumerate(bits):
        if bit:
            out[index // 8] |= 1 << (index % 8)
    return bytes(out)


class TestAllocNearOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_bit_by_bit_scan(self, data):
        nbits = data.draw(st.integers(min_value=1, max_value=200), "nbits")
        raw = data.draw(
            st.binary(min_size=(nbits + 7) // 8, max_size=(nbits + 7) // 8)
            | st.sampled_from([b"\xff" * ((nbits + 7) // 8)]),
            "raw",
        )
        # from_bytes masks padding bits past nbits, whatever raw holds.
        bitmap = Bitmap.from_bytes(raw, nbits)
        bits = [bool(raw[i // 8] & (1 << (i % 8))) for i in range(nbits)]
        assert bitmap.to_bytes() == _reference_bytes(bits)
        hints = data.draw(
            st.lists(
                st.integers(min_value=-3, max_value=nbits + 10)
                | st.integers(min_value=nbits - 9, max_value=nbits - 1),
                min_size=1,
                max_size=nbits + 5,
            ),
            "hints",
        )
        for hint in hints:
            was_full = bitmap.free_count == 0
            expected = _reference_alloc(bits, hint)
            got = bitmap.alloc_near(hint)
            assert got == expected
            assert (got is None) == was_full
            assert bitmap.to_bytes() == _reference_bytes(bits)
            assert bitmap.free_count == bits.count(False)
