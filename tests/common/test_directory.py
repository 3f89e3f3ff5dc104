"""Unit tests for the directory block format."""

import struct

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.common.directory import (
    DirectoryBlock,
    MAX_NAME_LEN,
    entry_size,
    validate_name,
)
from repro.errors import CorruptionError, InvalidArgumentError

BS = 1024


class TestValidateName:
    def test_accepts_normal_names(self):
        validate_name("file.txt")
        validate_name("ünïcode")

    def test_rejects_empty(self):
        with pytest.raises(InvalidArgumentError):
            validate_name("")

    def test_rejects_slash(self):
        with pytest.raises(InvalidArgumentError):
            validate_name("a/b")

    def test_rejects_dot_names(self):
        with pytest.raises(InvalidArgumentError):
            validate_name(".")
        with pytest.raises(InvalidArgumentError):
            validate_name("..")

    def test_rejects_too_long(self):
        with pytest.raises(InvalidArgumentError):
            validate_name("x" * (MAX_NAME_LEN + 1))

    def test_accepts_max_length(self):
        validate_name("x" * MAX_NAME_LEN)


class TestEncodeDecode:
    def test_empty_block(self):
        block = DirectoryBlock(BS, [])
        assert block.encode() == b"\x00" * BS
        assert DirectoryBlock.decode(b"\x00" * BS, BS).entries == []

    def test_roundtrip(self):
        block = DirectoryBlock(BS, [])
        block.add("alpha", 10)
        block.add("βeta", 20)
        decoded = DirectoryBlock.decode(block.encode(), BS)
        assert decoded.entries == [("alpha", 10), ("βeta", 20)]

    def test_decode_rejects_oversized(self):
        with pytest.raises(CorruptionError):
            DirectoryBlock.decode(b"\x00" * (BS + 1), BS)

    def test_decode_rejects_garbage_header(self):
        data = b"\x05\x00\x00\x00\x00\x00" + b"\x00" * 100  # inum 5, len 0
        with pytest.raises(CorruptionError):
            DirectoryBlock.decode(data, BS)

    def test_decode_rejects_truncated_name(self):
        data = b"\x05\x00\x00\x00\xff\x00" + b"a" * 10
        with pytest.raises(CorruptionError):
            DirectoryBlock.decode(data, BS)


class TestMutation:
    def test_lookup(self):
        block = DirectoryBlock(BS, [("f", 3)])
        assert block.lookup("f") == 3
        assert block.lookup("g") is None

    def test_add_rejects_space_overflow(self):
        block = DirectoryBlock(60, [])  # room for 3 x 16-byte entries
        block.add("aaaaaaaaaa", 1)
        block.add("bbbbbbbbbb", 2)
        block.add("cccccccccc", 3)
        with pytest.raises(InvalidArgumentError):
            block.add("dddddddddd", 4)

    def test_add_rejects_bad_inum(self):
        block = DirectoryBlock(BS, [])
        with pytest.raises(InvalidArgumentError):
            block.add("ok", 0)

    def test_remove_returns_inum(self):
        block = DirectoryBlock(BS, [("a", 1), ("b", 2)])
        assert block.remove("a") == 1
        assert block.entries == [("b", 2)]

    def test_remove_entry_takes_exact_pair(self):
        block = DirectoryBlock(BS, [("a", 1), ("a", 2), ("b", 3)])
        block.remove_entry("a", 2)
        assert block.entries == [("a", 1), ("b", 3)]
        assert block.used_bytes() == 2 * entry_size("a")
        with pytest.raises(InvalidArgumentError):
            block.remove_entry("b", 1)

    def test_overfull_constructor_fails_on_encode(self):
        block = DirectoryBlock(entry_size("abc"), [("abc", 1), ("d", 2)])
        with pytest.raises(InvalidArgumentError):
            block.encode()

    def test_remove_missing_raises(self):
        block = DirectoryBlock(BS, [])
        with pytest.raises(InvalidArgumentError):
            block.remove("nope")

    def test_space_accounting(self):
        block = DirectoryBlock(BS, [])
        assert block.free_bytes() == BS
        block.add("abc", 1)
        assert block.used_bytes() == entry_size("abc")
        assert block.free_bytes() == BS - entry_size("abc")

    def test_has_room_for(self):
        block = DirectoryBlock(entry_size("abc"), [])
        assert block.has_room_for("abc")
        assert not block.has_room_for("abcd")

    def test_as_dict(self):
        block = DirectoryBlock(BS, [("x", 1), ("y", 2)])
        assert block.as_dict() == {"x": 1, "y": 2}

    def test_entry_size_utf8(self):
        assert entry_size("é") == 6 + 2  # header + two UTF-8 bytes


# -- oracle: the incremental block vs a full re-encode ------------------

_HEADER = struct.Struct("<IH")


def _reference_encode(entries, block_size):
    """The entry-by-entry encoding the incremental block replaced."""
    parts = []
    for name, inum in entries:
        encoded = name.encode("utf-8")
        parts.append(_HEADER.pack(inum, len(encoded)))
        parts.append(encoded)
    data = b"".join(parts)
    assert len(data) <= block_size
    return data + b"\x00" * (block_size - len(data))


def _reference_used(entries):
    return sum(entry_size(name) for name, _ in entries)


_name_chars = st.sampled_from(list("abcxyz019._- éß€語𝄞"))
_names = st.one_of(
    st.text(_name_chars, min_size=1, max_size=24),
    st.text(_name_chars, min_size=60, max_size=MAX_NAME_LEN),
    st.sampled_from(
        ["x" * MAX_NAME_LEN, "é" * (MAX_NAME_LEN // 2), "𝄞" * (MAX_NAME_LEN // 4)]
    ),
).filter(
    lambda n: n not in (".", "..") and len(n.encode("utf-8")) <= MAX_NAME_LEN
)
_inums = st.integers(min_value=1, max_value=2**32 - 1)
_LONGEST_ENTRY = entry_size("x" * MAX_NAME_LEN)


class DirectoryOracleMachine(RuleBasedStateMachine):
    """Random add/remove/remove_entry sequences checked after every step
    against a plain entry list that is fully re-encoded each time."""

    @initialize(
        block_size=st.integers(min_value=_LONGEST_ENTRY, max_value=1024),
        initial=st.lists(st.tuples(_names, _inums), max_size=12),
        via_decode=st.booleans(),
    )
    def start(self, block_size, initial, via_decode):
        fitting = []
        for name, inum in initial:
            if _reference_used(fitting) + entry_size(name) <= block_size:
                fitting.append((name, inum))
        self.block_size = block_size
        self.reference = list(fitting)
        if via_decode:
            raw = _reference_encode(fitting, block_size)
            self.block = DirectoryBlock.decode(raw, block_size)
        else:
            self.block = DirectoryBlock(block_size, list(fitting))

    @rule(name=_names, inum=_inums)
    def add(self, name, inum):
        if _reference_used(self.reference) + entry_size(name) <= self.block_size:
            self.block.add(name, inum)
            self.reference.append((name, inum))
        else:
            with pytest.raises(InvalidArgumentError):
                self.block.add(name, inum)

    @precondition(lambda self: self.reference)
    @rule(pick=st.integers(min_value=0))
    def remove_present(self, pick):
        name = self.reference[pick % len(self.reference)][0]
        index = next(i for i, (n, _) in enumerate(self.reference) if n == name)
        assert self.block.remove(name) == self.reference.pop(index)[1]

    @precondition(lambda self: self.reference)
    @rule(pick=st.integers(min_value=0))
    def remove_entry_present(self, pick):
        name, inum = self.reference[pick % len(self.reference)]
        self.block.remove_entry(name, inum)
        self.reference.remove((name, inum))

    @rule(name=_names, inum=_inums)
    def remove_missing(self, name, inum):
        if all(n != name for n, _ in self.reference):
            with pytest.raises(InvalidArgumentError):
                self.block.remove(name)
        if (name, inum) not in self.reference:
            with pytest.raises(InvalidArgumentError):
                self.block.remove_entry(name, inum)

    @invariant()
    def matches_reference(self):
        block, reference = self.block, self.reference
        assert block.entries == reference
        encoded = block.encode()
        assert encoded == _reference_encode(reference, self.block_size)
        assert block.used_bytes() == _reference_used(reference)
        free = self.block_size - _reference_used(reference)
        for probe in ("a", "é" * 20, "x" * MAX_NAME_LEN):
            assert block.has_room_for(probe) == (free >= entry_size(probe))
        decoded = DirectoryBlock.decode(encoded, self.block_size)
        assert decoded == block
        assert decoded.encode() == encoded


DirectoryOracleMachine.TestCase.settings = settings(
    max_examples=150, stateful_step_count=40, deadline=None
)
TestDirectoryOracle = DirectoryOracleMachine.TestCase
