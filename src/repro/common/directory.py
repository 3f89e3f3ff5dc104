"""Directory block format.

A directory is an ordinary file whose data blocks hold packed entries:

    [u32 inum][u16 name_len][name bytes] ...

An entry never spans a block boundary.  ``inum`` is never zero for a live
entry (inode 0 does not exist), and a zero ``inum``/``name_len`` pair —
which is also what freshly zeroed space decodes to — terminates the
block.  The format matches what the paper assumes: directory *contents*
are regular file data, so in LFS a directory update is just another dirty
block headed for the log, while in FFS it is the block the create/delete
path forces synchronously to disk (Figure 1).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import CorruptionError, InvalidArgumentError

_ENTRY_HEADER = struct.Struct("<IH")

MAX_NAME_LEN = 255
"""Longest permitted file name, in UTF-8 bytes."""


def entry_size(name: str) -> int:
    """On-disk bytes consumed by an entry for ``name``."""
    return _ENTRY_HEADER.size + len(name.encode("utf-8"))


def _pack_entry(name: str, inum: int) -> bytes:
    encoded = name.encode("utf-8")
    return _ENTRY_HEADER.pack(inum, len(encoded)) + encoded


def validate_name(name: str) -> None:
    """Reject names the directory format cannot hold."""
    if not name:
        raise InvalidArgumentError("empty file name")
    if "/" in name:
        raise InvalidArgumentError(f"file name contains '/': {name!r}")
    if name in (".", ".."):
        raise InvalidArgumentError(f"reserved name: {name!r}")
    if len(name.encode("utf-8")) > MAX_NAME_LEN:
        raise InvalidArgumentError(f"file name too long: {name!r}")


@dataclass
class DirectoryBlock:
    """Decoded view of one directory data block.

    Alongside ``entries`` the block keeps each entry's packed bytes and
    their running total, so an add or remove costs one entry and
    :meth:`encode` is a single join.  Only the methods below change
    ``entries``; they keep all three in step.
    """

    block_size: int
    entries: List[Tuple[str, int]]
    _parts: List[bytes] = field(init=False, repr=False, compare=False)
    _used: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._parts = [_pack_entry(name, inum) for name, inum in self.entries]
        self._used = sum(len(part) for part in self._parts)

    @classmethod
    def decode(cls, data: bytes, block_size: int) -> "DirectoryBlock":
        if len(data) > block_size:
            raise CorruptionError(
                f"directory block of {len(data)} bytes exceeds block size "
                f"{block_size}"
            )
        entries: List[Tuple[str, int]] = []
        parts: List[bytes] = []
        offset = 0
        while offset + _ENTRY_HEADER.size <= len(data):
            inum, name_len = _ENTRY_HEADER.unpack_from(data, offset)
            if inum == 0 and name_len == 0:
                break
            if inum == 0 or name_len == 0 or name_len > MAX_NAME_LEN:
                raise CorruptionError(
                    f"bad directory entry header at offset {offset}: "
                    f"inum={inum}, name_len={name_len}"
                )
            start = offset
            offset += _ENTRY_HEADER.size
            if offset + name_len > len(data):
                raise CorruptionError("directory entry name runs off block")
            name = str(data[offset : offset + name_len], "utf-8")
            offset += name_len
            entries.append((name, inum))
            parts.append(bytes(data[start:offset]))
        block = cls(block_size, [])
        block.entries = entries
        block._parts = parts
        block._used = offset
        return block

    def encode(self) -> bytes:
        if self._used > self.block_size:
            raise InvalidArgumentError(
                f"directory entries need {self._used} bytes, block holds "
                f"{self.block_size}"
            )
        return b"".join(self._parts) + bytes(self.block_size - self._used)

    def used_bytes(self) -> int:
        return self._used

    def free_bytes(self) -> int:
        return self.block_size - self._used

    def has_room_for(self, name: str) -> bool:
        return self.free_bytes() >= entry_size(name)

    def lookup(self, name: str) -> Optional[int]:
        for entry_name, inum in self.entries:
            if entry_name == name:
                return inum
        return None

    def add(self, name: str, inum: int) -> None:
        validate_name(name)
        if inum <= 0:
            raise InvalidArgumentError(f"bad inode number for {name!r}: {inum}")
        part = _pack_entry(name, inum)
        if len(part) > self.free_bytes():
            raise InvalidArgumentError(f"no room in block for entry {name!r}")
        self.entries.append((name, inum))
        self._parts.append(part)
        self._used += len(part)

    def remove(self, name: str) -> int:
        """Remove the entry for ``name``; returns its inode number."""
        for index, (entry_name, inum) in enumerate(self.entries):
            if entry_name == name:
                self._delete(index)
                return inum
        raise InvalidArgumentError(f"no entry named {name!r} in block")

    def remove_entry(self, name: str, inum: int) -> None:
        """Remove the first entry that is exactly ``(name, inum)``."""
        try:
            index = self.entries.index((name, inum))
        except ValueError:
            raise InvalidArgumentError(
                f"no entry ({name!r}, {inum}) in block"
            ) from None
        self._delete(index)

    def _delete(self, index: int) -> None:
        del self.entries[index]
        self._used -= len(self._parts.pop(index))

    def as_dict(self) -> Dict[str, int]:
        return dict(self.entries)
