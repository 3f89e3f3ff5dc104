"""The FFS storage manager (the paper's SunOS baseline).

Behavioural contrast with LFS, straight from §3.1:

* ``create``/``unlink`` **synchronously** write the inode-table block
  and the directory data block (two small random writes that stall the
  caller at disk speed);
* file data is delayed-written, one block-sized request at a time, to
  update-in-place addresses chosen by the cylinder-group allocator;
* after a crash, the bitmaps are untrustworthy and
  :func:`repro.ffs.fsck.fsck` must scan the whole disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cache.writeback import WritebackReason
from repro.common.directory import DirectoryBlock
from repro.common.inode import (
    BlockKey,
    BlockKind,
    FileType,
    Inode,
    INODE_SIZE,
    NIL,
)
from repro.common.serialization import Packer, Unpacker, checksum
from repro.disk.sim_disk import SimDisk
from repro.errors import CorruptionError
from repro.ffs.allocator import Allocator, CylinderGroup
from repro.ffs.config import FFS_MAGIC, FfsConfig, FfsLayout
from repro.sim.cpu import CpuModel
from repro.vfs.base import BaseFileSystem, ROOT_INUM


@dataclass(frozen=True)
class FfsSuperBlock:
    """Static file system parameters at block 0."""

    block_size: int
    cg_bytes: int
    inodes_per_cg: int
    maxbpg: int
    total_blocks: int

    def pack(self) -> bytes:
        body = (
            Packer()
            .u32(self.block_size)
            .u32(self.cg_bytes)
            .u32(self.inodes_per_cg)
            .u32(self.maxbpg)
            .u64(self.total_blocks)
            .bytes()
        )
        header = Packer().u32(FFS_MAGIC).u32(checksum(body))
        data = header.bytes() + body
        return data + b"\x00" * (self.block_size - len(data))

    @classmethod
    def unpack(cls, data: bytes) -> "FfsSuperBlock":
        unpacker = Unpacker(data)
        magic = unpacker.u32()
        if magic != FFS_MAGIC:
            raise CorruptionError(f"not an FFS superblock (magic 0x{magic:08x})")
        crc = unpacker.u32()
        block_size = unpacker.u32()
        cg_bytes = unpacker.u32()
        inodes_per_cg = unpacker.u32()
        maxbpg = unpacker.u32()
        total_blocks = unpacker.u64()
        body = (
            Packer()
            .u32(block_size)
            .u32(cg_bytes)
            .u32(inodes_per_cg)
            .u32(maxbpg)
            .u64(total_blocks)
            .bytes()
        )
        if checksum(body) != crc:
            raise CorruptionError("FFS superblock checksum mismatch")
        return cls(
            block_size=block_size,
            cg_bytes=cg_bytes,
            inodes_per_cg=inodes_per_cg,
            maxbpg=maxbpg,
            total_blocks=total_blocks,
        )


class FastFileSystem(BaseFileSystem):
    """BSD fast file system, SunOS 4.0.3 edition."""

    def __init__(self, disk: SimDisk, cpu: CpuModel, config: FfsConfig) -> None:
        self._config = config
        self.layout = FfsLayout.for_device(config, disk.device.total_bytes)
        super().__init__(
            disk,
            cpu,
            config.cache_bytes,
            config.writeback,
            readahead_blocks=config.readahead_blocks,
        )
        self.allocator = Allocator(config, self.layout)
        self.sync_metadata_writes = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def mkfs(
        cls, disk: SimDisk, cpu: CpuModel, config: Optional[FfsConfig] = None
    ) -> "FastFileSystem":
        """Format the device and return a mounted, empty file system."""
        config = config or FfsConfig()
        fs = cls(disk, cpu, config)
        superblock = FfsSuperBlock(
            block_size=config.block_size,
            cg_bytes=config.cg_bytes,
            inodes_per_cg=config.inodes_per_cg,
            maxbpg=config.maxbpg,
            total_blocks=fs.layout.total_blocks,
        )
        disk.write(0, superblock.pack(), sync=True, label="superblock")
        # Reserve the root inode number in cylinder group 0, and force
        # every cg header onto the disk so the image is mountable.
        fs.allocator.groups[0].inodes.set(ROOT_INUM)
        fs.allocator.dirty_groups.update(range(fs.layout.num_groups))
        root = Inode(
            inum=ROOT_INUM,
            ftype=FileType.DIRECTORY,
            nlink=2,
            mtime=fs.clock.now(),
            ctime=fs.clock.now(),
        )
        fs._install_inode(root)
        fs._write_dir_block(root, 0, DirectoryBlock(config.block_size, []))
        fs._writeback(WritebackReason.SYNC)
        fs.disk.drain()
        return fs

    @classmethod
    def mount(
        cls,
        disk: SimDisk,
        cpu: CpuModel,
        config: Optional[FfsConfig] = None,
    ) -> "FastFileSystem":
        """Attach an existing FFS (bitmaps read from the cg headers).

        After a crash the bitmaps may be stale; run
        :func:`repro.ffs.fsck.fsck` first to repair the image.
        """
        raw = disk.read(0, 16, label="superblock")
        superblock = FfsSuperBlock.unpack(raw)
        base = config or FfsConfig()
        merged = FfsConfig(
            block_size=superblock.block_size,
            cg_bytes=superblock.cg_bytes,
            inodes_per_cg=superblock.inodes_per_cg,
            maxbpg=superblock.maxbpg,
            cache_bytes=base.cache_bytes,
            synchronous_metadata=base.synchronous_metadata,
            writeback=base.writeback,
            readahead_blocks=base.readahead_blocks,
        )
        fs = cls(disk, cpu, merged)
        for cg in range(fs.layout.num_groups):
            raw = fs._read_block_from_disk(
                fs.layout.cg_header_addr(cg), label=f"cg header {cg}"
            )
            fs.allocator.groups[cg] = CylinderGroup.unpack(merged, raw)
        fs.allocator.dirty_groups.clear()
        return fs

    # ------------------------------------------------------------------
    # Required placement hooks
    # ------------------------------------------------------------------

    @property
    def config(self) -> FfsConfig:
        return self._config

    @property
    def block_size(self) -> int:
        return self._config.block_size

    @property
    def sectors_per_block(self) -> int:
        return self._config.sectors_per_block

    def _table_block(self, table_index: int):
        key = BlockKey(0, BlockKind.INODE, table_index)
        block = self.cache.get(key)
        if block is None:
            raw = self._read_block_from_disk(
                self.layout.inode_table_block_addr(table_index),
                label=f"inode table block {table_index}",
            )
            block = self.cache.insert(
                key, bytearray(raw), dirty=False, now=self.clock.now()
            )
        return block

    def _load_inode_from_disk(self, inum: int) -> Inode:
        table_index = self.layout.inode_table_block_index(inum)
        block = self._table_block(table_index)
        _addr, slot = self.layout.inode_location(inum)
        raw = bytes(block.payload[slot * INODE_SIZE : (slot + 1) * INODE_SIZE])
        if raw.strip(b"\x00") == b"":
            # Never-written slot (can only be observed after a crash).
            return Inode(inum=inum, ftype=FileType.FREE)
        inode = Inode.unpack(raw)
        if inode.inum != inum:
            raise CorruptionError(
                f"inode table slot for {inum} holds inode {inode.inum}"
            )
        return inode

    def _store_inode_to_table(self, inode: Inode) -> int:
        """Serialize an inode into its cached table block; returns the
        table block's global index."""
        table_index = self.layout.inode_table_block_index(inode.inum)
        block = self._table_block(table_index)
        _addr, slot = self.layout.inode_location(inode.inum)
        assert isinstance(block.payload, bytearray)
        block.payload[slot * INODE_SIZE : (slot + 1) * INODE_SIZE] = inode.pack()
        self.cache.mark_dirty(block.key, self.clock.now())
        return table_index

    def _alloc_inum(self, ftype: FileType, parent_inum: int) -> int:
        return self.allocator.alloc_inode(
            is_dir=(ftype is FileType.DIRECTORY),
            parent_cg=self.layout.cg_of_inum(parent_inum),
        )

    def _on_inode_freed(self, inode: Inode) -> None:
        self.allocator.free_inode(inode.inum)
        self._store_inode_to_table(inode)  # persist the FREE marker

    def _release_block_addr(self, addr: int) -> None:
        self.allocator.free_data_block(addr)

    def _note_data_block_dirtied(self, inode: Inode, lbn: int) -> None:
        """BSD allocates the disk address when the block is written."""
        if self.block_map.get(inode, lbn) != NIL:
            return  # update in place
        hint = self.block_map.get(inode, lbn - 1) if lbn > 0 else None
        if hint == NIL:
            hint = None
        preferred = self.allocator.preferred_cg_for(
            self.layout.cg_of_inum(inode.inum), lbn
        )
        addr = self.allocator.alloc_data_block(preferred, hint)
        self.block_map.set(inode, lbn, addr)
        self._mark_inode_dirty(inode)

    # ------------------------------------------------------------------
    # Synchronous metadata writes (§3.1 / Figure 1)
    # ------------------------------------------------------------------

    def _sync_write_inode(self, inode: Inode, label: str) -> None:
        table_index = self._store_inode_to_table(inode)
        key = BlockKey(0, BlockKind.INODE, table_index)
        block = self.cache.peek(key)
        assert block is not None
        self.disk.write(
            self.layout.inode_table_block_addr(table_index)
            * self.sectors_per_block,
            block.as_bytes(self.block_size),
            sync=True,
            label=label,
        )
        self.cache.mark_clean(key)
        self._dirty_inodes.discard(inode.inum)
        self.sync_metadata_writes += 1

    def _sync_write_data_block(self, inode: Inode, lbn: int, label: str) -> None:
        key = BlockKey(inode.inum, BlockKind.DATA, lbn)
        block = self.cache.peek(key)
        if block is None:
            return  # nothing cached (dir block already flushed)
        addr = self.block_map.get(inode, lbn)
        if addr == NIL:
            raise CorruptionError(
                f"dir data block {lbn} of inode {inode.inum} has no address"
            )
        self.disk.write(
            addr * self.sectors_per_block,
            block.as_bytes(self.block_size),
            sync=True,
            label=label,
        )
        self.cache.mark_clean(key)
        self.sync_metadata_writes += 1

    def _after_create(self, parent: Inode, inode: Inode, dir_block_index: int) -> None:
        if not self._config.synchronous_metadata:
            return  # ablation mode: metadata rides the delayed write-back
        if inode.is_dir:
            # mkdir also forces the new directory's first block (the
            # classic "." / ".." block) to disk.
            self._sync_write_data_block(
                inode, 0, label=f"new directory {inode.inum} data"
            )
        self._sync_write_inode(inode, label=f"new inode {inode.inum}")
        self._sync_write_data_block(
            parent, dir_block_index, label=f"directory {parent.inum} data"
        )

    def _after_remove(self, parent: Inode, inode: Inode, dir_block_index: int) -> None:
        if not self._config.synchronous_metadata:
            return
        self._sync_write_inode(inode, label=f"freed inode {inode.inum}")
        self._sync_write_data_block(
            parent, dir_block_index, label=f"directory {parent.inum} data"
        )

    def _update_atime(self, inode: Inode) -> None:
        inode.atime = self.clock.now()
        self._mark_inode_dirty(inode)

    def _get_atime(self, inode: Inode) -> float:
        return inode.atime

    # ------------------------------------------------------------------
    # Delayed write-back
    # ------------------------------------------------------------------

    def _ensure_pointer_block_addr(self, inode: Inode, key: BlockKey) -> int:
        addr = self._pointer_block_addr(inode, key)
        if addr != NIL:
            return addr
        preferred = self.allocator.preferred_cg_for(
            self.layout.cg_of_inum(inode.inum), 0
        )
        addr = self.allocator.alloc_data_block(preferred, None)
        if key.kind is BlockKind.DINDIRECT:
            inode.dindirect = addr
        elif key.index == 0:
            inode.indirect = addr
        else:
            root_key = BlockKey(inode.inum, BlockKind.DINDIRECT, 0)
            root = self._load_pointers(root_key, inode.dindirect)
            root[key.index - 1] = addr
            self.cache.mark_dirty(root_key, self.clock.now())
        self._mark_inode_dirty(inode)
        return addr

    def _writeback(self, reason: WritebackReason) -> None:
        # 1. Give every dirty pointer block a home (may dirty inodes).
        pointer_keys = [
            block.key
            for block in self.cache.dirty_blocks()
            if block.key.kind in (BlockKind.DINDIRECT, BlockKind.INDIRECT)
        ]
        pointer_keys.sort(key=lambda k: (k.inum, k.kind != BlockKind.DINDIRECT, k.index))
        for key in pointer_keys:
            self._ensure_pointer_block_addr(self._get_inode(key.inum), key)
        # 2. Fold dirty inodes into their table blocks.
        for inum in self.dirty_inode_numbers():
            self._store_inode_to_table(self._inodes[inum])
        self._dirty_inodes.clear()
        # 3. Gather every dirty block with its fixed disk address.
        writes: List[Tuple[int, BlockKey, bytes]] = []
        for block in self.cache.dirty_blocks():
            key = block.key
            if key.kind is BlockKind.DATA:
                inode = self._get_inode(key.inum)
                addr = self.block_map.get(inode, key.index)
            elif key.kind in (BlockKind.INDIRECT, BlockKind.DINDIRECT):
                inode = self._get_inode(key.inum)
                addr = self._pointer_block_addr(inode, key)
            elif key.kind is BlockKind.INODE:
                addr = self.layout.inode_table_block_addr(key.index)
            else:
                raise CorruptionError(f"unexpected dirty block kind: {key}")
            if addr == NIL:
                raise CorruptionError(f"dirty block {key} has no disk address")
            writes.append((addr, key, block.as_bytes(self.block_size)))
        # 4. One request per block, in the order the blocks were dirtied:
        #    the SunOS-era update daemon pushed delayed writes without a
        #    global elevator, so a randomly written file is flushed in
        #    random disk order (the §5.2 random-write penalty) while a
        #    sequentially written one happens to flush sequentially.
        for addr, key, payload in writes:
            self.disk.write(
                addr * self.sectors_per_block,
                payload,
                sync=False,
                label=f"writeback {key.kind.name.lower()} {key.inum}",
            )
            self.cache.mark_clean(key)
        # 5. Cylinder-group headers.
        for cg in self.allocator.take_dirty_groups():
            self.disk.write(
                self.layout.cg_header_addr(cg) * self.sectors_per_block,
                self.allocator.groups[cg].pack(),
                sync=False,
                label=f"cg header {cg}",
            )

    def fsync(self, handle) -> None:
        """Write this file's dirty data blocks and its inode, blocking."""
        inode = self._handle_inode(handle)
        self.cpu.syscall()
        for block in self.cache.dirty_blocks():
            key = block.key
            if key.inum != inode.inum:
                continue
            if key.kind in (BlockKind.INDIRECT, BlockKind.DINDIRECT):
                addr = self._ensure_pointer_block_addr(inode, key)
            else:
                addr = self.block_map.get(inode, key.index)
            self.disk.write(
                addr * self.sectors_per_block,
                block.as_bytes(self.block_size),
                sync=True,
                label=f"fsync {key.kind.name.lower()} {inode.inum}",
            )
            self.cache.mark_clean(key)
        self._sync_write_inode(inode, label=f"fsync inode {inode.inum}")

    # ------------------------------------------------------------------
    # Crash simulation
    # ------------------------------------------------------------------

    def crash(self) -> None:
        """Simulate an OS crash: in-flight disk writes are lost."""
        self.disk.crash()
        self._unmounted = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def free_space_bytes(self) -> int:
        return self.allocator.free_blocks() * self.block_size

    def statvfs(self):
        """Capacity report from the cylinder-group bitmaps."""
        from repro.vfs.interface import VfsInfo

        total = (
            self.layout.num_groups
            * self.config.data_blocks_per_cg
            * self.block_size
        )
        free = self.free_space_bytes()
        return VfsInfo(
            total_bytes=total,
            used_bytes=total - free,
            free_bytes=free,
            total_files=self.layout.max_inodes - 1,
            used_files=self.layout.max_inodes
            - self.allocator.free_inodes()
            - 1,  # inode 0 is reserved, not "used"
        )


def make_ffs(
    total_bytes: Optional[int] = None,
    config: Optional[FfsConfig] = None,
    speed_factor: float = 1.0,
    geometry=None,
    trace=None,
) -> FastFileSystem:
    """Convenience constructor: simulated WREN IV disk + fresh FFS."""
    from repro.disk.geometry import wren_iv
    from repro.sim.clock import SimClock

    if geometry is None:
        geometry = wren_iv(total_bytes) if total_bytes else wren_iv()
    clock = SimClock()
    cpu = CpuModel(clock, speed_factor=speed_factor)
    disk = SimDisk(geometry, clock, trace=trace)
    return FastFileSystem.mkfs(disk, cpu, config)
