"""Tests for fsck: the whole-disk scan and repair (§4.4's contrast)."""


from repro.ffs.filesystem import FastFileSystem
from repro.ffs.fsck import fsck
from tests.conftest import small_ffs_config


def crash_and_revive(ffs):
    ffs.crash()
    ffs.disk.revive()


class TestCleanImage:
    def test_clean_after_unmount(self, ffs):
        ffs.mkdir("/d")
        ffs.write_file("/d/f", b"x" * 1000)
        ffs.unmount()
        report = fsck(ffs.disk)
        assert report.clean
        assert report.repairs() == 0
        assert report.allocated_inodes == 3  # root, /d, /d/f

    def test_scans_every_inode(self, ffs):
        ffs.unmount()
        report = fsck(ffs.disk)
        assert report.inodes_scanned == ffs.layout.max_inodes

    def test_duration_grows_with_device_size(self, clock, cpu):
        from repro.disk.geometry import wren_iv
        from repro.disk.sim_disk import SimDisk
        from repro.units import MIB

        durations = []
        for size in (32 * MIB, 128 * MIB):
            disk = SimDisk(wren_iv(size), clock)
            fs = FastFileSystem.mkfs(disk, cpu, small_ffs_config())
            fs.unmount()
            durations.append(fsck(disk).duration_seconds)
        assert durations[1] > durations[0] * 2


class TestCrashRepair:
    def test_lost_dir_block_leaves_orphan(self, ffs):
        # The inode reaches the disk synchronously at create time; if
        # the directory block write is lost, fsck reattaches the inode
        # under /lost+found.
        ffs.mkdir("/d")
        ffs.sync()
        # Write a file, then lose the async data of the dir update by
        # crashing with the dir block only in cache... simulate by
        # corrupting: create, sync, then zero the dir's data block.
        ffs.write_file("/d/f", b"data!")
        ffs.sync()
        inode = ffs._get_inode(ffs.stat("/d").inum)
        addr = ffs.block_map.get(inode, 0)
        ffs.disk.write(
            addr * ffs.sectors_per_block,
            b"\x00" * ffs.block_size,
            sync=True,
        )
        crash_and_revive(ffs)
        report = fsck(ffs.disk)
        assert report.orphans_reattached >= 1
        again = FastFileSystem.mount(ffs.disk, ffs.cpu, small_ffs_config())
        lost = again.listdir("/lost+found")
        assert len(lost) >= 1
        assert again.read_file(f"/lost+found/{lost[0]}") == b"data!"

    def test_stale_bitmaps_repaired(self, ffs):
        ffs.write_file("/f", b"b" * 8192)
        ffs.sync()
        ffs.write_file("/g", b"c" * 8192)  # dirties bitmaps again
        crash_and_revive(ffs)  # cg header write may be lost
        report = fsck(ffs.disk)
        assert report.bitmap_repairs >= 0  # never crashes
        again = FastFileSystem.mount(ffs.disk, ffs.cpu, small_ffs_config())
        assert again.read_file("/f") == b"b" * 8192

    def test_dangling_entry_removed(self, ffs):
        # A directory entry whose inode-table write was lost: zero the
        # inode slot behind the fs's back.
        ffs.write_file("/victim", b"v")
        ffs.sync()
        inum = ffs.stat("/victim").inum
        addr, slot = ffs.layout.inode_location(inum)
        from repro.common.inode import INODE_SIZE

        raw = bytearray(
            ffs.disk.read(addr * ffs.sectors_per_block, ffs.sectors_per_block)
        )
        raw[slot * INODE_SIZE : (slot + 1) * INODE_SIZE] = b"\x00" * INODE_SIZE
        ffs.disk.write(addr * ffs.sectors_per_block, bytes(raw), sync=True)
        crash_and_revive(ffs)
        report = fsck(ffs.disk)
        assert report.dangling_entries_removed == 1
        again = FastFileSystem.mount(ffs.disk, ffs.cpu, small_ffs_config())
        assert not again.exists("/victim")

    def test_dangling_entry_repair_keeps_survivors_in_order(self, ffs):
        from repro.common.inode import INODE_SIZE
        from repro.vfs.base import ROOT_INUM

        for name in ("a", "b", "victim", "c", "d"):
            ffs.write_file(f"/{name}", name.encode())
        ffs.sync()
        before = list(ffs._dir_block(ffs._get_inode(ROOT_INUM), 0).entries)
        inum = ffs.stat("/victim").inum
        addr, slot = ffs.layout.inode_location(inum)
        raw = bytearray(
            ffs.disk.read(addr * ffs.sectors_per_block, ffs.sectors_per_block)
        )
        raw[slot * INODE_SIZE : (slot + 1) * INODE_SIZE] = b"\x00" * INODE_SIZE
        ffs.disk.write(addr * ffs.sectors_per_block, bytes(raw), sync=True)
        crash_and_revive(ffs)
        assert fsck(ffs.disk).dangling_entries_removed == 1
        again = FastFileSystem.mount(ffs.disk, ffs.cpu, small_ffs_config())
        after = again._dir_block(again._get_inode(ROOT_INUM), 0).entries
        assert after == [entry for entry in before if entry[0] != "victim"]
        again.unmount()
        assert fsck(ffs.disk).clean

    def test_fs_usable_after_repair(self, ffs):
        for i in range(30):
            ffs.write_file(f"/f{i}", bytes([i]) * 3000)
        ffs.sync()
        ffs.write_file("/late", b"L" * 8192)
        crash_and_revive(ffs)
        fsck(ffs.disk)
        again = FastFileSystem.mount(ffs.disk, ffs.cpu, small_ffs_config())
        for i in range(30):
            assert again.read_file(f"/f{i}") == bytes([i]) * 3000
        again.write_file("/new", b"after repair")
        assert again.read_file("/new") == b"after repair"

    def test_fsck_idempotent(self, ffs):
        ffs.write_file("/f", b"x" * 5000)
        crash_and_revive(ffs)
        fsck(ffs.disk)
        second = fsck(ffs.disk)
        assert second.clean

    def test_nlink_repair(self, ffs):
        ffs.mkdir("/d")
        ffs.write_file("/d/f", b"x")
        ffs.sync()
        # Corrupt root's nlink on disk.
        from repro.common.inode import Inode, INODE_SIZE
        from repro.vfs.base import ROOT_INUM

        addr, slot = ffs.layout.inode_location(ROOT_INUM)
        raw = bytearray(
            ffs.disk.read(addr * ffs.sectors_per_block, ffs.sectors_per_block)
        )
        inode = Inode.unpack(raw[slot * INODE_SIZE : (slot + 1) * INODE_SIZE])
        inode.nlink = 9
        raw[slot * INODE_SIZE : (slot + 1) * INODE_SIZE] = inode.pack()
        ffs.disk.write(addr * ffs.sectors_per_block, bytes(raw), sync=True)
        crash_and_revive(ffs)
        report = fsck(ffs.disk)
        assert report.nlink_repairs >= 1
