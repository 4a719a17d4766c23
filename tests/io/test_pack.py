"""Pack store: round trips, linked-segment appends, writer locking,
corruption taxonomy.

Every corruption mode — truncation, bad magic, segment checksum
mismatch, schema-version drift, per-blob checksum failure — must raise
an actionable :class:`PackError`/:class:`PackVersionError`, never
return bad bytes, and never destroy the file (quarantining is the cache
layer's job, covered in tests/pipeline/test_pack_cache.py).
"""

import fcntl
import hashlib
import multiprocessing
import os
import shutil
import struct
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.table import SweepTable, decode_column, encode_column
from repro.io.pack import (
    ENTRY_SIZE, HEADER_SIZE, LINK_SIZE, PACK_VERSION, Pack, PackError,
    PackVersionError, PackWriter, append_entries, compact,
)

# A shards.rpak journalled by a build that wrote layout version 1.
V1_PACK = (Path(__file__).parents[1] / "pipeline" / "fixtures"
           / "parent_run_v3_pack" / "shards.rpak")


def make_pack(path, items=(("a", "kind", b"alpha"),
                           ("b", "kind", b"bravo"))):
    with PackWriter.create(path) as writer:
        for key, kind, data in items:
            writer.add(key, kind, data)
    return path


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        path = make_pack(tmp_path / "p.rpak")
        with Pack.open(path) as pack:
            assert len(pack) == 2
            assert pack.keys() == ["a", "b"]
            assert "a" in pack and "z" not in pack
            assert bytes(pack.read("a")) == b"alpha"
            assert bytes(pack.read("b")) == b"bravo"

    def test_raw_read_is_zero_copy_view(self, tmp_path):
        path = make_pack(tmp_path / "p.rpak")
        pack = Pack.open(path)
        view = pack.read("a")
        assert isinstance(view, memoryview)
        # Closing while the view is alive must not invalidate it.
        pack.close()
        assert bytes(view) == b"alpha"
        del view
        pack.close()

    def test_compressed_entry(self, tmp_path):
        payload = b"x" * 10_000
        path = tmp_path / "p.rpak"
        with PackWriter.create(path) as writer:
            entry = writer.add("big", "json", payload, compress=True)
        assert entry.compressed and entry.csize < entry.osize
        with Pack.open(path) as pack:
            data = pack.read("big")
            assert isinstance(data, bytes) and data == payload
            assert pack.entry("big").csize < len(payload)

    def test_entry_metadata(self, tmp_path):
        path = make_pack(tmp_path / "p.rpak")
        with Pack.open(path) as pack:
            entry = pack.entry("a")
            assert entry.kind == "kind"
            assert entry.osize == entry.csize == 5
            assert entry.offset == HEADER_SIZE
            assert entry.sha == hashlib.sha256(b"alpha").digest()

    def test_digest_ending_in_nul_byte_survives_table_roundtrip(
            self, tmp_path):
        """Regression: NumPy strips trailing NULs from S-typed record
        fields, so a stored SHA-256 ending in 0x00 used to read back
        short and fail verification on ~1/256 of entries."""
        payload = next(
            f"nul-digest-{i}".encode() for i in range(10_000)
            if hashlib.sha256(f"nul-digest-{i}".encode())
            .digest().endswith(b"\x00")
        )
        path = tmp_path / "p.rpak"
        with PackWriter.create(path) as writer:
            writer.add("k", "kind", payload)
        with Pack.open(path) as pack:
            assert pack.entry("k").sha == hashlib.sha256(payload).digest()
            assert bytes(pack.read("k")) == payload

    def test_unknown_key_is_actionable(self, tmp_path):
        path = make_pack(tmp_path / "p.rpak")
        with Pack.open(path) as pack:
            with pytest.raises(KeyError, match="unknown pack entry"):
                pack.entry("nope")

    def test_key_and_kind_validation(self, tmp_path):
        with PackWriter.create(tmp_path / "p.rpak") as writer:
            with pytest.raises(PackError, match="key"):
                writer.add("x" * 64, "k", b"")
            with pytest.raises(PackError, match="key"):
                writer.add("", "k", b"")
            with pytest.raises(PackError, match="kind"):
                writer.add("ok", "toolongkk", b"")
            writer.add("ok", "k", b"fine")

    def test_abort_leaves_no_file_or_temp(self, tmp_path):
        writer = PackWriter.create(tmp_path / "p.rpak")
        writer.add("a", "k", b"data")
        writer.abort()
        assert list(tmp_path.iterdir()) == []

    def test_context_manager_aborts_on_exception(self, tmp_path):
        with pytest.raises(RuntimeError):
            with PackWriter.create(tmp_path / "p.rpak") as writer:
                writer.add("a", "k", b"data")
                raise RuntimeError("boom")
        assert list(tmp_path.iterdir()) == []


class TestAppend:
    def test_append_to_missing_path_creates_pack(self, tmp_path):
        path = tmp_path / "p.rpak"
        added = append_entries(path, [("a", "k", b"alpha")])
        assert added == 1
        with Pack.open(path) as pack:
            assert bytes(pack.read("a")) == b"alpha"

    def test_append_is_idempotent_for_identical_payloads(self, tmp_path):
        path = make_pack(tmp_path / "p.rpak")
        size = path.stat().st_size
        assert append_entries(path, [("a", "kind", b"alpha")]) == 0
        # Nothing appended: the file did not grow at all.
        assert path.stat().st_size == size

    def test_changed_payload_shadows_old_record(self, tmp_path):
        path = make_pack(tmp_path / "p.rpak")
        assert append_entries(path, [("a", "kind", b"ALPHA2")]) == 1
        with Pack.open(path) as pack:
            assert bytes(pack.read("a")) == b"ALPHA2"
            assert pack.keys() == ["a", "b"]
            # The superseded record is still visible to `repro ls`.
            assert len(pack.records()) == 3

    def test_append_never_rewrites_existing_blobs(self, tmp_path):
        path = make_pack(tmp_path / "p.rpak")
        with Pack.open(path) as pack:
            before = {
                key: (pack.entry(key).offset, bytes(pack.read(key)))
                for key in pack.keys()
            }
        append_entries(path, [("c", "kind", b"charlie")])
        raw = path.read_bytes()
        with Pack.open(path) as pack:
            for key, (offset, payload) in before.items():
                assert pack.entry(key).offset == offset
                assert raw[offset:offset + len(payload)] == payload

    def test_torn_append_leaves_old_pack_readable(self, tmp_path):
        """A crash after the tail write but before the header commit
        must leave the previous pack state fully intact."""
        path = make_pack(tmp_path / "p.rpak")
        before = path.read_bytes()
        append_entries(path, [("c", "kind", b"charlie")])
        # Simulate dying before phase 2: restore the old header while
        # keeping the appended tail bytes in place.
        with open(path, "r+b") as fh:
            fh.write(before[:HEADER_SIZE])
        with Pack.open(path) as pack:
            assert pack.keys() == ["a", "b"]
            assert bytes(pack.read("a")) == b"alpha"

    def test_compact_drops_dead_regions(self, tmp_path):
        path = make_pack(tmp_path / "p.rpak")
        append_entries(path, [("a", "kind", b"much longer payload")])
        grown = path.stat().st_size
        kept = compact(path, path)
        assert kept == 2
        assert path.stat().st_size < grown
        with Pack.open(path) as pack:
            assert bytes(pack.read("a")) == b"much longer payload"
            assert bytes(pack.read("b")) == b"bravo"
            assert len(pack.records()) == 2


class TestSegments:
    def test_appends_leave_no_dead_tables(self, tmp_path):
        """K appends cost the header, their blobs, one 136-byte record
        per entry and one 48-byte link per append — nothing else."""
        path = tmp_path / "p.rpak"
        blob_bytes = records = 0
        for k in range(6):
            items = [(f"k{k}-{i}", "col", bytes([k]) * (10 * k + i + 1))
                     for i in range(k + 1)]
            assert append_entries(path, items) == len(items)
            blob_bytes += sum(len(data) for _, _, data in items)
            records += len(items)
            assert path.stat().st_size == (
                HEADER_SIZE + blob_bytes + ENTRY_SIZE * records
                + LINK_SIZE * (k + 1))
        with Pack.open(path) as pack:
            assert len(pack) == records == len(pack.records())
            assert bytes(pack.read("k5-5")) == bytes([5]) * 56

    def test_sealed_pack_is_one_segment(self, tmp_path):
        path = make_pack(tmp_path / "p.rpak")
        assert path.stat().st_size == (
            HEADER_SIZE + len(b"alpha") + len(b"bravo")
            + 2 * ENTRY_SIZE + LINK_SIZE)

    def test_damaged_older_segment_fails_open(self, tmp_path):
        path = make_pack(tmp_path / "p.rpak")
        first_segment = HEADER_SIZE + len(b"alpha") + len(b"bravo")
        append_entries(path, [("c", "kind", b"charlie")])
        data = bytearray(path.read_bytes())
        data[first_segment] ^= 0xFF  # key byte of record "a"
        path.write_bytes(bytes(data))
        with pytest.raises(PackError, match="checksum"):
            Pack.open(path)

    def test_version_1_pack_is_refused(self, tmp_path):
        path = tmp_path / "shards.rpak"
        shutil.copy(V1_PACK, path)
        with pytest.raises(PackVersionError, match="version 1"):
            Pack.open(path)
        with pytest.raises(PackVersionError):
            append_entries(path, [("a", "k", b"alpha")])
        assert path.read_bytes() == V1_PACK.read_bytes()

    def test_on_damage_moves_the_pack_and_starts_fresh(self, tmp_path):
        path = tmp_path / "shards.rpak"
        shutil.copy(V1_PACK, path)
        # A callback that cannot move the pack gets the error back.
        with pytest.raises(PackVersionError):
            append_entries(path, [("a", "k", b"alpha")],
                           on_damage=lambda p: None)
        assert path.read_bytes() == V1_PACK.read_bytes()
        moved = tmp_path / "moved.rpak"
        assert append_entries(path, [("a", "k", b"alpha")],
                              on_damage=lambda p: os.replace(p, moved)) == 1
        assert moved.read_bytes() == V1_PACK.read_bytes()
        with Pack.open(path) as pack:
            assert pack.keys() == ["a"]


class TestLocking:
    def test_append_waits_for_the_lock_and_follows_a_move(self, tmp_path):
        """An append blocked on the writer lock re-opens the path once
        the lock holder has moved the pack away, so its entries land in
        a fresh pack instead of the moved one."""
        path = make_pack(tmp_path / "p.rpak")
        before = path.read_bytes()
        holder = open(path, "rb")
        fcntl.flock(holder, fcntl.LOCK_EX)
        done = []
        writer = threading.Thread(target=lambda: done.append(
            append_entries(path, [("c", "kind", b"charlie")])))
        writer.start()
        time.sleep(0.2)
        assert not done  # blocked behind the lock
        os.replace(path, tmp_path / "moved.rpak")
        fcntl.flock(holder, fcntl.LOCK_UN)
        holder.close()
        writer.join(10)
        assert done == [1]
        assert (tmp_path / "moved.rpak").read_bytes() == before
        with Pack.open(path) as pack:
            assert pack.keys() == ["c"]

    def test_open_waits_for_a_writer(self, tmp_path):
        path = make_pack(tmp_path / "p.rpak")
        holder = open(path, "rb")
        fcntl.flock(holder, fcntl.LOCK_EX)
        opened = []
        reader = threading.Thread(
            target=lambda: opened.append(Pack.open(path)))
        reader.start()
        time.sleep(0.2)
        assert not opened
        fcntl.flock(holder, fcntl.LOCK_UN)
        holder.close()
        reader.join(10)
        with opened[0] as pack:
            assert pack.keys() == ["a", "b"]


N_WRITERS, N_APPENDS, BATCH = 4, 25, 3


def _payload(writer, batch, item):
    return f"writer {writer} batch {batch} item {item};".encode() * (1 + item)


def _hammer_writer(path, writer, start):
    start.wait(60)
    for batch in range(N_APPENDS):
        append_entries(path, [
            (f"w{writer}-b{batch:02d}-{item}", "k",
             _payload(writer, batch, item))
            for item in range(BATCH)
        ], compress=bool(batch % 2))


def _hammer_reader(path, start, stop, out):
    """Re-open the pack until told to stop; report problems and the
    number of opens on ``out``."""
    seen, opens, problems = set(), 0, []
    start.wait(60)
    try:
        while not stop.is_set() or not opens:
            if not os.path.exists(path):
                continue
            with Pack.open(path) as pack:
                keys = set(pack.keys())
                if seen - keys:
                    problems.append(f"vanished: {sorted(seen - keys)[:3]}")
                for key in keys - seen:
                    writer, batch, item = key.split("-")
                    if pack.read(key) != _payload(
                            int(writer[1:]), int(batch[1:]), int(item)):
                        problems.append(f"bad payload: {key}")
                    prefix = f"{writer}-{batch}-"
                    if sum(k.startswith(prefix) for k in keys) != BATCH:
                        problems.append(f"torn batch: {prefix}")
                seen = keys
            opens += 1
    except PackError as exc:
        problems.append(f"PackError: {exc}")
    out.put((opens, problems))


def test_hammer_concurrent_writers_and_readers(tmp_path):
    """Four writer processes make 25 appends each while two readers
    re-open the pack in a loop: no reader hits a PackError or sees an
    entry vanish or a batch torn, and the pack ends with all 100
    batches and no dead bytes."""
    ctx = multiprocessing.get_context("spawn")
    path = str(tmp_path / "p.rpak")
    # Everyone starts work together, after the slow spawn start-up.
    start = ctx.Barrier(N_WRITERS + 2)
    stop, out = ctx.Event(), ctx.Queue()
    readers = [ctx.Process(target=_hammer_reader,
                           args=(path, start, stop, out))
               for _ in range(2)]
    writers = [ctx.Process(target=_hammer_writer, args=(path, w, start))
               for w in range(N_WRITERS)]
    for proc in readers + writers:
        proc.start()
    for proc in writers:
        proc.join(120)
    stop.set()
    results = [out.get(timeout=60) for _ in readers]
    for proc in readers:
        proc.join(30)
    assert [proc.exitcode for proc in writers + readers] == [0] * 6
    assert [problems for _, problems in results] == [[], []]
    assert all(opens > 0 for opens, _ in results)
    with Pack.open(path) as pack:
        keys = pack.keys()
        assert len(keys) == len(pack.records()) == (
            N_WRITERS * N_APPENDS * BATCH)
        stored = sum(pack.entry(key).csize for key in keys)
    assert os.path.getsize(path) == (
        HEADER_SIZE + stored + ENTRY_SIZE * len(keys)
        + LINK_SIZE * N_WRITERS * N_APPENDS)
    assert sorted(os.listdir(tmp_path)) == ["p.rpak"]  # no temp left


class TestCorruption:
    def test_truncated_pack(self, tmp_path):
        path = make_pack(tmp_path / "p.rpak")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(PackError, match="truncated"):
            Pack.open(path)
        path.write_bytes(data[: HEADER_SIZE - 1])
        with pytest.raises(PackError, match="truncated|shorter"):
            Pack.open(path)

    def test_bad_magic(self, tmp_path):
        path = make_pack(tmp_path / "p.rpak")
        data = bytearray(path.read_bytes())
        data[:8] = b"NOTAPACK"
        path.write_bytes(bytes(data))
        with pytest.raises(PackError, match="bad magic"):
            Pack.open(path)

    def test_entry_table_checksum_mismatch(self, tmp_path):
        path = make_pack(tmp_path / "p.rpak")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # last byte lives in the newest segment
        path.write_bytes(bytes(data))
        with pytest.raises(PackError, match="checksum"):
            Pack.open(path)

    def test_schema_version_drift(self, tmp_path):
        path = make_pack(tmp_path / "p.rpak")
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 8, PACK_VERSION + 1)
        path.write_bytes(bytes(data))
        with pytest.raises(PackVersionError, match="version"):
            Pack.open(path)

    def test_blob_checksum_mismatch_on_read(self, tmp_path):
        path = make_pack(tmp_path / "p.rpak")
        data = bytearray(path.read_bytes())
        data[HEADER_SIZE] ^= 0xFF  # first byte of entry "a"'s blob
        path.write_bytes(bytes(data))
        with Pack.open(path) as pack:
            with pytest.raises(PackError, match="checksum"):
                pack.read("a")
            # Unverified reads still work (quarantine evidence capture).
            assert len(bytes(pack.read("a", verify=False))) == 5
            # Other entries are unaffected.
            assert bytes(pack.read("b")) == b"bravo"

    def test_not_a_pack_at_all(self, tmp_path):
        path = tmp_path / "p.rpak"
        path.write_bytes(b"hello world, definitely not a pack file!" * 4)
        with pytest.raises(PackError, match="bad magic"):
            Pack.open(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(PackError, match="cannot open"):
            Pack.open(tmp_path / "absent.rpak")

    def test_compact_refuses_corrupt_source(self, tmp_path):
        path = make_pack(tmp_path / "p.rpak")
        data = bytearray(path.read_bytes())
        data[:8] = b"NOTAPACK"
        path.write_bytes(bytes(data))
        with pytest.raises(PackError):
            compact(path, tmp_path / "out.rpak")
        assert not (tmp_path / "out.rpak").exists()


class TestColumnBlobs:
    def table(self):
        return SweepTable.from_rows([
            {"device": "A", "gflops": 1.5, "nnz": 100, "best": True},
            {"device": "B", "gflops": 2.5, "nnz": 240, "best": False},
        ])

    def test_encode_decode_column(self):
        for arr in (np.arange(6, dtype=np.int64),
                    np.linspace(0, 1, 5),
                    np.array([True, False]),
                    np.array([], dtype=np.float64)):
            out = decode_column(encode_column(arr))
            assert out.dtype == arr.dtype
            np.testing.assert_array_equal(out, arr)

    def test_decode_rejects_missing_descriptor(self):
        with pytest.raises(ValueError, match="descriptor"):
            decode_column(b"\xff" * 300)

    def test_table_through_pack(self, tmp_path):
        table = self.table()
        blobs = table.to_blobs(prefix="t/")
        path = tmp_path / "p.rpak"
        with PackWriter.create(path) as writer:
            for key in sorted(blobs):
                writer.add(key, "col", blobs[key])
        with Pack.open(path) as pack:
            back = SweepTable.from_blobs(
                {k: pack.read(k) for k in pack.keys()}, prefix="t/"
            )
        assert back.names == table.names
        for name in table.names:
            np.testing.assert_array_equal(
                back._columns[name], table._columns[name]
            )

    def test_deterministic_npz_bytes(self, tmp_path):
        """Equal tables serialise to equal bytes (the property `repro
        pack`/`unpack` byte-identity rests on): the NPZ writer pins the
        zip timestamps instead of embedding wall-clock time."""
        table = self.table()
        table.to_npz(tmp_path / "a.npz")
        table.to_npz(tmp_path / "b.npz")
        a = (tmp_path / "a.npz").read_bytes()
        assert a == (tmp_path / "b.npz").read_bytes()
        back = SweepTable.from_npz(tmp_path / "a.npz")
        back.to_npz(tmp_path / "c.npz")
        assert a == (tmp_path / "c.npz").read_bytes()
