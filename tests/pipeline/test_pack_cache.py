"""Pack-backed cache + pack-backed journal shards.

Mirror of tests/pipeline/test_quarantine.py for the pack era: a warm
sweep served entirely out of ``cache.rpak`` must be row-for-row
bit-identical to the directory-cache and no-cache paths, and every pack
corruption mode must quarantine evidence (never delete) and leave the
sweep output bit-identical.
"""

import os
import shutil
import threading

import pytest

from repro.core.dataset import Dataset
from repro.core.feature_space import build_dataset_specs
from repro.devices import TESTBEDS
from repro.io.pack import HEADER_SIZE, Pack
from repro.perfmodel.fused import FusedSpecSource
from repro.pipeline import InstanceCache, RunReport, run_sweep, spec_key
from repro.pipeline.cache import PACK_NAME, pack_cache_dir, unpack_cache
from repro.pipeline.journal import RunJournal, sweep_config

from tests.pipeline.golden import assert_bit_identical

DEVICES = [TESTBEDS["Tesla-A100"]]
MAX_NNZ = 5_000
SPECS = build_dataset_specs("tiny")[::29]  # 7 specs


def dataset():
    return Dataset(SPECS, max_nnz=MAX_NNZ, name="tiny")


def scored_record(spec):
    """The record of ``spec`` after one cold scoring pass."""
    source = FusedSpecSource([spec], ["x[0]"], max_nnz=MAX_NNZ)
    source.scalar_arrays()
    return source.records[0]


@pytest.fixture(scope="module")
def golden_and_packed_cache(tmp_path_factory):
    """Golden table + a cache directory whose records live only in the
    pack (loose records pruned after checksum verification)."""
    warm = tmp_path_factory.mktemp("packed-cache")
    table = run_sweep(dataset(), DEVICES, cache_dir=str(warm))
    entries, _ = pack_cache_dir(warm, prune=True)
    assert entries == len(SPECS)
    assert not list(warm.glob("*.json"))
    return table, warm


class TestPackBackedCache:
    def test_warm_sweep_from_pack_bit_identical(
            self, golden_and_packed_cache, tmp_path):
        golden, packed = golden_and_packed_cache
        cache_dir = tmp_path / "cache"
        shutil.copytree(packed, cache_dir)
        cache = InstanceCache(cache_dir)
        table = run_sweep(dataset(), DEVICES, cache=cache)
        assert_bit_identical(table, golden)
        assert cache.hits_pack == len(SPECS)
        assert cache.misses == 0
        assert cache.quarantined == 0

    def test_loose_pair_shadows_pack(self, golden_and_packed_cache,
                                     tmp_path):
        """A later store writes loose records; fetch must prefer them
        over the (older, read-only) pack snapshot."""
        golden, packed = golden_and_packed_cache
        cache_dir = tmp_path / "cache"
        shutil.copytree(packed, cache_dir)
        unpack_cache(cache_dir / PACK_NAME, cache_dir)
        cache = InstanceCache(cache_dir)
        table = run_sweep(dataset(), DEVICES, cache=cache)
        assert_bit_identical(table, golden)
        assert cache.hits_disk == len(SPECS)
        assert cache.hits_pack == 0

    @pytest.mark.parametrize("mode", ["magic", "truncate"])
    def test_corrupt_pack_file_quarantined(
            self, golden_and_packed_cache, tmp_path, mode):
        """An unreadable pack is moved into quarantine/ wholesale; the
        sweep rescores everything and stays bit-identical."""
        golden, packed = golden_and_packed_cache
        cache_dir = tmp_path / "cache"
        shutil.copytree(packed, cache_dir)
        pack_path = cache_dir / PACK_NAME
        data = pack_path.read_bytes()
        if mode == "magic":
            pack_path.write_bytes(b"NOTAPACK" + data[8:])
        else:
            pack_path.write_bytes(data[: HEADER_SIZE // 2])
        cache = InstanceCache(cache_dir)
        rep = RunReport()
        table = run_sweep(dataset(), DEVICES, cache=cache, report=rep)
        assert_bit_identical(table, golden)
        assert cache.quarantined == 1
        assert rep.cache_quarantined >= 1
        assert not pack_path.exists()
        assert (cache_dir / "quarantine" / PACK_NAME).exists()

    def test_corrupt_pack_entry_quarantined_as_copy(
            self, golden_and_packed_cache, tmp_path):
        """One flipped blob byte: only that entry is treated as a miss,
        its raw bytes are copied out as evidence, and the rest of the
        pack keeps serving hits."""
        golden, packed = golden_and_packed_cache
        cache_dir = tmp_path / "cache"
        shutil.copytree(packed, cache_dir)
        pack_path = cache_dir / PACK_NAME
        data = bytearray(pack_path.read_bytes())
        data[HEADER_SIZE] ^= 0xFF  # first blob byte = first entry
        pack_path.write_bytes(bytes(data))
        cache = InstanceCache(cache_dir)
        table = run_sweep(dataset(), DEVICES, cache=cache)
        assert_bit_identical(table, golden)
        assert cache.hits_pack == len(SPECS) - 1
        assert cache.quarantined == 1
        assert pack_path.exists()  # the pack itself is untouched
        evidence = sorted(
            p.name for p in (cache_dir / "quarantine").iterdir()
        )
        assert len(evidence) == 1  # the record's raw bytes copied out
        assert evidence[0].endswith(".json")


class TestLen:
    def test_counts_only_complete_pairs(self, tmp_path):
        spec = SPECS[0]
        cache = InstanceCache(tmp_path)
        cache.store(spec, MAX_NNZ, scored_record(spec))
        assert len(InstanceCache(tmp_path)) == 1
        # Leftovers are not usable entries and must not be counted: the
        # temp file of a write that died before its rename, a lone
        # matrix payload and a whole entry of the older npz + json pair
        # layout (whose sidecar looks like a record by name alone).
        (tmp_path / f".{'0' * 32}.json.tmp1234").write_bytes(b"torn")
        (tmp_path / f"{'f' * 32}.npz").write_bytes(b"orphan")
        old_pair = [tmp_path / f"{'e' * 32}.npz",
                    tmp_path / f"{'e' * 32}.json"]
        old_pair[0].write_bytes(b"payload")
        old_pair[1].write_text('{"name": "x[0]"}')
        assert len(InstanceCache(tmp_path)) == 1
        # ...nor packed, nor pruned.
        entries, pack = pack_cache_dir(tmp_path, prune=True)
        assert entries == 1
        with Pack.open(pack) as packed:
            assert packed.keys() == [f"{spec_key(spec, MAX_NNZ)}.json"]
        assert all(path.exists() for path in old_pair)
        assert len(InstanceCache(tmp_path)) == 1

    def test_census_is_cached_not_rescanned(self, tmp_path):
        spec = SPECS[0]
        cache = InstanceCache(tmp_path)
        assert len(cache) == 0
        cache.store(spec, MAX_NNZ, scored_record(spec))
        # store() updated the census incrementally; a file that appears
        # behind the handle's back is invisible until a fresh handle
        # scans — proving repeated len() calls do not re-list the dir.
        real = os.scandir
        calls = []

        def counting_scandir(*a, **k):
            calls.append(a)
            return real(*a, **k)

        os.scandir = counting_scandir
        try:
            for _ in range(10):
                assert len(cache) == 1
        finally:
            os.scandir = real
        assert calls == []

    def test_pack_entries_counted(self, golden_and_packed_cache,
                                  tmp_path):
        _, packed = golden_and_packed_cache
        cache_dir = tmp_path / "cache"
        shutil.copytree(packed, cache_dir)
        assert len(InstanceCache(cache_dir)) == len(SPECS)

    def test_quarantine_updates_census(self, tmp_path):
        spec = SPECS[0]
        cache = InstanceCache(tmp_path)
        cache.store(spec, MAX_NNZ, scored_record(spec))
        next(tmp_path.glob("*.json")).write_text("{ torn")
        fresh = InstanceCache(tmp_path)
        assert len(fresh) == 1          # census taken before detection
        assert fresh.fetch(spec, MAX_NNZ) is None
        assert len(fresh) == 0          # quarantine removed the entry


class TestConcurrentQuarantine:
    def test_same_name_collisions_keep_every_piece_of_evidence(
            self, tmp_path):
        """Regression for the quarantine collision race: N workers
        quarantining same-named files at the same instant must end up
        with N distinct evidence files — the old ``while
        target.exists()`` probe let two workers pick the same ``.N``
        suffix and clobber each other."""
        n = 8
        contents = [f"evidence-{i}".encode() for i in range(n)]
        victims = []
        for i in range(n):
            sub = tmp_path / f"w{i}"
            sub.mkdir()
            victim = sub / "victim.json"
            victim.write_bytes(contents[i])
            victims.append(victim)
        caches = [InstanceCache(tmp_path) for _ in range(n)]
        barrier = threading.Barrier(n)
        errors = []

        def worker(i):
            try:
                barrier.wait()
                caches[i]._quarantine(victims[i])
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        moved = list((tmp_path / "quarantine").iterdir())
        assert len(moved) == n
        assert sorted(p.read_bytes() for p in moved) == sorted(contents)
        assert all(not v.exists() for v in victims)


class TestPackShards:
    def config(self):
        return sweep_config(dataset(), DEVICES, True, None, 0, "fp64")

    def test_journalled_pack_sweep_and_resume(self, golden_and_packed_cache,
                                              tmp_path):
        golden, _ = golden_and_packed_cache
        run_dir = tmp_path / "run"
        rep = RunReport()
        table = run_sweep(dataset(), DEVICES, run_dir=str(run_dir),
                          pack_shards=True, report=rep)
        assert_bit_identical(table, golden)
        assert rep.engine["shards"] == "pack"
        journal = RunJournal.load(run_dir)
        assert journal.shard_store == "pack"
        assert journal.pack_path.exists()
        assert not journal.shards_dir.exists()
        done = journal.completed_chunks()
        assert sorted(done) == sorted(journal._chunks)
        # Resume follows the journalled layout (no flag needed) and
        # reuses every packed shard.
        rep2 = RunReport()
        table2 = run_sweep(dataset(), DEVICES, run_dir=str(run_dir),
                           resume=True, report=rep2)
        assert_bit_identical(table2, golden)
        assert rep2.engine["shards"] == "pack"
        assert rep2.chunks_resumed == len(journal._chunks)

    def test_corrupt_shard_pack_means_rerun_not_crash(self, tmp_path):
        from repro.core.table import SweepTable

        journal = RunJournal.create(
            tmp_path / "run", self.config(), [(0, 2), (2, 4)],
            shard_store="pack",
        )
        shard = SweepTable.from_rows([{"device": "A", "gflops": 1.0}])
        journal.write_shard(0, shard)
        journal.record_chunk(0, 0, 2, attempt=0)
        journal.pack_path.write_bytes(b"garbage, not a pack")
        reloaded = RunJournal.load(tmp_path / "run")
        assert reloaded.shard_store == "pack"
        assert reloaded.completed_chunks() == {}

    def test_retried_chunk_reappends_idempotently(self, tmp_path):
        from repro.core.table import SweepTable

        journal = RunJournal.create(
            tmp_path / "run", self.config(), [(0, 2)],
            shard_store="pack",
        )
        shard = SweepTable.from_rows([{"device": "A", "gflops": 1.0}])
        journal.write_shard(0, shard)
        size = journal.pack_path.stat().st_size
        journal.write_shard(0, shard)  # retry with identical payload
        assert journal.pack_path.stat().st_size == size
        loaded = journal.load_shard(0)
        assert loaded.names == shard.names

    def test_unknown_shard_store_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="shard store"):
            RunJournal.create(
                tmp_path / "run", self.config(), [(0, 1)],
                shard_store="tape",
            )
