"""Pack-backed cache + pack-backed journal shards.

A warm sweep served entirely out of ``cache.rpak`` must be row-for-row
bit-identical to the no-cache path, crew workers must be able to append
to one pack, and every pack corruption mode must quarantine evidence
(never delete) and leave the sweep output bit-identical.
"""

import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.core.dataset import Dataset
from repro.core.feature_space import build_dataset_specs
from repro.devices import TESTBEDS
from repro.io.pack import HEADER_SIZE, Pack
from repro.perfmodel.fused import FusedSpecSource
from repro.pipeline import InstanceCache, RunReport, run_sweep
from repro.pipeline.cache import PACK_NAME
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
    """Golden table + the cache directory its sweep filled: one pack,
    nothing else."""
    warm = tmp_path_factory.mktemp("packed-cache")
    table = run_sweep(dataset(), DEVICES, cache_dir=str(warm))
    assert sorted(p.name for p in warm.iterdir()) == [PACK_NAME]
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

    def test_crew_workers_append_to_one_pack(self, golden_and_packed_cache,
                                             tmp_path):
        """Crew workers each append their chunks' records to the one
        ``cache.rpak``; a re-sweep through a fresh handle is then served
        from that pack alone."""
        golden, _ = golden_and_packed_cache
        cache_dir = tmp_path / "cache"
        table = run_sweep(dataset(), DEVICES, jobs=2,
                          cache_dir=str(cache_dir))
        assert_bit_identical(table, golden)
        assert sorted(p.name for p in cache_dir.iterdir()) == [PACK_NAME]
        with Pack.open(cache_dir / PACK_NAME) as pack:
            assert len(pack) == len(SPECS)
            assert len(pack.records()) == len(SPECS)
        cache = InstanceCache(cache_dir)
        again = run_sweep(dataset(), DEVICES, cache=cache)
        assert_bit_identical(again, golden)
        assert cache.hits_pack == len(SPECS)
        assert cache.misses == 0

    @pytest.mark.parametrize("mode", ["magic", "truncate"])
    def test_corrupt_pack_file_quarantined(
            self, golden_and_packed_cache, tmp_path, mode):
        """An unreadable pack is moved into quarantine/ wholesale; the
        sweep rescores everything, stays bit-identical and starts a
        fresh pack."""
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
        assert (cache_dir / "quarantine" / PACK_NAME).read_bytes() != (
            pack_path.read_bytes())
        assert len(InstanceCache(cache_dir)) == len(SPECS)

    def test_store_into_pack_damaged_after_open(
            self, golden_and_packed_cache, tmp_path):
        """A pack that turns unreadable after the handle opened it is
        quarantined by the next store, which starts a fresh pack instead
        of failing the chunk."""
        golden, packed = golden_and_packed_cache
        cache_dir = tmp_path / "cache"
        shutil.copytree(packed, cache_dir)
        pack_path = cache_dir / PACK_NAME
        cache = InstanceCache(cache_dir)
        # Damage in place: the handle keeps the file mapped, so its
        # size must not shrink under it.
        with open(pack_path, "r+b") as fh:
            fh.write(b"NOTAPACK")
        damaged = pack_path.read_bytes()
        record = scored_record(SPECS[0])
        assert cache.store([SPECS[0]], MAX_NNZ, [record]) == 1
        assert cache.quarantined == 1
        assert (cache_dir / "quarantine" / PACK_NAME).read_bytes() == damaged
        fresh = InstanceCache(cache_dir)
        assert len(fresh) == 1
        assert fresh.fetch(SPECS[0], MAX_NNZ) == record
        # The handle still serves the rest from the pack it opened.
        table = run_sweep(dataset(), DEVICES, cache=cache)
        assert_bit_identical(table, golden)
        assert cache.misses == 0

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
        assert pack_path.exists()  # the pack itself stays in place
        evidence = sorted(
            p.name for p in (cache_dir / "quarantine").iterdir()
        )
        assert len(evidence) == 1  # the record's raw bytes copied out
        assert evidence[0].endswith(".json")


# Run in a child process: a reader that dies of SIGBUS must fail the
# test, not kill the test runner.
_TRUNCATED_UNDER_HANDLE = """
import json, os, sys
from tests.pipeline import test_pack_cache as t
from tests.pipeline.golden import assert_bit_identical
from repro.core.dataset import Dataset
from repro.core.feature_space import build_dataset_specs
from repro.pipeline import InstanceCache, run_sweep
from repro.pipeline.cache import PACK_NAME

cache_dir = sys.argv[1]
dataset = Dataset(build_dataset_specs("tiny")[::12], max_nnz=t.MAX_NNZ)
cold = run_sweep(dataset, t.DEVICES, cache_dir=cache_dir)
pack_path = os.path.join(cache_dir, PACK_NAME)
size = os.path.getsize(pack_path)
cache = InstanceCache(cache_dir)
os.truncate(pack_path, 200)
again = run_sweep(dataset, t.DEVICES, cache=cache)
assert_bit_identical(again, cold)
print(json.dumps({"size": size, "quarantined": cache.quarantined,
                  "hits_pack": cache.hits_pack}))
"""


class TestTruncatedUnderHandle:
    def test_truncated_pack_is_quarantined_not_a_crash(self, tmp_path):
        """A pack truncated under an open handle: every fetch past the
        cut raises PackError inside the cache, which quarantines the
        entry and rescores it, and the re-sweep equals the cold one."""
        root = Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), str(root),
                        env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", _TRUNCATED_UNDER_HANDLE,
             str(tmp_path / "cache")],
            capture_output=True, text=True, env=env, cwd=root,
            timeout=300,
        )
        assert proc.returncode == 0, (proc.returncode, proc.stderr[-2000:])
        out = json.loads(proc.stdout.splitlines()[-1])
        # Past the first page, so a mapped read would fault.
        assert out["size"] > 2 * 4096
        assert out["quarantined"] > 0
        assert out["hits_pack"] == 0


class TestLen:
    def test_pack_entries_counted(self, golden_and_packed_cache,
                                  tmp_path):
        _, packed = golden_and_packed_cache
        cache_dir = tmp_path / "cache"
        shutil.copytree(packed, cache_dir)
        assert len(InstanceCache(cache_dir)) == len(SPECS)


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
        table = run_sweep(dataset(), DEVICES, run_dir=str(run_dir))
        assert_bit_identical(table, golden)
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "journal.jsonl", "shards.rpak"]
        journal = RunJournal.load(run_dir)
        done = journal.completed_chunks()
        assert sorted(done) == sorted(journal._chunks)
        # Resume reuses every packed shard.
        rep2 = RunReport()
        table2 = run_sweep(dataset(), DEVICES, run_dir=str(run_dir),
                           resume=True, report=rep2)
        assert_bit_identical(table2, golden)
        assert "shards" not in rep2.engine
        assert rep2.chunks_resumed == len(journal._chunks)

    def test_corrupt_shard_pack_means_rerun_not_crash(self, tmp_path):
        from repro.core.table import SweepTable

        journal = RunJournal.create(
            tmp_path / "run", self.config(), [(0, 2), (2, 4)],
        )
        shard = SweepTable.from_rows([{"device": "A", "gflops": 1.0}])
        journal.write_shard(0, shard)
        journal.record_chunk(0, 0, 2, attempt=0)
        journal.pack_path.write_bytes(b"garbage, not a pack")
        reloaded = RunJournal.load(tmp_path / "run")
        assert reloaded.completed_chunks() == {}
        # The re-executed chunk's append moves the garbage aside and
        # starts a fresh pack.
        reloaded.write_shard(0, shard)
        assert reloaded.load_shard(0).names == shard.names
        assert (tmp_path / "run" / "quarantine" / "shards.rpak"
                ).read_bytes() == b"garbage, not a pack"

    def test_retried_chunk_reappends_idempotently(self, tmp_path):
        from repro.core.table import SweepTable

        journal = RunJournal.create(
            tmp_path / "run", self.config(), [(0, 2)],
        )
        shard = SweepTable.from_rows([{"device": "A", "gflops": 1.0}])
        journal.write_shard(0, shard)
        size = journal.pack_path.stat().st_size
        journal.write_shard(0, shard)  # retry with identical payload
        assert journal.pack_path.stat().st_size == size
        loaded = journal.load_shard(0)
        assert loaded.names == shard.names
