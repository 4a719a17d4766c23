"""Cache corruption → quarantine: never silent deletion, never bad data.

A corrupt ``<key>.json`` scoring record anywhere in the corpus must (a)
leave the sweep bit-identical to a clean run — the record is treated as
a miss, rescored from its spec and rewritten — and (b) move the damaged
file into ``quarantine/`` so the evidence survives for inspection.
"""

import shutil

import pytest

from repro.core.dataset import Dataset
from repro.core.feature_space import build_dataset_specs
from repro.devices import TESTBEDS
from repro.perfmodel.fused import FusedSpecSource
from repro.pipeline import InstanceCache, RunReport, corrupt_file, run_sweep
from repro.pipeline.cache import decode_record

from tests.pipeline.golden import assert_bit_identical

DEVICES = [TESTBEDS["Tesla-A100"]]
MAX_NNZ = 5_000
SPECS = build_dataset_specs("tiny")[::29]  # 7 specs


def dataset():
    return Dataset(SPECS, max_nnz=MAX_NNZ, name="tiny")


@pytest.fixture(scope="module")
def golden_and_warm_cache(tmp_path_factory):
    warm = tmp_path_factory.mktemp("warm-cache")
    table = run_sweep(dataset(), DEVICES, cache_dir=str(warm))
    return table, warm


class TestQuarantine:
    @pytest.mark.parametrize("suffix", [".json"])
    @pytest.mark.parametrize("mode", ["truncate", "flip"])
    def test_corrupt_entry_mid_corpus(self, golden_and_warm_cache,
                                      tmp_path, suffix, mode):
        golden, warm = golden_and_warm_cache
        cache_dir = tmp_path / "cache"
        shutil.copytree(warm, cache_dir)
        victims = sorted(cache_dir.glob(f"*{suffix}"))
        victim = victims[len(victims) // 2]
        corrupt_file(victim, mode=mode)

        cache = InstanceCache(cache_dir)
        rep = RunReport()
        table = run_sweep(dataset(), DEVICES, cache=cache, report=rep)
        assert_bit_identical(table, golden)
        assert cache.quarantined == 1
        assert rep.cache_quarantined == 1
        moved = sorted(p.name for p in cache.quarantine_dir.iterdir())
        assert moved == [victim.name]
        # The record was rescored from its spec and rewritten: it parses
        # again, the full corpus is back on disk, and the quarantine
        # subdirectory does not inflate the census.
        decode_record(victim.stem, victim.read_bytes())
        assert len(InstanceCache(cache_dir)) == len(SPECS)

    def test_collisions_get_suffixes_not_overwritten(self, tmp_path):
        spec = SPECS[0]
        source = FusedSpecSource([spec], ["x[0]"], max_nnz=MAX_NNZ)
        source.scalar_arrays()
        for _ in range(2):
            store = InstanceCache(tmp_path)
            store.store(spec, MAX_NNZ, source.records[0])
            next(tmp_path.glob("*.json")).write_text("{ torn")
            fresh = InstanceCache(tmp_path)
            assert fresh.fetch(spec, MAX_NNZ) is None
            assert fresh.quarantined == 1
        names = sorted(p.name for p in (tmp_path / "quarantine").iterdir())
        # The record moved twice; the second one picked up a ``.1``
        # suffix instead of clobbering the first round's evidence.
        assert len(names) == 2
        assert sum(n.endswith(".1") for n in names) == 1
        assert len(InstanceCache(tmp_path)) == 0

    def test_worker_side_corrupt_fault(self, golden_and_warm_cache,
                                       tmp_path):
        """A ``corrupt`` fault fired inside a crew worker damages the
        fault chunk's own cache record; the worker quarantines it,
        rescores, and its quarantine count reaches the RunReport."""
        golden, warm = golden_and_warm_cache
        cache_dir = tmp_path / "cache"
        shutil.copytree(warm, cache_dir)
        rep = RunReport()
        table = run_sweep(dataset(), DEVICES, jobs=2,
                          faults="corrupt@1;seed=3",
                          cache_dir=str(cache_dir), report=rep)
        assert_bit_identical(table, golden)
        assert rep.cache_quarantined >= 1
        assert list((cache_dir / "quarantine").iterdir())

    def test_degraded_chunk_quarantine_counted(self, golden_and_warm_cache,
                                               tmp_path):
        """A chunk that exhausts its retries re-runs in-process; the
        corrupt entry it meets there is quarantined by the parent's cache
        handle, and that count reaches the RunReport too."""
        golden, warm = golden_and_warm_cache
        cache_dir = tmp_path / "cache"
        shutil.copytree(warm, cache_dir)
        rep = RunReport()
        table = run_sweep(dataset(), DEVICES, jobs=2,
                          faults="corrupt@0,error@0x*;seed=3",
                          max_retries=1, cache_dir=str(cache_dir),
                          report=rep)
        assert_bit_identical(table, golden)
        assert rep.chunks_degraded == [0]
        assert len(list((cache_dir / "quarantine").iterdir())) == 1
        assert rep.cache_quarantined == 1
