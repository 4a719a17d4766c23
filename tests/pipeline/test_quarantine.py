"""Cache corruption → quarantine: never silent deletion, never bad data.

A corrupt ``<key>.json`` scoring record anywhere in the cache pack must
(a) leave the sweep bit-identical to a clean run — the record is treated
as a miss, rescored from its spec and appended again — and (b) have its
stored bytes copied into ``quarantine/`` so the evidence survives for
inspection.
"""

import shutil

import pytest

from repro.core.dataset import Dataset
from repro.core.feature_space import build_dataset_specs
from repro.devices import TESTBEDS
from repro.io.pack import Pack
from repro.perfmodel.fused import FusedSpecSource
from repro.pipeline import InstanceCache, RunReport, corrupt_file, run_sweep
from repro.pipeline.cache import PACK_NAME

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


def corrupt_entry(cache_dir, mode, pick=lambda names: names[0]):
    """Damage one record's stored blob inside the cache pack in place;
    returns the entry's name."""
    pack_path = cache_dir / PACK_NAME
    with Pack.open(pack_path) as pack:
        name = pick(sorted(pack.keys()))
        entry = pack.entry(name)
    corrupt_file(pack_path, mode=mode, region=(entry.offset, entry.csize))
    return name


class TestQuarantine:
    @pytest.mark.parametrize("suffix", [".json"])
    @pytest.mark.parametrize("mode", ["truncate", "flip"])
    def test_corrupt_entry_mid_corpus(self, golden_and_warm_cache,
                                      tmp_path, suffix, mode):
        golden, warm = golden_and_warm_cache
        cache_dir = tmp_path / "cache"
        shutil.copytree(warm, cache_dir)
        victim = corrupt_entry(cache_dir, mode,
                               pick=lambda names: names[len(names) // 2])
        assert victim.endswith(suffix)

        cache = InstanceCache(cache_dir)
        rep = RunReport()
        table = run_sweep(dataset(), DEVICES, cache=cache, report=rep)
        assert_bit_identical(table, golden)
        assert cache.quarantined == 1
        assert rep.cache_quarantined == 1
        moved = sorted(p.name for p in cache.quarantine_dir.iterdir())
        assert moved == [victim]
        # The record was rescored from its spec and appended again: a
        # fresh handle serves the full corpus from the pack.
        fresh = InstanceCache(cache_dir)
        assert_bit_identical(run_sweep(dataset(), DEVICES, cache=fresh),
                             golden)
        assert fresh.hits_pack == len(SPECS) and fresh.quarantined == 0
        assert len(fresh) == len(SPECS)

    def test_collisions_get_suffixes_not_overwritten(self, tmp_path):
        spec = SPECS[0]
        for _ in range(2):
            source = FusedSpecSource([spec], ["x[0]"], max_nnz=MAX_NNZ)
            source.scalar_arrays()
            store = InstanceCache(tmp_path)
            assert store.store([spec], MAX_NNZ, source.records) == 1
            corrupt_entry(tmp_path, "flip")
            fresh = InstanceCache(tmp_path)
            assert fresh.fetch(spec, MAX_NNZ) is None
            assert fresh.quarantined == 1
            assert len(fresh) == 0
        names = sorted(p.name for p in (tmp_path / "quarantine").iterdir())
        # The record was copied out twice; the second copy picked up a
        # ``.1`` suffix instead of clobbering the first round's evidence.
        assert len(names) == 2
        assert sum(n.endswith(".1") for n in names) == 1

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
