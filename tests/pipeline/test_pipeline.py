"""Pipeline engine + cache: determinism, round-trips, sharding.

The sweep tests run on a strided cross-section of the tiny preset (every
bin and feature axis is represented) so the suite stays fast; set
``REPRO_EXHAUSTIVE=1`` to run them on the full preset.
"""

import os

import numpy as np
import pytest

from repro.core.dataset import Dataset, sweep
from repro.core.feature_space import build_dataset_specs
from repro.core.generator import MatrixSpec
from repro.devices import TESTBEDS
from repro.pipeline import InstanceCache, run_sweep, resolve_jobs, spec_key

from tests.oracles.sweep import scalar_sweep

DEVICES = [TESTBEDS["AMD-EPYC-24"], TESTBEDS["Tesla-A100"]]
MAX_NNZ = 6_000

TINY = build_dataset_specs("tiny")
SPECS = TINY if os.environ.get("REPRO_EXHAUSTIVE") == "1" else TINY[::7]


def tiny_dataset(specs=None, cache=None):
    return Dataset(
        SPECS if specs is None else specs,
        max_nnz=MAX_NNZ, name="tiny", cache=cache,
    )


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("sweep-cache"))


@pytest.fixture(scope="module")
def serial_table():
    return sweep(tiny_dataset(), DEVICES)


class TestSpecKey:
    def test_stable_across_equal_specs(self):
        a = MatrixSpec.from_footprint(4.0, 10.0, seed=3)
        b = MatrixSpec.from_footprint(4.0, 10.0, seed=3)
        assert spec_key(a, 100) == spec_key(b, 100)

    def test_sensitive_to_fields_and_cap(self):
        a = MatrixSpec.from_footprint(4.0, 10.0, seed=3)
        keys = {
            spec_key(a, 100),
            spec_key(a, 200),
            spec_key(MatrixSpec.from_footprint(4.0, 10.0, seed=4), 100),
            spec_key(MatrixSpec.from_footprint(8.0, 10.0, seed=3), 100),
        }
        assert len(keys) == 4


class TestParallelDeterminism:
    def test_parallel_equals_serial_rows(self, serial_table):
        par = sweep(tiny_dataset(), DEVICES, jobs=3)
        assert par.rows == serial_table.rows

    def test_precision_threads_through_every_engine(self, serial_table):
        """``precision`` reaches the in-process and crew paths alike and
        matches the scalar oracle — identical rows, different from fp64."""
        fp32 = sweep(tiny_dataset(), DEVICES, precision="fp32")
        assert fp32.rows != serial_table.rows
        assert sweep(
            tiny_dataset(), DEVICES, precision="fp32", jobs=2
        ).rows == fp32.rows
        assert scalar_sweep(
            tiny_dataset(), DEVICES, precision="fp32"
        ).rows == fp32.rows

    def test_progress_reports_monotonic_totals(self):
        seen = []
        sweep(
            tiny_dataset(specs=SPECS[:8]), DEVICES[:1], jobs=2,
            progress=lambda i, n: seen.append((i, n)),
        )
        assert seen, "progress callback never fired"
        assert all(n == 8 for _, n in seen)
        assert [i for i, _ in seen] == sorted(i for i, _ in seen)
        assert seen[-1][0] == 8

    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(5) == 5
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(None) >= 1


class TestCache:
    def test_cold_then_warm_rows_identical(self, serial_table, cache_dir):
        cold = sweep(tiny_dataset(), DEVICES, cache_dir=cache_dir)
        assert cold.rows == serial_table.rows
        # A fresh dataset + fresh cache handle: everything reloads from
        # disk, nothing is regenerated.
        warm = sweep(tiny_dataset(), DEVICES, cache_dir=cache_dir)
        assert warm.rows == serial_table.rows
        assert len(InstanceCache(cache_dir)) == len(SPECS)

    def test_parallel_with_shared_cache_matches_serial(
        self, serial_table, cache_dir
    ):
        par = sweep(tiny_dataset(), DEVICES, jobs=2, cache_dir=cache_dir)
        assert par.rows == serial_table.rows

    def test_batched_sweep_persists_derived_state(self, tmp_path):
        """Regression: the batch engine must write cache entries *after*
        grid scoring, so the persisted instances carry the features,
        format stats and SIMD/imbalance memos the scoring computed —
        otherwise every warm sweep re-derives all of it."""
        dev = TESTBEDS["INTEL-XEON"]
        sweep(tiny_dataset(specs=SPECS[:2]), [dev],
              cache_dir=str(tmp_path))
        for spec in SPECS[:2]:
            restored = InstanceCache(tmp_path).fetch(spec, MAX_NNZ)
            assert restored is not None
            assert restored._features is not None
            assert set(dev.formats) <= (
                set(restored._format_stats) | set(restored._format_fail)
            )
            assert dev.simd_width_dp in restored._simd_util
            assert restored._imbalance

    def test_instance_roundtrip_exact(self, tmp_path):
        spec = TINY[0]
        cache = InstanceCache(tmp_path)
        ds = tiny_dataset(specs=[spec])
        inst = ds.instance(0)
        inst.features  # populate every derived quantity
        inst.row_profile()
        inst.format_stats("Naive-CSR")
        inst.simd_utilisation(8)
        inst.imbalance("row_block", 16, 8)
        assert cache.store(spec, MAX_NNZ, inst)

        restored = InstanceCache(tmp_path).fetch(
            spec, MAX_NNZ, name=inst.name
        )
        assert restored is not None
        assert restored.matrix == inst.matrix
        assert restored.features == inst.features
        np.testing.assert_array_equal(
            restored.row_profile(), inst.row_profile()
        )
        assert (
            restored.format_stats("Naive-CSR")
            == inst.format_stats("Naive-CSR")
        )
        assert restored.simd_utilisation(8) == inst.simd_utilisation(8)
        assert restored.imbalance("row_block", 16, 8) == inst.imbalance(
            "row_block", 16, 8
        )

    def test_store_skips_unchanged_entries(self, tmp_path):
        spec = TINY[1]
        cache = InstanceCache(tmp_path)
        ds = tiny_dataset(specs=[spec], cache=cache)
        inst = ds.instance(0)
        inst.features
        assert cache.store(spec, MAX_NNZ, inst) is True
        assert cache.store(spec, MAX_NNZ, inst) is False  # signature equal
        inst.format_stats("COO")  # new derived state -> dirty again
        assert cache.store(spec, MAX_NNZ, inst) is True

    def test_fetch_renames_instance(self, tmp_path):
        spec = TINY[2]
        cache = InstanceCache(tmp_path)
        inst = Dataset([spec], max_nnz=MAX_NNZ, name="a").instance(0)
        cache.store(spec, MAX_NNZ, inst)
        got = cache.fetch(spec, MAX_NNZ, name="b[0]")
        assert got is not None and got.name == "b[0]"
        # A memory hit under a different name must not rename the instance
        # other datasets hold (names seed the measurement noise)...
        again = cache.fetch(spec, MAX_NNZ, name="c[0]")
        assert again.name == "c[0]" and got.name == "b[0]"
        # ...while derived state still flows into the shared cache entry.
        again.format_stats("COO")
        assert "COO" in got._format_stats

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        spec = TINY[3]
        cache = InstanceCache(tmp_path)
        inst = Dataset([spec], max_nnz=MAX_NNZ, name="x").instance(0)
        cache.store(spec, MAX_NNZ, inst)
        for p in tmp_path.glob("*.json"):
            p.write_text("{ not json")
        fresh = InstanceCache(tmp_path)
        assert fresh.fetch(spec, MAX_NNZ, name="x[0]") is None

    def test_corrupt_npz_is_a_miss_and_heals(self, tmp_path):
        spec = TINY[3]
        cache = InstanceCache(tmp_path)
        inst = Dataset([spec], max_nnz=MAX_NNZ, name="x").instance(0)
        cache.store(spec, MAX_NNZ, inst)
        npz = next(tmp_path.glob("*.npz"))
        npz.write_bytes(b"garbage, not a zip archive")
        fresh = InstanceCache(tmp_path)
        assert fresh.fetch(spec, MAX_NNZ, name="x[0]") is None
        assert not npz.exists()  # cleared so the next store rewrites it
        assert fresh.store(spec, MAX_NNZ, inst) is True
        assert InstanceCache(tmp_path).fetch(
            spec, MAX_NNZ, name="x[0]"
        ) is not None

    def test_memo_change_rewrites_json_only(self, tmp_path):
        spec = TINY[3]
        cache = InstanceCache(tmp_path)
        inst = Dataset([spec], max_nnz=MAX_NNZ, name="x").instance(0)
        inst.features
        inst.row_profile()
        inst.simd_utilisation(8)
        cache.store(spec, MAX_NNZ, inst)
        warm = InstanceCache(tmp_path)
        got = warm.fetch(spec, MAX_NNZ, name="x[0]")
        npz = next(tmp_path.glob("*.npz"))
        mtime = npz.stat().st_mtime_ns
        got.simd_utilisation(32)  # derived memo only
        assert warm.store(spec, MAX_NNZ, got) is True
        assert npz.stat().st_mtime_ns == mtime  # matrix payload untouched


class TestRunSweepDirect:
    def test_run_sweep_accepts_cache_object(self, tmp_path):
        specs = SPECS[:6]
        reference = run_sweep(tiny_dataset(specs=specs), DEVICES)
        cache = InstanceCache(tmp_path)
        table = run_sweep(tiny_dataset(specs=specs), DEVICES, cache=cache)
        assert table.rows == reference.rows
        assert cache.misses > 0
        again = run_sweep(tiny_dataset(specs=specs), DEVICES, cache=cache)
        assert again.rows == reference.rows
        assert cache.hits_memory > 0

    def test_empty_dataset(self):
        table = run_sweep(
            Dataset([], max_nnz=MAX_NNZ, name="empty"), DEVICES, jobs=4
        )
        assert len(table) == 0
