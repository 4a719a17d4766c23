"""CLI pack/unpack/ls: byte-identical round trips + actionable errors."""

import shutil

import pytest

from repro.cli import main
from repro.core.dataset import Dataset
from repro.core.feature_space import build_dataset_specs
from repro.devices import TESTBEDS
from repro.pipeline import run_sweep

DEVICES = [TESTBEDS["Tesla-A100"]]
MAX_NNZ = 5_000
SPECS = build_dataset_specs("tiny")[::45]  # 4 specs: CLI smoke scale


@pytest.fixture(scope="module")
def warm_cache(tmp_path_factory):
    warm = tmp_path_factory.mktemp("cli-warm")
    run_sweep(
        Dataset(SPECS, max_nnz=MAX_NNZ, name="tiny"), DEVICES,
        cache_dir=str(warm),
    )
    return warm


class TestCachePackRoundTrip:
    def test_pack_unpack_byte_identical(self, warm_cache, tmp_path,
                                        capsys):
        cache_dir = tmp_path / "cache"
        shutil.copytree(warm_cache, cache_dir)
        originals = {
            p.name: p.read_bytes()
            for p in cache_dir.iterdir() if p.is_file()
        }
        pack_path = cache_dir / "cache.rpak"
        assert main(["pack", str(cache_dir)]) == 0
        assert "packed" in capsys.readouterr().out
        assert pack_path.exists()

        out_dir = tmp_path / "restored"
        assert main(["unpack", str(pack_path),
                     "--out", str(out_dir)]) == 0
        restored = {
            p.name: p.read_bytes() for p in out_dir.iterdir()
        }
        assert restored == originals

    def test_pack_prune_serves_from_pack_alone(self, warm_cache,
                                               tmp_path):
        from repro.pipeline import InstanceCache

        cache_dir = tmp_path / "cache"
        shutil.copytree(warm_cache, cache_dir)
        assert main(["pack", str(cache_dir), "--prune"]) == 0
        assert not list(cache_dir.glob("*.json"))
        cache = InstanceCache(cache_dir)
        assert len(cache) == len(SPECS)
        assert cache.fetch(SPECS[0], MAX_NNZ) is not None
        assert cache.hits_pack == 1

    def test_ls_lists_entries(self, warm_cache, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        shutil.copytree(warm_cache, cache_dir)
        main(["pack", str(cache_dir)])
        capsys.readouterr()
        assert main(["ls", str(cache_dir / "cache.rpak"),
                     "--verify"]) == 0
        out = capsys.readouterr().out
        assert f"{len(SPECS)} entries" in out
        assert "all checksums verified" in out
        assert out.count(".json") == len(SPECS)

    def test_pack_missing_dir_exits_2(self, tmp_path, capsys):
        rc = main(["pack", str(tmp_path / "nope")])
        assert rc == 2
        assert "does not exist" in capsys.readouterr().err


class TestTablePackRoundTrip:
    def test_sweep_table_round_trips_byte_identically(self, tmp_path,
                                                      capsys):
        table_path = tmp_path / "t.npz"
        assert main([
            "sweep", "--scale", "tiny", "--devices", "Tesla-A100",
            "--max-nnz", str(MAX_NNZ), "--out", str(table_path),
        ]) == 0
        assert main(["pack", str(table_path)]) == 0
        pack_path = tmp_path / "t.rpak"
        assert pack_path.exists()
        back = tmp_path / "back.npz"
        assert main(["unpack", str(pack_path), "--out", str(back)]) == 0
        assert back.read_bytes() == table_path.read_bytes()

    def test_unpack_table_to_non_npz_exits_2(self, tmp_path, capsys):
        table_path = tmp_path / "t.npz"
        main([
            "sweep", "--scale", "tiny", "--devices", "Tesla-A100",
            "--max-nnz", str(MAX_NNZ), "--out", str(table_path),
        ])
        main(["pack", str(table_path)])
        capsys.readouterr()
        rc = main(["unpack", str(tmp_path / "t.rpak"),
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert ".npz" in capsys.readouterr().err

    def test_prune_rejected_for_tables(self, tmp_path, capsys):
        table_path = tmp_path / "t.npz"
        main([
            "sweep", "--scale", "tiny", "--devices", "Tesla-A100",
            "--max-nnz", str(MAX_NNZ), "--out", str(table_path),
        ])
        capsys.readouterr()
        assert main(["pack", str(table_path), "--prune"]) == 2
        assert "--prune" in capsys.readouterr().err


class TestLsErrors:
    def test_ls_corrupt_pack_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.rpak"
        path.write_bytes(b"definitely not a pack" * 5)
        rc = main(["ls", str(path)])
        assert rc == 2
        assert "bad magic" in capsys.readouterr().err

    def test_ls_missing_pack_exits_2(self, tmp_path, capsys):
        rc = main(["ls", str(tmp_path / "absent.rpak")])
        assert rc == 2
        assert "cannot open" in capsys.readouterr().err


class TestShardPackUnpack:
    def test_unpack_shard_pack_to_loose_shards(self, tmp_path):
        from repro.core.table import SweepTable

        run_dir = tmp_path / "run"
        run_sweep(
            Dataset(SPECS, max_nnz=MAX_NNZ, name="tiny"), DEVICES,
            run_dir=str(run_dir), pack_shards=True,
        )
        out = tmp_path / "shards"
        assert main(["unpack", str(run_dir / "shards.rpak"),
                     "--out", str(out)]) == 0
        shards = sorted(out.glob("chunk-*.npz"))
        assert shards
        total = sum(len(SweepTable.from_npz(p)) for p in shards)
        assert total > 0

    def test_cli_pack_shards_flag(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main([
            "sweep", "--scale", "tiny", "--devices", "Tesla-A100",
            "--max-nnz", str(MAX_NNZ), "--out", str(tmp_path / "t.npz"),
            "--run-dir", str(run_dir), "--pack-shards",
        ]) == 0
        assert (run_dir / "shards.rpak").exists()
        assert not (run_dir / "shards").exists()
