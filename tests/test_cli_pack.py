"""CLI pack/unpack/ls: byte-identical round trips + actionable errors."""

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
    def test_ls_lists_entries(self, warm_cache, capsys):
        assert main(["ls", str(warm_cache / "cache.rpak"),
                     "--verify"]) == 0
        out = capsys.readouterr().out
        assert f"{len(SPECS)} entries" in out
        assert "all checksums verified" in out
        assert out.count(".json") == len(SPECS)

    def test_pack_missing_dir_exits_2(self, tmp_path, capsys):
        rc = main(["pack", str(tmp_path / "nope")])
        assert rc == 2
        assert "does not exist" in capsys.readouterr().err

    def test_pack_cache_dir_exits_2_naming_ls(self, warm_cache, capsys):
        assert main(["pack", str(warm_cache)]) == 2
        assert "repro ls" in capsys.readouterr().err

    def test_unpack_cache_pack_exits_2_naming_ls(self, warm_cache,
                                                 tmp_path, capsys):
        rc = main(["unpack", str(warm_cache / "cache.rpak"),
                   "--out", str(tmp_path / "restored")])
        assert rc == 2
        assert "repro ls" in capsys.readouterr().err
        assert not (tmp_path / "restored").exists()


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
            run_dir=str(run_dir),
        )
        out = tmp_path / "shards"
        assert main(["unpack", str(run_dir / "shards.rpak"),
                     "--out", str(out)]) == 0
        shards = sorted(out.glob("chunk-*.npz"))
        assert shards
        total = sum(len(SweepTable.from_npz(p)) for p in shards)
        assert total > 0
