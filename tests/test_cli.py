"""CLI: every subcommand end-to-end on small inputs."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.io import read_mtx


@pytest.fixture()
def small_mtx(tmp_path):
    path = tmp_path / "m.mtx"
    rc = main([
        "generate", "--rows", "2000", "--avg", "8", "--skew", "10",
        "--seed", "3", "--out", str(path),
    ])
    assert rc == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestGenerate:
    def test_writes_valid_mtx(self, small_mtx):
        mat = read_mtx(small_mtx)
        assert mat.shape == (2000, 2000)
        assert mat.nnz > 10_000

    def test_rectangular(self, tmp_path):
        path = tmp_path / "r.mtx"
        main(["generate", "--rows", "100", "--cols", "300", "--avg", "4",
              "--out", str(path)])
        assert read_mtx(path).shape == (100, 300)


class TestFeatures:
    def test_prints_all_features(self, small_mtx, capsys):
        assert main(["features", str(small_mtx)]) == 0
        out = capsys.readouterr().out
        for key in ("mem_footprint_mb", "avg_nnz_per_row", "skew_coeff",
                    "cross_row_similarity", "avg_num_neighbours",
                    "regularity_class"):
            assert key in out


class TestSimulate:
    def test_single_device(self, small_mtx, capsys):
        assert main(["simulate", str(small_mtx), "--device",
                     "Tesla-V100"]) == 0
        out = capsys.readouterr().out
        assert "Tesla-V100" in out
        assert "fp64" in out

    def test_all_devices(self, small_mtx, capsys):
        assert main(["simulate", str(small_mtx)]) == 0
        out = capsys.readouterr().out
        assert "Alveo-U280" in out and "AMD-EPYC-24" in out

    def test_explicit_format_fp32(self, small_mtx, capsys):
        assert main(["simulate", str(small_mtx), "--device", "INTEL-XEON",
                     "--format", "CSR5", "--fp32"]) == 0
        out = capsys.readouterr().out
        assert "CSR5" in out and "fp32" in out

    def test_infeasible_format_reported(self, small_mtx, capsys):
        # DIA refuses scattered matrices (too many populated diagonals).
        assert main(["simulate", str(small_mtx), "--device",
                     "AMD-EPYC-24", "--format", "DIA"]) == 0
        assert "failed" in capsys.readouterr().out


class TestValidate:
    def test_subset_run(self, capsys):
        assert main(["validate", "--ids", "1,3", "--device", "INTEL-XEON",
                     "--friends", "3"]) == 0
        out = capsys.readouterr().out
        assert "scircuit" in out and "MAPE" in out


GOLDEN = Path(__file__).parent / "fixtures" / "cli"


class TestGoldenOutputs:
    """``repro simulate`` and ``repro validate`` print exactly the tables
    committed under ``tests/fixtures/cli``.  Measurement noise is keyed on
    the matrix path argument, so the matrix is generated into a fixed
    working directory and passed by its relative name."""

    @pytest.fixture()
    def in_tmp(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main([
            "generate", "--rows", "2000", "--avg", "8", "--skew", "10",
            "--seed", "3", "--out", "m.mtx",
        ]) == 0

    @pytest.mark.parametrize("golden, flags", [
        ("simulate_all.txt", []),
        ("simulate_csr5.txt", ["--format", "CSR5"]),
        ("simulate_fp32.txt", ["--fp32"]),
        ("simulate_dia.txt", ["--format", "DIA"]),
    ])
    def test_simulate(self, in_tmp, capsys, golden, flags):
        capsys.readouterr()
        assert main(["simulate", "m.mtx", *flags]) == 0
        assert capsys.readouterr().out == (GOLDEN / golden).read_text()

    def test_validate(self, capsys):
        assert main(["validate", "--ids", "1,11", "--friends", "3",
                     "--device", "INTEL-XEON"]) == 0
        assert capsys.readouterr().out == (
            GOLDEN / "validate.txt"
        ).read_text()


class TestSweep:
    def test_writes_csv(self, tmp_path, capsys, monkeypatch):
        # Shrink the sweep: tiny dataset, one device, small reps.
        out_csv = tmp_path / "rows.csv"
        import repro.core.feature_space as fs

        original = fs.build_dataset_specs

        def small_specs(scale, **kw):
            return original(scale, **kw)[:4]

        monkeypatch.setattr(
            "repro.core.feature_space.build_dataset_specs", small_specs
        )
        assert main([
            "sweep", "--scale", "tiny", "--devices", "INTEL-XEON",
            "--max-nnz", "20000", "--out", str(out_csv),
        ]) == 0
        from repro.io import read_rows

        rows = read_rows(out_csv)
        assert len(rows) == 4
        assert all(r["device"] == "INTEL-XEON" for r in rows)

    def test_jobs_and_cache_dir_flags(self, tmp_path, capsys, monkeypatch):
        # Parallel + cached runs must produce the same CSV as the serial,
        # uncached reference above.
        import repro.core.feature_space as fs

        original = fs.build_dataset_specs

        def small_specs(scale, **kw):
            return original(scale, **kw)[:4]

        monkeypatch.setattr(
            "repro.core.feature_space.build_dataset_specs", small_specs
        )
        from repro.io import read_rows

        serial_csv = tmp_path / "serial.csv"
        assert main([
            "sweep", "--scale", "tiny", "--devices", "INTEL-XEON",
            "--max-nnz", "20000", "--out", str(serial_csv),
        ]) == 0
        cache_dir = tmp_path / "cache"
        for tag in ("cold", "warm"):
            out_csv = tmp_path / f"{tag}.csv"
            assert main([
                "sweep", "--scale", "tiny", "--devices", "INTEL-XEON",
                "--max-nnz", "20000", "--jobs", "2",
                "--cache-dir", str(cache_dir), "--out", str(out_csv),
            ]) == 0
            assert read_rows(out_csv) == read_rows(serial_csv)
        # The cache is one pack of records, nothing else.
        assert sorted(p.name for p in cache_dir.iterdir()) == ["cache.rpak"]

    def test_npz_out_feeds_experiment(self, tmp_path, capsys,
                                      monkeypatch):
        """sweep --out table.npz → experiment --table table.npz equals
        the re-sweeping experiment byte for byte."""
        import repro.core.feature_space as fs

        original = fs.build_dataset_specs
        monkeypatch.setattr(
            "repro.core.feature_space.build_dataset_specs",
            lambda scale, **kw: original(scale, **kw)[:6],
        )
        npz = tmp_path / "table.npz"
        assert main([
            "sweep", "--scale", "tiny", "--devices", "INTEL-XEON",
            "--max-nnz", "20000", "--all-formats", "--out", str(npz),
        ]) == 0
        from repro.core.table import SweepTable

        table = SweepTable.from_npz(npz)
        assert len(table.unique("matrix")) == 6
        assert len(table) > 6  # per-format rows, not best-only

        ref, via_table = tmp_path / "ref.json", tmp_path / "tab.json"
        # --limit shrinks the re-sweeping reference to the same first 6
        # specs the (monkeypatched) sweep command persisted.
        base = ["experiment", "--scale", "tiny", "--devices",
                "INTEL-XEON", "--max-nnz", "20000", "--folds", "2",
                "--model", "knn", "--limit", "6"]
        assert main(base + ["--out", str(ref)]) == 0
        assert main(base + ["--table", str(npz),
                            "--out", str(via_table)]) == 0
        assert via_table.read_bytes() == ref.read_bytes()

    def test_format_flag_overrides_extension(self, tmp_path,
                                             monkeypatch):
        import repro.core.feature_space as fs

        original = fs.build_dataset_specs
        monkeypatch.setattr(
            "repro.core.feature_space.build_dataset_specs",
            lambda scale, **kw: original(scale, **kw)[:2],
        )
        out = tmp_path / "table.dat"
        assert main([
            "sweep", "--scale", "tiny", "--devices", "INTEL-XEON",
            "--max-nnz", "20000", "--format", "json", "--out", str(out),
        ]) == 0
        import json

        rows = json.loads(out.read_text())
        assert len(rows) == 2
        assert rows[0]["device"] == "INTEL-XEON"
