"""CLI surface added with the service: --version, train, serve
plumbing, and output-path hardening for sweep/train."""

import numpy as np
import pytest

from repro import __version__
from repro.cli import main
from repro.core.table import SweepTable
from repro.ml import FormatSelector


def _corpus_rows(devices=("dev-a",), n=40, seed=0):
    rng = np.random.default_rng(seed)
    rows = []
    for device in devices:
        for i in range(n):
            skew = float(rng.choice([1.0, 5000.0]))
            feats = {
                "matrix": f"m{i}",
                "device": device,
                "mem_footprint_mb": float(rng.uniform(4, 512)),
                "avg_nnz_per_row": float(rng.uniform(5, 100)),
                "skew_coeff": skew,
                "cross_row_similarity": float(rng.uniform(0, 1)),
                "avg_num_neighbours": float(rng.uniform(0, 2)),
            }
            fast = 100.0 if skew < 100 else 20.0
            rows.append({**feats, "format": "Fast", "gflops": fast})
            rows.append({**feats, "format": "Bal", "gflops": 60.0})
    return rows


@pytest.fixture()
def corpus_npz(tmp_path):
    path = tmp_path / "corpus.npz"
    SweepTable.from_rows(_corpus_rows()).to_npz(path)
    return path


class TestVersion:
    def test_version_flag_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_version_has_one_source(self):
        import re
        from pathlib import Path

        import repro

        version_file = (
            Path(repro.__file__).parent / "_version.py"
        )
        assert re.search(
            rf'^__version__ = "{re.escape(__version__)}"',
            version_file.read_text(), re.MULTILINE,
        )
        setup_py = (
            Path(repro.__file__).parents[2] / "setup.py"
        )
        if setup_py.exists():  # not present in installed trees
            text = setup_py.read_text()
            assert "_version.py" in text
            assert __version__ not in text  # parsed, never duplicated


class TestTrain:
    def test_trains_and_writes_artifact(self, corpus_npz, tmp_path,
                                        capsys):
        out = tmp_path / "sel.npz"
        rc = main(["train", "--table", str(corpus_npz),
                   "--out", str(out)])
        assert rc == 0
        assert "trained forest selector on 40 matrices" in \
            capsys.readouterr().out
        loaded = FormatSelector.from_npz(out)
        assert sorted(loaded.formats) == ["Bal", "Fast"]

    def test_creates_missing_parent_dirs(self, corpus_npz, tmp_path):
        out = tmp_path / "deep" / "nested" / "sel.npz"
        assert main(["train", "--table", str(corpus_npz),
                     "--out", str(out)]) == 0
        assert out.exists()

    def test_multi_device_corpus_needs_device_flag(self, tmp_path,
                                                   capsys):
        path = tmp_path / "multi.npz"
        SweepTable.from_rows(
            _corpus_rows(devices=("dev-a", "dev-b"))
        ).to_npz(path)
        rc = main(["train", "--table", str(path),
                   "--out", str(tmp_path / "sel.npz")])
        assert rc == 2
        assert "--device" in capsys.readouterr().err
        assert main([
            "train", "--table", str(path), "--device", "dev-b",
            "--out", str(tmp_path / "sel.npz"),
        ]) == 0

    def test_unknown_device_is_exit_2(self, corpus_npz, tmp_path,
                                      capsys):
        rc = main(["train", "--table", str(corpus_npz),
                   "--device", "dev-z",
                   "--out", str(tmp_path / "sel.npz")])
        assert rc == 2
        assert "dev-a" in capsys.readouterr().err  # names what exists

    def test_unknown_model_is_exit_2(self, corpus_npz, tmp_path,
                                     capsys):
        # argparse rejects it at the flag level (choices=...), which
        # also exits 2 with the valid families listed.
        with pytest.raises(SystemExit) as exc:
            main(["train", "--table", str(corpus_npz),
                  "--model", "gbm",
                  "--out", str(tmp_path / "sel.npz")])
        assert exc.value.code == 2
        assert "invalid choice: 'gbm'" in capsys.readouterr().err

    def test_best_only_corpus_is_exit_2(self, tmp_path, capsys):
        best = {}
        for row in _corpus_rows():
            key = row["matrix"]
            if key not in best or row["gflops"] > best[key]["gflops"]:
                best[key] = row
        path = tmp_path / "best.npz"
        SweepTable.from_rows(list(best.values())).to_npz(path)
        rc = main(["train", "--table", str(path),
                   "--out", str(tmp_path / "sel.npz")])
        assert rc == 2
        assert "--all-formats" in capsys.readouterr().err

    def test_non_npz_out_is_exit_2(self, corpus_npz, tmp_path,
                                   capsys):
        rc = main(["train", "--table", str(corpus_npz),
                   "--out", str(tmp_path / "sel.csv")])
        assert rc == 2
        assert ".npz" in capsys.readouterr().err

    def test_missing_corpus_is_exit_2(self, tmp_path):
        rc = main(["train", "--table", str(tmp_path / "nope.npz"),
                   "--out", str(tmp_path / "sel.npz")])
        assert rc == 2



class TestServe:
    def test_zero_max_batch_is_exit_2(self, corpus_npz, capsys):
        rc = main(["serve", "--table", str(corpus_npz), "--port", "0",
                   "--access-log", "off", "--max-batch", "0"])
        assert rc == 2
        assert "max_batch" in capsys.readouterr().err

class TestOutputPathHardening:
    SWEEP = ["sweep", "--scale", "tiny", "--devices", "Tesla-A100",
             "--max-nnz", "5000"]

    def test_sweep_out_creates_parent_dirs(self, tmp_path):
        out = tmp_path / "a" / "b" / "table.csv"
        assert main(self.SWEEP + ["--out", str(out)]) == 0
        assert out.exists()

    def test_health_json_creates_parent_dirs(self, tmp_path):
        out = tmp_path / "t.csv"
        report = tmp_path / "reports" / "run" / "health.json"
        assert main(self.SWEEP + [
            "--out", str(out), "--health-json", str(report),
        ]) == 0
        assert report.exists()

    def test_unwritable_out_fails_fast_with_exit_2(self, tmp_path,
                                                   capsys):
        # A file where a directory must go: mkdir fails even as root.
        blocker = tmp_path / "blocker"
        blocker.write_text("flat file")
        out = blocker / "sub" / "table.csv"
        rc = main(self.SWEEP + ["--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert str(out) in err or "blocker" in err

    def test_unwritable_health_json_fails_before_sweeping(
        self, tmp_path, capsys, monkeypatch
    ):
        import repro.core.dataset as dataset_mod

        def explode(*a, **k):
            raise AssertionError("sweep ran before path validation")

        monkeypatch.setattr(dataset_mod, "sweep", explode)
        blocker = tmp_path / "blocker"
        blocker.write_text("flat file")
        rc = main(self.SWEEP + [
            "--out", str(tmp_path / "t.csv"),
            "--health-json", str(blocker / "x" / "h.json"),
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
