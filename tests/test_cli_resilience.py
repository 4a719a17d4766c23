"""CLI resilience flags: --faults, --run-dir/--resume, --health-json."""

import json

import pytest

from repro.cli import main
from repro.core.table import SweepTable

from tests.pipeline.golden import assert_bit_identical


@pytest.fixture(autouse=True)
def small_dataset(monkeypatch):
    import repro.core.feature_space as fs

    original = fs.build_dataset_specs
    monkeypatch.setattr(
        "repro.core.feature_space.build_dataset_specs",
        lambda scale, **kw: original(scale, **kw)[:6],
    )


BASE = ["sweep", "--scale", "tiny", "--devices", "Tesla-A100",
        "--max-nnz", "5000"]


@pytest.fixture()
def clean_table(tmp_path):
    out = tmp_path / "clean.npz"
    assert main(BASE + ["--out", str(out)]) == 0
    return SweepTable.from_npz(out)


class TestFaultedSweeps:
    def test_faulted_parallel_sweep_matches_clean(self, tmp_path,
                                                  clean_table):
        out = tmp_path / "faulted.npz"
        assert main(BASE + ["--jobs", "2", "--faults", "crash@1,error@3",
                            "--out", str(out)]) == 0
        assert_bit_identical(SweepTable.from_npz(out), clean_table)

    def test_health_json_written(self, tmp_path):
        health = tmp_path / "health.json"
        assert main(BASE + ["--jobs", "2", "--faults", "error@0",
                            "--health-json", str(health),
                            "--out", str(tmp_path / "t.npz")]) == 0
        data = json.loads(health.read_text())
        assert data["status"] == "complete"
        assert data["retries"]["error"] >= 1
        assert data["wall_clock"]["total"] > 0


class TestInterruptAndResume:
    def test_stop_resume_roundtrip(self, tmp_path, clean_table, capsys):
        run_dir = tmp_path / "run"
        out = tmp_path / "table.npz"
        rc = main(BASE + ["--jobs", "2", "--run-dir", str(run_dir),
                          "--faults", "stop@2", "--out", str(out)])
        assert rc == 130
        err = capsys.readouterr().err
        assert "--resume" in err and str(run_dir) in err
        assert not out.exists()  # interrupted before the final write
        assert (run_dir / "journal.jsonl").exists()

        rc = main(BASE + ["--jobs", "2", "--resume", str(run_dir),
                          "--out", str(out)])
        assert rc == 0
        assert_bit_identical(SweepTable.from_npz(out), clean_table)

    def test_health_json_flushed_on_interrupt(self, tmp_path):
        health = tmp_path / "health.json"
        rc = main(BASE + ["--jobs", "2", "--run-dir",
                          str(tmp_path / "run"), "--faults", "stop@1",
                          "--health-json", str(health),
                          "--out", str(tmp_path / "t.npz")])
        assert rc == 130
        assert json.loads(health.read_text())["status"] == "interrupted"


class TestBadArguments:
    def test_resume_run_dir_conflict(self, tmp_path, capsys):
        rc = main(BASE + ["--resume", str(tmp_path / "a"),
                          "--run-dir", str(tmp_path / "b"),
                          "--out", str(tmp_path / "t.npz")])
        assert rc == 2
        assert "--resume" in capsys.readouterr().err

    def test_resume_without_journal(self, tmp_path, capsys):
        rc = main(BASE + ["--resume", str(tmp_path / "void"),
                          "--out", str(tmp_path / "t.npz")])
        assert rc == 2
        assert "resume" in capsys.readouterr().err

    def test_existing_run_dir_refused(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main(BASE + ["--run-dir", str(run_dir),
                            "--out", str(tmp_path / "a.npz")]) == 0
        rc = main(BASE + ["--run-dir", str(run_dir),
                          "--out", str(tmp_path / "b.npz")])
        assert rc == 2
        assert "already exists" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, flags", [
        ("--run-dir", ["--run-dir", "run-a", "--resume", "run-b"]),
        ("--chunk-timeout", ["--jobs", "2", "--chunk-timeout", "-1"]),
        ("--max-retries", ["--max-retries", "-1"]),
    ])
    def test_bad_resilience_control_exits_2(self, tmp_path, capsys, flag,
                                            flags):
        out = tmp_path / "t.npz"
        assert main(BASE + flags + ["--out", str(out)]) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--no-batch"], ["--batch"], ["--dispatch", "pool"],
        ["--fused"], ["--no-fused"], ["--pack-shards"],
    ])
    def test_engine_selection_flags_are_unknown(self, tmp_path, flags):
        with pytest.raises(SystemExit) as exc:
            main(BASE + flags + ["--out", str(tmp_path / "t.npz")])
        assert exc.value.code == 2
