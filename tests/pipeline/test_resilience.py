"""Golden resilience suite: bit-identical sweeps under injected faults.

Every scenario asserts the strongest available contract — the merged
table is *bit-identical* (column dtypes, raw values, category tables)
to a fault-free serial sweep — not merely that the run survived.  Set
``REPRO_CHAOS=1`` to additionally run the seeded random chaos matrix
(the CI chaos job does).
"""

import json
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.core.dataset import Dataset
from repro.core.feature_space import build_dataset_specs
from repro.devices import TESTBEDS
from repro.pipeline import (
    FaultPlan, ResumeError, RunJournal, RunReport, run_sweep,
)

from tests.oracles.dispatch import pool_sweep
from tests.pipeline.golden import assert_bit_identical

# Run dirs journalled by older builds and stopped part way (see the
# README there).
FIXTURES = Path(__file__).parent / "fixtures"

DEVICES = [TESTBEDS["Tesla-A100"]]
MAX_NNZ = 5_000
SPECS = build_dataset_specs("tiny")[::13]  # 14 specs -> 8 chunks at jobs=2
# 36 specs -> 3 chunks in-process (one scoring pass of <= 16 specs each).
WIDE_SPECS = build_dataset_specs("tiny")[::5]


def dataset():
    return Dataset(SPECS, max_nnz=MAX_NNZ, name="tiny")


def wide_dataset():
    return Dataset(WIDE_SPECS, max_nnz=MAX_NNZ, name="tiny")


@pytest.fixture(scope="module")
def golden():
    return run_sweep(dataset(), DEVICES)


@pytest.fixture(scope="module")
def wide_golden():
    return run_sweep(wide_dataset(), DEVICES)


def _tree(root):
    """Every file under ``root`` with its bytes."""
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestFaultScenarios:
    def test_worker_crash_is_retried(self, golden):
        rep = RunReport()
        table = run_sweep(dataset(), DEVICES, jobs=2, faults="crash@1",
                          report=rep)
        assert_bit_identical(table, golden)
        assert rep.retries["crash"] == 1
        assert rep.worker_respawns >= 1
        assert rep.status == "complete"
        assert rep.chunks_completed == rep.chunks_total

    def test_chunk_error_is_retried(self, golden):
        rep = RunReport()
        table = run_sweep(dataset(), DEVICES, jobs=2, faults="error@0x2",
                          report=rep)
        assert_bit_identical(table, golden)
        assert rep.retries["error"] == 2
        assert rep.chunks_degraded == []

    def test_hang_recovered_by_deadline(self, golden):
        rep = RunReport()
        table = run_sweep(dataset(), DEVICES, jobs=2, faults="hang@2",
                          chunk_timeout=3.0, report=rep)
        assert_bit_identical(table, golden)
        assert rep.timeouts >= 1
        assert rep.retries["timeout"] >= 1

    def test_poisoned_chunk_degrades_in_process(self, golden):
        rep = RunReport()
        table = run_sweep(dataset(), DEVICES, jobs=2, faults="error@0x*",
                          report=rep)
        assert_bit_identical(table, golden)
        assert rep.chunks_degraded == [0]
        assert rep.status == "complete"

    def test_fault_pileup(self, golden):
        rep = RunReport()
        table = run_sweep(
            dataset(), DEVICES, jobs=2,
            faults="crash@0,error@3x2,crash@5,error@7x*", report=rep,
        )
        assert_bit_identical(table, golden)
        assert rep.retries["crash"] == 2
        assert rep.chunks_degraded == [7]

    def test_faults_armed_via_environment(self, golden, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "error@1")
        rep = RunReport()
        table = run_sweep(dataset(), DEVICES, jobs=2, report=rep)
        assert_bit_identical(table, golden)
        assert rep.retries["error"] == 1

    def test_no_zombie_processes_after_faulted_run(self):
        run_sweep(dataset(), DEVICES, jobs=2, faults="crash@2,hang@4",
                  chunk_timeout=3.0)
        assert multiprocessing.active_children() == []

    def test_progress_monotonic_under_faults(self):
        seen = []
        run_sweep(dataset(), DEVICES, jobs=2, faults="crash@1,error@3",
                  progress=lambda i, n: seen.append((i, n)))
        assert seen and seen[-1][0] == len(SPECS)
        assert all(n == len(SPECS) for _, n in seen)
        assert [i for i, _ in seen] == sorted(i for i, _ in seen)


class TestResume:
    def test_stop_fault_then_resume(self, golden, tmp_path):
        run_dir = tmp_path / "run"
        with pytest.raises(KeyboardInterrupt):
            run_sweep(dataset(), DEVICES, jobs=2, run_dir=run_dir,
                      faults="stop@2")
        journal = RunJournal.load(run_dir)
        assert journal.ended == "interrupted"
        done_before = set(journal.completed_chunks())
        assert 2 in done_before
        assert len(done_before) < len(journal.bounds)
        rep = RunReport()
        table = run_sweep(dataset(), DEVICES, jobs=2, run_dir=run_dir,
                          resume=True, report=rep)
        assert_bit_identical(table, golden)
        assert rep.chunks_resumed == len(done_before)
        assert RunJournal.load(run_dir).ended == "complete"

    def test_resume_with_different_jobs(self, golden, tmp_path):
        run_dir = tmp_path / "run"
        with pytest.raises(KeyboardInterrupt):
            run_sweep(dataset(), DEVICES, jobs=2, run_dir=run_dir,
                      faults="stop@1")
        # Serial resume of a 2-worker run: journalled bounds make the
        # merge jobs-independent.
        table = run_sweep(dataset(), DEVICES, jobs=1, run_dir=run_dir,
                          resume=True)
        assert_bit_identical(table, golden)

    def test_serial_stop_then_parallel_resume(self, wide_golden, tmp_path):
        run_dir = tmp_path / "run"
        with pytest.raises(KeyboardInterrupt):
            run_sweep(wide_dataset(), DEVICES, jobs=1, run_dir=run_dir,
                      faults="stop@1")
        journal = RunJournal.load(run_dir)
        assert journal.ended == "interrupted"
        assert len(journal.bounds) == 3
        assert sorted(journal.completed_chunks()) == [0, 1]
        rep = RunReport()
        table = run_sweep(wide_dataset(), DEVICES, jobs=2, run_dir=run_dir,
                          resume=True, report=rep)
        assert_bit_identical(table, wide_golden)
        assert rep.chunks_resumed == 2
        assert rep.chunks_completed == rep.chunks_total - 2

    def test_stop_fault_fires_without_journal(self):
        with pytest.raises(KeyboardInterrupt):
            run_sweep(dataset(), DEVICES, faults="stop@0")

    def test_fresh_journalled_serial_run(self, golden, tmp_path):
        rep = RunReport()
        table = run_sweep(dataset(), DEVICES, jobs=1,
                          run_dir=tmp_path / "run", report=rep)
        assert_bit_identical(table, golden)
        assert rep.engine["journalled"] is True
        assert "fused" not in rep.engine  # one scoring path: no engine knob
        assert RunJournal.load(tmp_path / "run").ended == "complete"

    def test_resume_requires_a_journal(self, tmp_path):
        with pytest.raises(ResumeError):
            run_sweep(dataset(), DEVICES, run_dir=tmp_path / "void",
                      resume=True)

    def test_resume_refuses_changed_config(self, tmp_path):
        run_dir = tmp_path / "run"
        with pytest.raises(KeyboardInterrupt):
            run_sweep(dataset(), DEVICES, jobs=2, run_dir=run_dir,
                      faults="stop@0")
        with pytest.raises(ResumeError, match="precision"):
            run_sweep(dataset(), DEVICES, jobs=2, run_dir=run_dir,
                      resume=True, precision="fp32")

    @pytest.mark.parametrize("fixture", ["parent_run", "parent_run_fused"])
    def test_resume_run_dir_journalled_before_records(self, tmp_path,
                                                      fixture):
        """Run dirs journalled under output version 2 — by the default
        instance path and by ``fused=True`` alike, both stopped after
        chunk 0 — are refused on resume: their spec digest no longer
        matches, so their shards are never merged with rows of the
        current output version."""
        run_dir = tmp_path / fixture
        shutil.copytree(FIXTURES / fixture, run_dir)
        journal = RunJournal.load(run_dir)
        assert journal.ended == "interrupted" and "fused" in journal.config
        specs = build_dataset_specs("tiny")[::30]
        fixture_ds = Dataset(specs, max_nnz=5_000, name="fixture")
        with pytest.raises(ResumeError, match="dataset_sha"):
            run_sweep(fixture_ds, [TESTBEDS["INTEL-XEON"]],
                      best_only=False, run_dir=run_dir, resume=True)
        # Refused before any work: the run dir is left as it was.
        assert _tree(run_dir) == _tree(FIXTURES / fixture)

    @pytest.mark.parametrize("fixture", ["parent_run_v3_dir",
                                         "parent_run_v3_pack"])
    def test_resume_run_dir_of_an_older_shard_layout(self, tmp_path,
                                                     fixture):
        """Run dirs journalled under output version 3 with one npz file
        per chunk, or with a version-1 ``shards.rpak``, both stopped
        after chunk 1, resume by re-executing every chunk into a fresh
        pack; the table is byte-identical to an uninterrupted sweep."""
        run_dir = tmp_path / fixture
        shutil.copytree(FIXTURES / fixture, run_dir)
        journal = RunJournal.load(run_dir)
        assert journal.ended == "interrupted"
        assert sorted(journal._chunks) == [0, 1]
        assert journal.completed_chunks() == {}
        fixture_ds = Dataset(build_dataset_specs("tiny")[::30],
                             max_nnz=5_000, name="fixture")
        devices = [TESTBEDS["INTEL-XEON"]]
        rep = RunReport()
        resumed = run_sweep(fixture_ds, devices, best_only=False,
                            run_dir=run_dir, resume=True, report=rep)
        assert rep.chunks_resumed == 0
        assert rep.chunks_completed == rep.chunks_total == 4
        resumed.to_npz(tmp_path / "resumed.npz")
        run_sweep(fixture_ds, devices, best_only=False).to_npz(
            tmp_path / "clean.npz")
        assert ((tmp_path / "resumed.npz").read_bytes()
                == (tmp_path / "clean.npz").read_bytes())
        assert sorted(RunJournal.load(run_dir).completed_chunks()) == [
            0, 1, 2, 3]
        # The version-1 pack was moved aside, not deleted.
        old_pack = run_dir / "quarantine" / "shards.rpak"
        assert old_pack.exists() == (fixture == "parent_run_v3_pack")

    def test_resume_needs_run_dir(self):
        with pytest.raises(ValueError):
            run_sweep(dataset(), DEVICES, resume=True)

    def test_sigkill_mid_run_then_resume(self, golden, tmp_path):
        """The real thing: a journalled sweep killed with SIGKILL mid-run
        resumes to a bit-identical table.  The subprocess hangs on chunk
        6 (no deadline), so the kill always lands mid-run."""
        run_dir = tmp_path / "run"
        script = (
            "import sys\n"
            "from repro.core.dataset import Dataset\n"
            "from repro.core.feature_space import build_dataset_specs\n"
            "from repro.devices import TESTBEDS\n"
            "from repro.pipeline import run_sweep\n"
            "specs = build_dataset_specs('tiny')[::13]\n"
            "ds = Dataset(specs, max_nnz=5000, name='tiny')\n"
            "run_sweep(ds, [TESTBEDS['Tesla-A100']], jobs=2,\n"
            "          run_dir=sys.argv[1], faults='hang@6')\n"
        )
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env.pop("REPRO_FAULTS", None)
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(run_dir)],
            env=env, start_new_session=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        journal = run_dir / "journal.jsonl"
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                if (journal.exists() and journal.read_text().count(
                        '"event": "chunk"') >= 2):
                    break
                assert proc.poll() is None, \
                    "sweep subprocess exited before it could be killed"
                time.sleep(0.1)
            else:
                pytest.fail("no journalled chunks appeared within 120s")
        finally:
            # Kill the whole process group: the parent AND its workers.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        rep = RunReport()
        table = run_sweep(dataset(), DEVICES, jobs=2, run_dir=run_dir,
                          resume=True, report=rep)
        assert_bit_identical(table, golden)
        assert rep.chunks_resumed >= 2


class TestDispatchModes:
    def test_pool_baseline_parity(self, golden):
        assert_bit_identical(pool_sweep(dataset(), DEVICES, jobs=2),
                             golden)


class TestBadArguments:
    """Bad resilience controls fail before any work starts."""

    @pytest.mark.parametrize("kwargs, flag", [
        ({"resume": True, "run_dir": None}, "resume"),
        ({"chunk_timeout": 0}, "chunk_timeout"),
        ({"chunk_timeout": -1.0}, "chunk_timeout"),
        ({"chunk_timeout": float("nan")}, "chunk_timeout"),
        ({"max_retries": -1}, "max_retries"),
    ])
    def test_rejected_before_work(self, tmp_path, kwargs, flag):
        cache_dir, run_dir = tmp_path / "cache", tmp_path / "run"
        kwargs = {"run_dir": run_dir, **kwargs}
        rep = RunReport()
        with pytest.raises(ValueError, match=flag):
            run_sweep(dataset(), DEVICES, jobs=2, cache_dir=str(cache_dir),
                      report=rep, **kwargs)
        assert rep.chunks_completed == 0
        assert not cache_dir.exists() and not run_dir.exists()


class TestRunReport:
    def test_report_round_trips(self, golden, tmp_path):
        rep = RunReport()
        table = run_sweep(dataset(), DEVICES, jobs=2, faults="error@1",
                          report=rep)
        assert_bit_identical(table, golden)
        data = rep.to_dict()
        assert json.loads(rep.to_json()) == data
        for phase in ("dispatch", "merge", "total"):
            assert phase in data["wall_clock"]
        assert data["engine"]["jobs"] == 2
        assert data["status"] == "complete"
        assert data["retries"]["error"] == 1
        assert data["events"][0]["chunk"] == 1
        path = tmp_path / "health.json"
        rep.write(path)
        assert json.loads(path.read_text()) == data

    def test_event_log_is_bounded(self):
        rep = RunReport()
        for i in range(500):
            rep.record_incident("error", i, 0)
        assert len(rep.events) == 200
        assert rep.events_dropped == 300
        assert rep.retries["error"] == 500  # counters stay exact


CHAOS = os.environ.get("REPRO_CHAOS") == "1"


@pytest.mark.skipif(not CHAOS,
                    reason="seeded chaos matrix: set REPRO_CHAOS=1")
class TestChaosMatrix:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_random_plan_bit_identical(self, golden, tmp_path, seed):
        warm = tmp_path / "cache"
        assert_bit_identical(
            run_sweep(dataset(), DEVICES, cache_dir=str(warm)), golden
        )
        plan = FaultPlan.random(
            seed, n_chunks=8,
            kinds=("crash", "error", "hang", "corrupt"), rate=0.4,
        )
        rep = RunReport()
        table = run_sweep(dataset(), DEVICES, jobs=2, faults=plan,
                          chunk_timeout=5.0, cache_dir=str(warm),
                          report=rep)
        assert_bit_identical(table, golden)
        assert rep.status == "complete"
        assert multiprocessing.active_children() == []
