"""RunJournal: crash-safe JSONL log, packed shards, config fingerprint."""

import json

import pytest

from repro.core.dataset import Dataset
from repro.core.feature_space import build_dataset_specs
from repro.devices import TESTBEDS
from repro.io.pack import Pack
from repro.pipeline import (ResumeError, RunJournal, corrupt_file, run_sweep,
                            sweep_config)
from repro.pipeline import journal as journal_mod
from repro.pipeline.journal import JOURNAL_VERSION

DEVICES = [TESTBEDS["Tesla-A100"]]
MAX_NNZ = 5_000
SPECS = build_dataset_specs("tiny")[::45]  # 4 specs: journal unit scale

BOUNDS = [(0, 2), (2, 4)]


def dataset(specs=None):
    return Dataset(SPECS if specs is None else specs,
                   max_nnz=MAX_NNZ, name="tiny")


def config(**overrides):
    kwargs = dict(dataset=dataset(), devices=DEVICES, best_only=True,
                  formats=None, seed=0, precision="fp64")
    kwargs.update(overrides)
    return sweep_config(**kwargs)


@pytest.fixture(scope="module")
def chunk_table():
    return run_sweep(dataset(SPECS[:2]), DEVICES)


class TestConfigFingerprint:
    def test_stable_across_equal_runs(self):
        assert config() == config()

    def test_sensitive_to_table_changing_knobs(self):
        base = config()
        assert config(seed=3)["seed"] != base["seed"]
        assert config(precision="fp32")["precision"] != base["precision"]
        assert (config(dataset=dataset(SPECS[:2]))["dataset_sha"]
                != base["dataset_sha"])

    def test_parallelism_knobs_are_not_fingerprinted(self):
        # jobs / cache are proven not to change the table, so a run may
        # be resumed with different parallelism elsewhere.
        assert {"jobs", "cache_dir", "dispatch"} & set(config()) == set()


    @pytest.mark.parametrize("key,value", [("batch", True),
                                           ("fused", False),
                                           ("fused", True)])
    def test_retired_engine_keys_are_refused(self, tmp_path, key, value):
        # Only journals digested under output version 2 carry the
        # retired ``batch``/``fused`` knobs; no key is exempt from the
        # check, so the refusal names them too.
        assert key not in config()
        RunJournal.create(tmp_path / "run", dict(config(), **{key: value}),
                          BOUNDS)
        with pytest.raises(ResumeError, match=f"{key}: journal={value}"):
            RunJournal.load(tmp_path / "run").check_config(config())

    def test_digest_follows_output_version_not_cache_layout(
            self, tmp_path, monkeypatch):
        import hashlib

        from repro.pipeline.cache import spec_key

        # The digest hashes spec fields and max_nnz under the output
        # version, not the cache keys (which fold in the cache layout
        # version), so a cache-layout bump leaves run dirs resumable...
        sha = config()["dataset_sha"]
        cache_keys = b"".join(
            spec_key(spec, MAX_NNZ).encode() + b"\n" for spec in SPECS
        )
        assert sha != hashlib.sha256(cache_keys).hexdigest()[:32]
        RunJournal.create(tmp_path / "run", config(), BOUNDS)
        # ...while an output-changing bump refuses them.
        monkeypatch.setattr(journal_mod, "OUTPUT_VERSION",
                            journal_mod.OUTPUT_VERSION + 1)
        assert config()["dataset_sha"] != sha
        with pytest.raises(ResumeError, match="dataset_sha"):
            RunJournal.load(tmp_path / "run").check_config(config())


class TestJournalLifecycle:
    def test_create_then_load_round_trip(self, tmp_path):
        RunJournal.create(tmp_path / "run", config(), BOUNDS)
        loaded = RunJournal.load(tmp_path / "run")
        assert loaded.config == config()
        assert loaded.bounds == BOUNDS
        assert loaded.completed_chunks() == {}
        assert loaded.ended is None

    def test_create_refuses_existing_journal(self, tmp_path):
        RunJournal.create(tmp_path / "run", config(), BOUNDS)
        with pytest.raises(ResumeError, match="already exists"):
            RunJournal.create(tmp_path / "run", config(), BOUNDS)

    def test_load_missing_journal(self, tmp_path):
        with pytest.raises(ResumeError, match="nothing to resume"):
            RunJournal.load(tmp_path / "void")

    def test_records_and_shards_reload(self, tmp_path, chunk_table):
        journal = RunJournal.create(tmp_path / "run", config(), BOUNDS)
        journal.write_shard(0, chunk_table)
        journal.record_chunk(0, 0, 2, attempt=1)
        journal.record_end("complete")
        loaded = RunJournal.load(tmp_path / "run")
        assert loaded.ended == "complete"
        completed = loaded.completed_chunks()
        assert list(completed) == [0]
        assert completed[0].rows == chunk_table.rows

    def test_torn_trailing_line_tolerated(self, tmp_path, chunk_table):
        journal = RunJournal.create(tmp_path / "run", config(), BOUNDS)
        journal.write_shard(0, chunk_table)
        journal.record_chunk(0, 0, 2, attempt=0)
        # The parent died mid-append: a partial JSON record at the tail.
        with open(journal.path, "a") as fh:
            fh.write('{"event": "chunk", "chu')
        loaded = RunJournal.load(tmp_path / "run")
        assert list(loaded.completed_chunks()) == [0]
        assert loaded.ended is None

    def test_corrupt_middle_line_refused(self, tmp_path):
        journal = RunJournal.create(tmp_path / "run", config(), BOUNDS)
        with open(journal.path, "a") as fh:
            fh.write("not json at all\n")
        journal.record_end("complete")
        with pytest.raises(ResumeError, match="corrupt"):
            RunJournal.load(tmp_path / "run")

    def test_missing_begin_record_refused(self, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "journal.jsonl").write_text(
            json.dumps({"event": "chunk", "chunk": 0, "shard": "x"}) + "\n"
        )
        with pytest.raises(ResumeError, match="begin"):
            RunJournal.load(run_dir)

    def test_version_mismatch_refused(self, tmp_path):
        journal = RunJournal.create(tmp_path / "run", config(), BOUNDS)
        lines = journal.path.read_text().splitlines()
        begin = json.loads(lines[0])
        assert begin["version"] == JOURNAL_VERSION
        begin["version"] = JOURNAL_VERSION + 1
        lines[0] = json.dumps(begin)
        journal.path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ResumeError, match="version"):
            RunJournal.load(tmp_path / "run")

    def test_check_config_names_the_differing_keys(self, tmp_path):
        journal = RunJournal.create(tmp_path / "run", config(), BOUNDS)
        journal.check_config(config())  # identical: no complaint
        with pytest.raises(ResumeError, match="seed"):
            journal.check_config(config(seed=9))
        with pytest.raises(ResumeError, match="precision"):
            journal.check_config(config(precision="fp32"))


class TestShards:
    def test_write_is_atomic_no_temp_files_left(self, tmp_path,
                                                chunk_table):
        journal = RunJournal.create(tmp_path / "run", config(), BOUNDS)
        journal.write_shard(0, chunk_table)
        names = sorted(p.name for p in journal.run_dir.iterdir())
        assert names == ["journal.jsonl", "shards.rpak"]

    def test_rewrite_last_record_wins(self, tmp_path, chunk_table):
        journal = RunJournal.create(tmp_path / "run", config(), BOUNDS)
        for attempt in (0, 1):
            journal.write_shard(1, chunk_table)
            journal.record_chunk(1, 2, 4, attempt=attempt)
        loaded = RunJournal.load(tmp_path / "run")
        assert list(loaded.completed_chunks()) == [1]

    def test_unreadable_shard_means_rerun_not_crash(self, tmp_path,
                                                    chunk_table):
        journal = RunJournal.create(tmp_path / "run", config(), BOUNDS)
        journal.write_shard(0, chunk_table)
        journal.record_chunk(0, 0, 2, attempt=0)
        journal.write_shard(1, chunk_table)
        journal.record_chunk(1, 2, 4, attempt=0)
        with Pack.open(journal.pack_path) as pack:
            entry = pack.entry(next(
                key for key in pack.keys() if key.startswith("chunk-000001/")
            ))
        corrupt_file(journal.pack_path, mode="flip",
                     region=(entry.offset, entry.csize))
        loaded = RunJournal.load(tmp_path / "run")
        # Chunk 1 silently drops out of the completed set: it will be
        # re-executed on resume, which is always safe.
        assert list(loaded.completed_chunks()) == [0]
