"""Crash-safe run journal + packed per-chunk table shards for resumable
sweeps.

A journalled sweep (``run_sweep(..., run_dir=...)``) leaves a run
directory that survives any kind of death — worker crash, parent
``kill -9``, Ctrl-C — in a state a later ``repro sweep --resume
<run-dir>`` can pick up without redoing completed work::

    <run-dir>/
      journal.jsonl   append-only event log (one JSON per line)
      shards.rpak     every journalled chunk's SweepTable columns

Each chunk's table becomes a ``chunk-NNNNNN/``-prefixed group of
deflated column-blob entries in ``shards.rpak`` (:mod:`repro.io.pack`),
committed with the pack's locked two-phase append before the chunk
record is appended to the journal with flush + fsync.  So at every
instant the directory is a consistent prefix of the run: a journalled
chunk record implies its shard is fully on disk.  A torn trailing line
(the parent died mid-append) is tolerated and ignored on load, and a
retried chunk re-appends idempotently.

Run dirs journalled with one ``shards/chunk-NNNNNN.npz`` file per chunk,
or with a version-1 pack, resume by re-executing those chunks: the
``shards`` field of their begin record is ignored, and the first append
moves a pack that does not open into ``quarantine/``.

The ``begin`` record pins the sweep *configuration fingerprint* —
a digest of every spec's fields under
:data:`~repro.pipeline.cache.OUTPUT_VERSION`, device names, seed,
precision — plus the chunk bounds.  Resume refuses a mismatched
configuration (:class:`~repro.pipeline.report.ResumeError`) and always
re-executes against the journalled bounds, so the merged table is
byte-identical to an uninterrupted run regardless of the ``--jobs``
value used on either side of the interruption.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.table import SchemaVersionError, SweepTable
from ..io.pack import Pack, PackError, append_entries
from .cache import OUTPUT_VERSION, quarantine, spec_key
from .report import ResumeError

__all__ = ["RunJournal", "sweep_config", "JOURNAL_VERSION"]

JOURNAL_VERSION = 1


def sweep_config(dataset, devices, best_only, formats, seed,
                 precision) -> dict:
    """The configuration fingerprint journalled with a run.

    Everything that changes the merged table is in here (spec fields
    with ``max_nnz`` and the output version, devices, seed, precision);
    everything proven not to (jobs, cache state and layout) is not, so a
    run can be resumed with different parallelism on a different
    machine.
    """
    digest = hashlib.sha256()
    for spec in dataset.specs:
        digest.update(
            spec_key(spec, dataset.max_nnz, OUTPUT_VERSION).encode()
        )
        digest.update(b"\n")
    return {
        "n_specs": len(dataset),
        "dataset_name": dataset.name,
        "max_nnz": int(dataset.max_nnz),
        "dataset_sha": digest.hexdigest()[:32],
        "devices": [d.name for d in devices],
        "best_only": bool(best_only),
        "formats": list(formats) if formats else None,
        "seed": int(seed),
        "precision": precision,
    }


class RunJournal:
    """Append-only journal + shard pack for one sweep run."""

    def __init__(self, run_dir):
        self.run_dir = Path(run_dir)
        self.path = self.run_dir / "journal.jsonl"
        self.pack_path = self.run_dir / "shards.rpak"
        self.config: dict = {}
        self.bounds: List[Tuple[int, int]] = []
        self._chunks: Set[int] = set()
        self.ended: Optional[str] = None

    # -- lifecycle -------------------------------------------------------
    @classmethod
    def create(cls, run_dir, config: dict,
               bounds: Sequence[Tuple[int, int]]) -> "RunJournal":
        """Start a fresh journal; refuses a directory that already holds
        one (resume it or pick a new directory — never silently clobber
        hours of completed shards)."""
        journal = cls(run_dir)
        if journal.path.exists():
            raise ResumeError(
                f"{journal.path} already exists; resume it with "
                f"--resume {journal.run_dir} or choose a fresh --run-dir"
            )
        journal.run_dir.mkdir(parents=True, exist_ok=True)
        journal.config = dict(config)
        journal.bounds = [(int(lo), int(hi)) for lo, hi in bounds]
        journal._append({
            "event": "begin",
            "version": JOURNAL_VERSION,
            "config": journal.config,
            "bounds": [[lo, hi] for lo, hi in journal.bounds],
        })
        return journal

    @classmethod
    def load(cls, run_dir) -> "RunJournal":
        """Read a journal back, tolerating a torn trailing line."""
        journal = cls(run_dir)
        if not journal.path.exists():
            raise ResumeError(
                f"no journal at {journal.path}; nothing to resume"
            )
        lines = journal.path.read_bytes().splitlines()
        records = []
        for i, raw in enumerate(lines):
            try:
                records.append(json.loads(raw))
            except ValueError:
                if i == len(lines) - 1:
                    break  # torn tail: the parent died mid-append
                raise ResumeError(
                    f"{journal.path} is corrupt at line {i + 1} "
                    "(not valid JSON and not the trailing record)"
                )
        if not records or records[0].get("event") != "begin":
            raise ResumeError(
                f"{journal.path} has no begin record; the run directory "
                "was never initialised — start a fresh run"
            )
        begin = records[0]
        if begin.get("version") != JOURNAL_VERSION:
            raise ResumeError(
                f"{journal.path} was written by journal version "
                f"{begin.get('version')}; this build reads version "
                f"{JOURNAL_VERSION}"
            )
        journal.config = begin["config"]
        journal.bounds = [
            (int(lo), int(hi)) for lo, hi in begin["bounds"]
        ]
        for rec in records[1:]:
            if rec.get("event") == "chunk":
                journal._chunks.add(int(rec["chunk"]))
            elif rec.get("event") == "end":
                journal.ended = rec.get("status")
        return journal

    def check_config(self, config: dict) -> None:
        """Raise :class:`ResumeError` naming every differing key."""
        mismatched = sorted(
            key for key in set(self.config) | set(config)
            if self.config.get(key) != config.get(key)
        )
        if mismatched:
            detail = "; ".join(
                f"{key}: journal={self.config.get(key)!r} "
                f"requested={config.get(key)!r}" for key in mismatched
            )
            raise ResumeError(
                f"cannot resume {self.run_dir}: the journalled sweep "
                f"configuration differs ({detail}); rerun with the "
                "original flags or start a fresh --run-dir"
            )

    # -- record appends --------------------------------------------------
    def _append(self, record: dict) -> None:
        line = json.dumps(record, sort_keys=True) + "\n"
        with open(self.path, "a") as fh:
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())

    def record_chunk(self, chunk_id: int, lo: int, hi: int,
                     attempt: int) -> None:
        self._chunks.add(chunk_id)
        self._append({
            "event": "chunk", "chunk": int(chunk_id),
            "lo": int(lo), "hi": int(hi), "attempt": int(attempt),
        })

    def record_end(self, status: str) -> None:
        self.ended = status
        self._append({"event": "end", "status": status})

    # -- shards ----------------------------------------------------------
    @staticmethod
    def _prefix(chunk_id: int) -> str:
        return f"chunk-{chunk_id:06d}/"

    def write_shard(self, chunk_id: int, table: SweepTable) -> None:
        """Append the chunk's deflated column blobs to ``shards.rpak``.

        One locked two-phase append (blobs + segment written past EOF
        and fsynced before the header commits), so a kill mid-append
        leaves the previous pack state intact; the chunk record is
        journalled only after this returns, preserving "record implies
        complete shard".  A pack that does not open (damaged, or written
        by an older layout) is quarantined and a fresh one started.
        """
        blobs = table.to_blobs(prefix=self._prefix(chunk_id))
        append_entries(
            self.pack_path,
            [(key, "meta" if key.endswith("__meta__") else "col", blob)
             for key, blob in sorted(blobs.items())],
            compress=True,
            on_damage=lambda path: quarantine(
                path, self.run_dir / "quarantine"
            ),
        )

    def load_shard(self, chunk_id: int) -> SweepTable:
        with Pack.open(self.pack_path) as pack:
            return self._shard_from_pack(pack, chunk_id)

    def _shard_from_pack(self, pack: Pack, chunk_id: int) -> SweepTable:
        prefix = self._prefix(chunk_id)
        blobs = {
            key: pack.read(key)
            for key in pack.keys() if key.startswith(prefix)
        }
        return SweepTable.from_blobs(blobs, prefix=prefix)

    def completed_chunks(self) -> Dict[int, SweepTable]:
        """Journalled chunks whose shards load cleanly.

        A journal record normally implies a complete shard (records are
        appended only after the shard's append commits), but resume
        stays defensive: a chunk whose entries are missing or fail their
        checksums just re-executes.  Re-doing work is always safe,
        trusting a damaged shard never is.  A pack that does not open
        means every chunk re-executes (the journal itself is still
        intact).
        """
        loaded: Dict[int, SweepTable] = {}
        try:
            pack = Pack.open(self.pack_path)
        except PackError:
            return loaded
        with pack:
            for chunk_id in sorted(self._chunks):
                try:
                    loaded[chunk_id] = self._shard_from_pack(
                        pack, chunk_id
                    )
                except (PackError, SchemaVersionError, OSError,
                        ValueError, KeyError):
                    continue
        return loaded
