"""Persistent + in-memory caching of per-spec scoring records.

Dataset-scale sweeps spend nearly all of their time deriving what the
grid scorer reads about each spec: the representative's structure and
features, per-format statistics, and the SIMD-utilisation and imbalance
factors of its declared-scale row profile.  All of that is a pure
function of the :class:`~repro.core.generator.MatrixSpec` (plus the
``max_nnz`` representative cap), so it is content-addressed here as one
:class:`~repro.perfmodel.fused.ScoringRecord` per spec:

* :func:`spec_key` — a stable hash of the spec's fields.  Everything that
  influences the generated structure is part of the key; dataset names and
  spec indices are not (they only label rows).
* :class:`InstanceCache` — two layers.  The first is an in-process
  dictionary.  The second is the cache directory's single pack,
  ``cache.rpak`` (:mod:`repro.io.pack`), with one deflated
  ``<key>.json`` entry per spec, each a few KB: the representative's
  rows and nonzeros, the declared-scale features, per-format stat
  columns or the refusal message, and the SIMD/imbalance memos — never
  matrices or profiles.  Each record carries a CRC-32 of its body and
  its own key.  A handle opens the pack once, and each ``store`` is one
  locked append, so concurrent sweep workers share one cache directory.
  A handle does not re-open the pack on a miss: a record that another
  process appended after the open is rescored, which never changes
  rows.

Damage is *quarantined*, never deleted: a pack that fails validation is
moved into ``quarantine/`` under an atomically reserved name, a single
record that fails its checksum or does not parse has its stored bytes
copied there, the incident is counted, and the spec is simply rescored.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import zlib
from pathlib import Path
from typing import Dict, Optional, Sequence, Set, Union

import numpy as np

from ..core.generator import MatrixSpec
from ..io.pack import Pack, PackError, append_entries
from ..perfmodel.fused import ScoringRecord

__all__ = [
    "spec_key", "InstanceCache", "CACHE_VERSION", "OUTPUT_VERSION",
    "PACK_NAME", "quarantine",
]

# Version of what a sweep outputs for a given spec.  Bump it when a
# generator or model change alters sweep rows: cache keys fold it in,
# so stale records are never looked up again, and the run journal
# digests specs under it, so run dirs begun before the change are
# refused on resume.  It started at 2, the cache version the journal
# digested before.  3: representatives stay inside their declared
# matrix (``MatrixSpec.representative``).
OUTPUT_VERSION = 3

# Version of the stored record layout; bump it when records change
# shape.  3: one JSON scoring record per key replaces the npz + json
# pair.
RECORD_LAYOUT = 3

# What cache keys fold in: a bump of either makes old records misses.
CACHE_VERSION = f"{OUTPUT_VERSION}.{RECORD_LAYOUT}"

# The single-file pack that holds a cache directory's records.
PACK_NAME = "cache.rpak"


def spec_key(spec: MatrixSpec, max_nnz: int,
             version: Union[int, str] = CACHE_VERSION) -> str:
    """Stable content key for ``(spec, max_nnz)`` under ``version``.

    Hashes every spec field plus the representative cap and the version
    (the cache version by default); two equal specs always map to the
    same key across processes and sessions (plain SHA-256 of the
    canonical JSON encoding).
    """
    payload = {f.name: getattr(spec, f.name)
               for f in dataclasses.fields(spec)}
    payload["__max_nnz__"] = int(max_nnz)
    payload["__version__"] = version
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def _to_py(obj):
    """JSON fallback for NumPy scalars."""
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON-serialisable: {type(obj)!r}")


def _record_head(crc: int, key: str) -> bytes:
    return f'{{"crc":{crc},"key":"{key}","record":'.encode()


def encode_record(key: str, record: ScoringRecord) -> bytes:
    """``{"crc": <CRC-32 of body>, "key": <key>, "record": <body>}``."""
    body = json.dumps(record.to_dict(), sort_keys=True,
                      separators=(",", ":"), default=_to_py).encode()
    return _record_head(zlib.crc32(body), key) + body + b"}"


def decode_record(key: str, data) -> ScoringRecord:
    """Parse and verify one record; raises ``ValueError``/``KeyError``/
    ``TypeError`` on any damage (bad JSON, wrong key, CRC mismatch,
    malformed fields)."""
    data = bytes(data)
    doc = json.loads(data)
    head = _record_head(doc["crc"], key)
    if (not data.startswith(head)
            or zlib.crc32(data[len(head):-1]) != doc["crc"]):
        raise ValueError(f"record {key} fails its checksum")
    return ScoringRecord.from_dict(doc["record"])


_DAMAGE = (ValueError, KeyError, TypeError)


def _reserve(qdir: Path, name: str) -> Optional[Path]:
    """Atomically reserve ``qdir/<name>[.N]``.

    ``O_CREAT | O_EXCL`` makes the reservation itself the race arbiter:
    two processes quarantining same-named evidence at the same instant
    get *different* suffixes, where a ``while target.exists()`` probe
    would let both pick the same ``.N`` and silently clobber one
    process's evidence.  ``None`` when the directory is unusable.
    """
    try:
        qdir.mkdir(exist_ok=True)
    except OSError:
        return None
    suffix = 0
    while True:
        target = qdir / (name if suffix == 0 else f"{name}.{suffix}")
        try:
            fd = os.open(target, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            suffix += 1
            continue
        except OSError:
            return None
        os.close(fd)
        return target


def quarantine(path: Path, qdir: Path) -> None:
    """Move a damaged file into ``qdir`` under a reserved name.

    ``os.replace`` (atomic on the same filesystem) moves the evidence
    over the reservation.  Concurrent processes race benignly: whoever
    moves a source first wins, the loser's missing-source ``OSError`` is
    tolerated.  A vanished quarantine directory or a cross-device link
    error must not take a sweep down either.
    """
    if not path.exists():
        return
    target = _reserve(qdir, path.name)
    if target is None:
        return
    try:
        os.replace(path, target)
    except OSError:
        try:
            os.unlink(target)  # release the unused reservation
        except OSError:
            pass


class InstanceCache:
    """Two-layer (memory, then ``cache.rpak``) cache of scoring
    records."""

    def __init__(self, root):
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise NotADirectoryError(
                f"cache path {self.root} exists and is not a directory"
            )
        self.root.mkdir(parents=True, exist_ok=True)
        self._mem: Dict[str, ScoringRecord] = {}
        self.hits_memory = 0
        self.hits_pack = 0
        self.misses = 0
        # Damage detected by this handle (moved or copied, never
        # deleted); the sweep RunReport aggregates these counts across
        # workers.
        self.quarantined = 0
        # Pack entries this handle found corrupt (never re-read).
        self._pack_bad: Set[str] = set()
        self._pack: Optional[Pack] = None
        if self.pack_path.exists():
            try:
                self._pack = Pack.open(self.pack_path)
            except PackError:
                # Bad magic, truncation, checksum or version drift: the
                # pack moves aside and the next store starts a new one.
                self._quarantine(self.pack_path)

    # -- paths -----------------------------------------------------------
    @property
    def pack_path(self) -> Path:
        return self.root / PACK_NAME

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    # -- fetch -----------------------------------------------------------
    def fetch(
        self, spec: MatrixSpec, max_nnz: int
    ) -> Optional[ScoringRecord]:
        """Cached scoring record for ``spec``, or ``None`` on a miss."""
        key = spec_key(spec, max_nnz)
        record = self._mem.get(key)
        if record is not None:
            self.hits_memory += 1
            return record
        record = self._load_pack(key)
        if record is None:
            self.misses += 1
            return None
        self.hits_pack += 1
        self._mem[key] = record
        return record

    def _load_pack(self, key: str) -> Optional[ScoringRecord]:
        """Record served out of the pack (one dict lookup).

        An entry that fails its checksum or does not parse is
        quarantined as evidence — its stored bytes are *copied* out
        into ``quarantine/`` (the pack itself is shared) — and the key
        is remembered as bad so it is never re-read.
        """
        name = f"{key}.json"
        if (self._pack is None or key in self._pack_bad
                or name not in self._pack):
            return None
        try:
            return decode_record(key, self._pack.read(name))
        except (PackError, OSError) + _DAMAGE:
            self._pack_bad.add(key)
            try:
                evidence = bytes(self._pack.raw(name))
            except (PackError, OSError):
                evidence = None  # truncated away: nothing left to copy
            self._quarantine_bytes(name, evidence)
            return None

    # -- quarantine ------------------------------------------------------
    def _quarantine(self, path: Path) -> None:
        """Move a damaged pack into ``quarantine/`` and count the
        incident (counted even if the move itself fails)."""
        self.quarantined += 1
        quarantine(path, self.quarantine_dir)

    def _quarantine_bytes(self, name: str,
                          payload: Optional[bytes]) -> None:
        """Copy a corrupt pack entry's bytes into ``quarantine/`` — one
        counted incident (``None``: no bytes are left to copy)."""
        self.quarantined += 1
        if payload is None:
            return
        target = _reserve(self.quarantine_dir, name)
        if target is None:
            return
        try:
            target.write_bytes(payload)
        except OSError:
            pass

    # -- store -----------------------------------------------------------
    def store(
        self, specs: Sequence[MatrixSpec], max_nnz: int,
        records: Sequence[ScoringRecord],
    ) -> int:
        """Append the records that grew since they were loaded or last
        stored to the pack, as one deflated append, and keep them in
        memory.  Returns the number of records written.  Only those are
        keyed: every other record came from this handle's ``fetch`` or
        an earlier ``store``, so it is in memory already.

        A pack that no longer opens is quarantined and a fresh one
        started, so a damaged store never fails the chunk.
        """
        grown = []
        for spec, record in zip(specs, records):
            if record.grown:
                key = spec_key(spec, max_nnz)
                self._mem[key] = record
                grown.append((key, record))
        if grown:
            append_entries(
                self.pack_path,
                [(f"{key}.json", "json", encode_record(key, record))
                 for key, record in grown],
                compress=True, on_damage=self._quarantine,
            )
            for _, record in grown:
                record.grown = False
        return len(grown)

    def __len__(self) -> int:
        """Records this handle can serve: the ones in memory and the
        pack's live entries it has not found damaged."""
        keys = set(self._mem)
        if self._pack is not None:
            keys.update(
                {name[:-len(".json")] for name in self._pack.keys()}
                - self._pack_bad
            )
        return len(keys)
