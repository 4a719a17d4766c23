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
* :class:`InstanceCache` — a layered store.  The first level is an
  in-process dictionary.  The second level is the directory of
  ``<key>.json`` records, each a few KB: the representative's rows and
  nonzeros, the declared-scale features, per-format stat columns or the
  refusal message, and the SIMD/imbalance memos — never matrices or
  profiles.  Each record carries a CRC-32 of its body and its own key.
  Files are written atomically (temp file + ``os.replace``) so concurrent
  sweep workers can share one cache directory without locking.  The third
  level is an optional single-file *pack* (``cache.rpak``, see
  :mod:`repro.io.pack`): when the directory holds one, records missing
  from the directory are served straight out of the pack — one mapped
  file, dict lookups, no per-key probing — which is how a corpus packed
  with ``repro pack`` ships as a single object.  Loose records always win
  over the pack (they are never older: the pack is a snapshot, later
  stores write loose records), and stores keep writing loose records, so
  the pack needs no write locking.

Corrupt records — loose files, pack entries, or the pack file itself —
are *quarantined*, never deleted: the evidence moves (or is copied) into
``quarantine/`` under an atomically reserved name, the incident is
counted, and the spec is simply rescored from scratch.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
import zlib
from pathlib import Path
from typing import Dict, Optional, Set, Tuple, Union

import numpy as np

from ..core.generator import MatrixSpec
from ..io.pack import Pack, PackError, PackWriter
from ..perfmodel.fused import ScoringRecord

__all__ = [
    "spec_key", "InstanceCache", "CACHE_VERSION", "OUTPUT_VERSION",
    "PACK_NAME", "pack_cache_dir", "unpack_cache",
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

# The single-file pack a cache directory may carry (``repro pack``).
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


def _atomic_write_bytes(path: Path, data: bytes) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class InstanceCache:
    """Layered (memory + directory + pack) cache of scoring records."""

    def __init__(self, root, keep_in_memory: bool = True):
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise NotADirectoryError(
                f"cache path {self.root} exists and is not a directory"
            )
        self.root.mkdir(parents=True, exist_ok=True)
        self.keep_in_memory = keep_in_memory
        self._mem: Dict[str, ScoringRecord] = {}
        # Record census (lazy; maintained by store/quarantine).
        self._census: Optional[Set[str]] = None
        self.hits_memory = 0
        self.hits_disk = 0
        self.hits_pack = 0
        self.misses = 0
        # Corrupt records detected by this handle (moved, not deleted);
        # the sweep RunReport aggregates these counts across workers.
        self.quarantined = 0
        # Pack entries this handle found corrupt (never re-read).
        self._pack_bad: Set[str] = set()
        self._pack: Optional[Pack] = None
        if self.pack_path.exists():
            self._open_pack()

    # -- paths -----------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    @property
    def pack_path(self) -> Path:
        return self.root / PACK_NAME

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def _open_pack(self) -> None:
        """Open ``cache.rpak``; a pack that fails validation (bad magic,
        truncation, checksum, version drift) is quarantined — moved, not
        deleted — and the cache continues on the directory layout."""
        try:
            self._pack = Pack.open(self.pack_path)
        except PackError:
            self._pack = None
            self._quarantine(self.pack_path)

    def _in_pack(self, key: str) -> bool:
        return (self._pack is not None and key not in self._pack_bad
                and f"{key}.json" in self._pack)

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
        record = self._load_disk(key)
        if record is not None:
            self.hits_disk += 1
        else:
            record = self._load_pack(key)
            if record is None:
                self.misses += 1
                return None
            self.hits_pack += 1
        if self.keep_in_memory:
            self._mem[key] = record
        return record

    def _load_disk(self, key: str) -> Optional[ScoringRecord]:
        path = self._path(key)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError:
            data = b""
        try:
            return decode_record(key, data)
        except _DAMAGE:
            # Truncated, bit-flipped or malformed: treat as a miss and
            # quarantine it so the evidence survives for inspection and
            # the next store() rewrites the record cleanly.
            self._quarantine(path)
            return None

    def _load_pack(self, key: str) -> Optional[ScoringRecord]:
        """Record served out of the single-file pack (one dict lookup,
        zero directory probing).

        A pack entry that fails its checksum or does not parse is
        quarantined as evidence — its stored bytes are *copied* out into
        ``quarantine/`` (the pack itself is shared and read-only) — and
        the key is remembered as bad so it is never re-read.
        """
        if not self._in_pack(key):
            return None
        entry_key = f"{key}.json"
        try:
            return decode_record(key, self._pack.read(entry_key))
        except (PackError, OSError) + _DAMAGE:
            self._pack_bad.add(key)
            self._quarantine_bytes(entry_key,
                                   bytes(self._pack.raw(entry_key)))
            return None

    # -- quarantine ------------------------------------------------------
    def _reserve_quarantine_name(self, name: str) -> Optional[Path]:
        """Atomically reserve ``quarantine/<name>[.N]``.

        ``O_CREAT | O_EXCL`` makes the reservation itself the race
        arbiter: two workers quarantining same-named evidence at the
        same instant get *different* suffixes, where the old
        ``while target.exists()`` probe let both pick the same ``.N``
        and silently clobber one worker's evidence.
        """
        suffix = 0
        while True:
            target = self.quarantine_dir / (
                name if suffix == 0 else f"{name}.{suffix}"
            )
            try:
                fd = os.open(
                    target, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
            except FileExistsError:
                suffix += 1
                continue
            except OSError:
                return None
            os.close(fd)
            return target

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt file into ``quarantine/`` and count the
        incident.

        The name is reserved exclusively first, then ``os.replace``
        (atomic on the same filesystem) moves the evidence over the
        reservation.  Concurrent workers race benignly: whoever moves a
        source first wins, the loser's missing-source ``OSError`` is
        tolerated.  A vanished quarantine directory or a cross-device
        link error must not take the sweep down either — detection is
        counted even if the move itself fails.
        """
        self.quarantined += 1
        try:
            self.quarantine_dir.mkdir(exist_ok=True)
        except OSError:
            return
        if not path.exists():
            return
        target = self._reserve_quarantine_name(path.name)
        if target is None:
            return
        try:
            os.replace(path, target)
        except OSError:
            try:
                os.unlink(target)  # release the unused reservation
            except OSError:
                pass
        else:
            self._forget_census(path.name)

    def _quarantine_bytes(self, name: str, payload: bytes) -> None:
        """Copy a corrupt pack entry's bytes into ``quarantine/`` — one
        counted incident (the pack is shared and read-only, so evidence
        is copied, not moved)."""
        self.quarantined += 1
        self._forget_census(name)
        try:
            self.quarantine_dir.mkdir(exist_ok=True)
        except OSError:
            return
        target = self._reserve_quarantine_name(name)
        if target is None:
            return
        try:
            target.write_bytes(payload)
        except OSError:
            pass

    def _forget_census(self, file_name: str) -> None:
        if self._census is not None and file_name.endswith(".json"):
            self._census.discard(file_name[:-5])

    # -- store -----------------------------------------------------------
    def store(
        self, spec: MatrixSpec, max_nnz: int, record: ScoringRecord
    ) -> bool:
        """Persist ``record`` as a loose file when it grew since it was
        loaded or last stored, or when no layer holds the key yet.
        Returns ``True`` when a write happened.

        Records already served by the pack are not duplicated into the
        directory unless they grew (the pack is read-only; loose records
        shadow it on fetch).
        """
        key = spec_key(spec, max_nnz)
        if self.keep_in_memory:
            self._mem[key] = record
        path = self._path(key)
        if not record.grown and (path.exists() or self._in_pack(key)):
            return False
        _atomic_write_bytes(path, encode_record(key, record))
        record.grown = False
        if self._census is not None:
            self._census.add(key)
        return True

    # -- maintenance -----------------------------------------------------
    def drop_memory(self) -> None:
        """Release the in-process layer (disk entries stay)."""
        self._mem.clear()

    def _complete_keys(self) -> Set[str]:
        """Content keys with a record (directory or pack)."""
        keys = _record_keys(self.root)
        if self._pack is not None:
            keys |= _record_stems(self._pack.keys()) - self._pack_bad
        return keys

    def __len__(self) -> int:
        """Records visible to this handle (directory or pack).

        Counts only ``<key>.json`` records (see :func:`_record_stems`):
        temp files of an interrupted write and leftovers of the older
        npz + json pair layout are not entries.  The census is one
        directory scan, taken lazily and then maintained by
        ``store``/quarantine, so repeated calls cost O(1) instead of
        re-listing the directory.
        """
        if self._census is None:
            self._census = self._complete_keys()
        return len(self._census)


# -- pack conversion ---------------------------------------------------------
def pack_cache_dir(
    root, out=None, prune: bool = False
) -> Tuple[int, Path]:
    """Fold a cache directory's records into a single-file pack
    (default ``<root>/cache.rpak``); returns ``(entries, path)``.

    File bytes are stored verbatim (deflated), so :func:`unpack_cache`
    reproduces the original files byte-identically.  With ``prune``, the
    loose records are removed *after* the sealed pack has been re-opened
    and every entry's checksum re-verified against it — the pack then
    serves the whole corpus by itself.
    """
    root = Path(root)
    if not root.is_dir():
        raise ValueError(
            f"{root} is not a cache directory; point `repro pack` at a "
            "--cache-dir previously filled by `repro sweep`"
        )
    out = Path(out) if out is not None else root / PACK_NAME
    keys = sorted(_record_keys(root))
    with PackWriter.create(out) as writer:
        for key in keys:
            writer.add(f"{key}.json", "json",
                       (root / f"{key}.json").read_bytes(), compress=True)
    if prune:
        with Pack.open(out) as pack:
            for key in keys:
                pack.read(f"{key}.json")   # checksum re-verified
        for key in keys:
            try:
                (root / f"{key}.json").unlink()
            except OSError:
                pass
    return len(keys), out


def _record_keys(root: Path) -> Set[str]:
    with os.scandir(root) as it:
        return _record_stems(entry.name for entry in it)


def _record_stems(names) -> Set[str]:
    """Keys of the records among file (or pack entry) ``names``.

    Temp files of an interrupted write start with ``.``; a
    ``<key>.json`` beside a ``<key>.npz`` is half of an entry of the
    older npz + json pair layout.  Neither is a record: such files are
    not counted, packed or pruned.
    """
    names = set(names)
    return {
        name[:-5] for name in names
        if name.endswith(".json") and not name.startswith(".")
        and f"{name[:-5]}.npz" not in names
    }


def unpack_cache(pack_path, out_dir) -> int:
    """Write every record of a pack back out as loose files
    (byte-identical to what :func:`pack_cache_dir` read); returns the
    number of files written.  A pack of the older npz + json pair
    layout unpacks whole, so its halves stay recognisable as pairs."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = 0
    with Pack.open(pack_path) as pack:
        for key in pack.keys():
            if pack.entry(key).kind not in ("npz", "json"):
                continue
            _atomic_write_bytes(
                out_dir / key, bytes(pack.read(key))
            )
            written += 1
    return written
