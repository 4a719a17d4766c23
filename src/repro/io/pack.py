"""Single-file binary pack store for sweep artifacts.

The content-keyed :class:`~repro.pipeline.cache.InstanceCache` and the
run journal's per-chunk shards historically persisted every artifact as
its own small file, so a warm corpus cost thousands of ``stat``/``open``
calls and could not be shipped as one object.  A *pack* folds those
artifacts into one versioned binary file::

    offset 0   header (64 bytes)
               magic   8s   b"RPACK1\\n\\0"
               version u32  PACK_VERSION (schema of this layout)
               reserved u32 0
               index_offset u64  where the live entry table starts
               index_count  u64  number of entry records
               index_sha    32s  SHA-256 of the entry-table bytes
    64         blob region: entry payloads, appended only
    ...        entry table: ``index_count`` fixed-size records
               (content key, kind, offset, compressed size, original
               size, SHA-256, flags)

The entry table is a contiguous array of 136-byte records parsed in one
:func:`numpy.frombuffer` call, so opening a pack is one read regardless
of entry count, and lookups are a dict hit — no directory scans.  Blob
reads come out of an ``mmap`` as zero-copy memoryviews (compressed
entries are inflated on read); every read verifies the entry's SHA-256
before handing bytes out.

Atomicity contract (docs/pack_store.md has the full derivation):

* **Sealed writes** (:meth:`PackWriter.create` … :meth:`PackWriter.close`)
  build the whole pack in a temp file next to the target and commit it
  with one ``os.replace`` — readers see the old pack or the new one,
  never a torn file.
* **Appends** (:func:`append_entries`) never rewrite existing blobs or
  the live entry table: new blobs and a *new* entry table (old records
  + new) are written after the current end of file and fsynced, and
  only then does a single 64-byte header write at offset 0 switch the
  pack to the new table.  A crash before the switch leaves the old pack
  intact with an ignored tail; the superseded table becomes a small
  dead region reclaimed by the next :func:`compact`.  Appends assume
  one writer at a time (the sweep engine appends shards from the parent
  process only).

Corruption never panics and never destroys evidence: a bad magic,
truncated file, entry-table checksum mismatch or schema-version drift
raises an actionable :class:`PackError` / :class:`PackVersionError`,
and the cache layer quarantines the damaged pack instead of deleting
it (see ``repro.pipeline.cache``).
"""

from __future__ import annotations

import hashlib
import io
import mmap
import os
import struct
import tempfile
import zlib
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple, Union

import numpy as np

__all__ = [
    "Pack",
    "PackWriter",
    "PackEntry",
    "PackError",
    "PackVersionError",
    "append_entries",
    "compact",
    "PACK_VERSION",
    "PACK_MAGIC",
]

PACK_MAGIC = b"RPACK1\n\x00"
# Bump on any change to the header or entry-record layout an older
# reader would misinterpret (policy in docs/pack_store.md).
PACK_VERSION = 1

_HEADER = struct.Struct("<8sIIQQ32s")
HEADER_SIZE = _HEADER.size  # 64 bytes

# One entry-table record; parsed in bulk with np.frombuffer.
_ENTRY_DTYPE = np.dtype([
    ("key", "S64"),
    ("kind", "S8"),
    ("offset", "<u8"),
    ("csize", "<u8"),
    ("osize", "<u8"),
    ("sha", "S32"),
    ("flags", "<u4"),
    ("pad", "S4"),
])
ENTRY_SIZE = _ENTRY_DTYPE.itemsize  # 136 bytes

_FLAG_ZLIB = 1


class PackError(ValueError):
    """A pack file is unreadable (bad magic, truncation, checksum)."""


class PackVersionError(PackError):
    """A pack was written under an incompatible layout version."""


class PackEntry(NamedTuple):
    """One entry-table record (sizes refer to the stored blob)."""

    key: str
    kind: str
    offset: int
    csize: int
    osize: int
    sha: bytes
    flags: int

    @property
    def compressed(self) -> bool:
        return bool(self.flags & _FLAG_ZLIB)


def _check_key(key: str) -> bytes:
    raw = key.encode("ascii", errors="strict")
    if not raw or len(raw) > 63 or b"\x00" in raw:
        raise PackError(
            f"pack entry key {key!r} must be 1..63 ASCII bytes "
            "without NUL"
        )
    return raw


def _check_kind(kind: str) -> bytes:
    raw = kind.encode("ascii", errors="strict")
    if not raw or len(raw) > 7:
        raise PackError(
            f"pack entry kind {kind!r} must be 1..7 ASCII bytes"
        )
    return raw


def _pack_header(index_offset: int, count: int, table: bytes) -> bytes:
    return _HEADER.pack(
        PACK_MAGIC, PACK_VERSION, 0, index_offset, count,
        hashlib.sha256(table).digest(),
    )


def _encode_entries(entries: Iterable[PackEntry]) -> bytes:
    entries = list(entries)
    table = np.zeros(len(entries), dtype=_ENTRY_DTYPE)
    for i, e in enumerate(entries):
        table[i] = (
            _check_key(e.key), _check_kind(e.kind), e.offset,
            e.csize, e.osize, e.sha, e.flags, b"",
        )
    return table.tobytes()


def _decode_keys(table: np.ndarray) -> List[str]:
    return [k.decode("ascii") for k in table["key"].tolist()]


def _entry_from_record(key: str, rec) -> PackEntry:
    return PackEntry(
        key,
        rec["kind"].decode("ascii"),
        int(rec["offset"]), int(rec["csize"]), int(rec["osize"]),
        # NumPy strips trailing NULs from S-typed fields on read;
        # a digest legitimately ending in 0x00 must be re-padded to
        # its full 32 bytes or ~1/256 of entries would "fail" their
        # checksum.
        bytes(rec["sha"]).ljust(32, b"\x00"),
        int(rec["flags"]),
    )


def _materialize_entries(table: np.ndarray) -> List[PackEntry]:
    keys = _decode_keys(table)
    return [_entry_from_record(k, table[i]) for i, k in enumerate(keys)]


def _read_index(fh, size: int, path: Path) -> Tuple[int, np.ndarray]:
    """Validate the header and read the live entry table.

    Returns ``(index_offset, table)`` with the table as the raw
    structured record array — callers materialize :class:`PackEntry`
    objects lazily so opening a large pack stays cheap.  Every failure
    mode is its own actionable message: wrong magic, version drift,
    truncation, table checksum mismatch.
    """
    if size < HEADER_SIZE:
        raise PackError(
            f"{path}: file is {size} bytes, shorter than the "
            f"{HEADER_SIZE}-byte pack header — truncated or not a pack"
        )
    fh.seek(0)
    header = fh.read(HEADER_SIZE)
    magic, version, _reserved, index_offset, count, sha = (
        _HEADER.unpack(header)
    )
    if magic != PACK_MAGIC:
        raise PackError(
            f"{path}: bad magic {magic!r} — not a repro pack "
            "(expected one written by `repro pack` or PackWriter)"
        )
    if version != PACK_VERSION:
        raise PackVersionError(
            f"{path}: pack layout version {version}, but this build "
            f"reads version {PACK_VERSION}; regenerate the pack with "
            "`repro pack` from this build"
        )
    table_size = count * ENTRY_SIZE
    if index_offset < HEADER_SIZE or index_offset + table_size > size:
        raise PackError(
            f"{path}: entry table ({count} entries at offset "
            f"{index_offset}) extends past the {size}-byte file — "
            "the pack is truncated"
        )
    fh.seek(index_offset)
    raw = fh.read(table_size)
    if len(raw) != table_size:
        raise PackError(
            f"{path}: short read of the entry table — the pack is "
            "truncated"
        )
    if hashlib.sha256(raw).digest() != sha:
        raise PackError(
            f"{path}: entry-table checksum mismatch — the table was "
            "torn or the file was modified; restore the pack or "
            "regenerate it with `repro pack`"
        )
    table = np.frombuffer(raw, dtype=_ENTRY_DTYPE)
    if len(table):
        ends = table["offset"] + table["csize"]
        bad = np.nonzero(ends > size)[0]
        if len(bad):
            e = _entry_from_record(
                bytes(table["key"][bad[0]]).decode("ascii"),
                table[bad[0]],
            )
            raise PackError(
                f"{path}: entry {e.key!r} ({e.csize} bytes at offset "
                f"{e.offset}) extends past the {size}-byte file — "
                "the pack is truncated"
            )
    return index_offset, table


class Pack:
    """Read-only random access into a pack (one open, dict lookups)."""

    def __init__(self, path: Path, table: np.ndarray, mm, fh) -> None:
        self.path = path
        # Raw records in file order; PackEntry objects are materialized
        # on demand so opening a pack with thousands of entries costs
        # one bulk parse, not a Python loop.
        self._table = table
        self._names = _decode_keys(table)
        # Later records shadow earlier ones (append semantics), but the
        # original order is kept for `repro ls` and compaction.
        self._rows: Dict[str, int] = {
            key: i for i, key in enumerate(self._names)
        }
        self._materialized: Dict[str, PackEntry] = {}
        self._mm = mm
        self._fh = fh

    # -- lifecycle -------------------------------------------------------
    @classmethod
    def open(cls, path: Union[str, Path]) -> "Pack":
        """Open and fully validate a pack; raises :class:`PackError` on
        any corruption, :class:`PackVersionError` on layout drift."""
        path = Path(path)
        try:
            fh = open(path, "rb")
        except OSError as exc:
            raise PackError(f"{path}: cannot open pack ({exc})") from exc
        try:
            size = os.fstat(fh.fileno()).st_size
            _, table = _read_index(fh, size, path)
            if size:
                mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            else:  # pragma: no cover - size>=HEADER_SIZE was checked
                mm = None
        except BaseException:
            fh.close()
            raise
        return cls(path, table, mm, fh)

    def close(self) -> None:
        if self._mm is not None:
            try:
                self._mm.close()
            except BufferError:
                # A zero-copy memoryview handed out by read() is still
                # alive; the map stays open until it is released.
                pass
            else:
                self._mm = None
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Pack":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- introspection ---------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: str) -> bool:
        return key in self._rows

    def keys(self) -> List[str]:
        """Live entry keys in table order (shadowed records omitted)."""
        seen = set()
        out = []
        for key in self._names:
            if key not in seen:
                seen.add(key)
                out.append(key)
        return out

    def records(self) -> List[PackEntry]:
        """Every table record in file order, including shadowed ones."""
        return [
            _entry_from_record(key, self._table[i])
            for i, key in enumerate(self._names)
        ]

    def entry(self, key: str) -> PackEntry:
        e = self._materialized.get(key)
        if e is not None:
            return e
        try:
            row = self._rows[key]
        except KeyError:
            raise KeyError(
                f"unknown pack entry {key!r} in {self.path}; "
                f"available: {len(self._rows)} entries "
                "(`repro ls` lists them)"
            ) from None
        e = _entry_from_record(key, self._table[row])
        self._materialized[key] = e
        return e

    # -- reads -----------------------------------------------------------
    def raw(self, key: str) -> memoryview:
        """The entry's stored bytes (deflated or not), unverified — what
        a quarantine copies out as evidence."""
        e = self.entry(key)
        return memoryview(self._mm)[e.offset:e.offset + e.csize]

    def read(self, key: str, verify: bool = True):
        """Entry payload: a zero-copy memoryview into the map for raw
        entries, bytes for compressed ones.

        ``verify`` (default) checks the stored SHA-256 before returning;
        a mismatch raises :class:`PackError` naming the entry.
        """
        e = self.entry(key)
        view = memoryview(self._mm)[e.offset:e.offset + e.csize]
        if verify and hashlib.sha256(view).digest() != e.sha:
            raise PackError(
                f"{self.path}: entry {key!r} fails its checksum — the "
                "blob is corrupt; quarantine the pack and regenerate it"
            )
        if e.compressed:
            data = zlib.decompress(view)
            if len(data) != e.osize:
                raise PackError(
                    f"{self.path}: entry {key!r} inflated to "
                    f"{len(data)} bytes, expected {e.osize} — corrupt"
                )
            return data
        return view


class PackWriter:
    """Sealed pack construction: temp file, blobs, table, one replace."""

    def __init__(self, path: Path, fh, tmp: str):
        self.path = path
        self._fh = fh
        self._tmp = tmp
        self._entries: List[PackEntry] = []
        self._offset = HEADER_SIZE
        self._closed = False

    @classmethod
    def create(cls, path: Union[str, Path]) -> "PackWriter":
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{path.name}."
        )
        fh = os.fdopen(fd, "wb")
        fh.write(b"\x00" * HEADER_SIZE)  # placeholder header
        return cls(path, fh, tmp)

    def add(self, key: str, kind: str, data,
            compress: bool = False) -> PackEntry:
        """Append one blob; ``compress`` stores it zlib-deflated (small
        text payloads), raw otherwise (keeps reads zero-copy)."""
        _check_key(key)
        _check_kind(kind)
        payload = bytes(data) if not isinstance(data, bytes) else data
        osize = len(payload)
        flags = 0
        if compress:
            payload = zlib.compress(payload, 6)
            flags |= _FLAG_ZLIB
        entry = PackEntry(
            key, kind, self._offset, len(payload), osize,
            hashlib.sha256(payload).digest(), flags,
        )
        self._fh.write(payload)
        self._offset += len(payload)
        self._entries.append(entry)
        return entry

    def close(self) -> None:
        """Seal: entry table at the tail, real header, fsync, replace."""
        if self._closed:
            return
        self._closed = True
        try:
            table = _encode_entries(self._entries)
            self._fh.write(table)
            self._fh.seek(0)
            self._fh.write(
                _pack_header(self._offset, len(self._entries), table)
            )
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            os.replace(self._tmp, self.path)
        except BaseException:
            self._discard()
            raise

    def abort(self) -> None:
        """Drop the temp file without touching the target path."""
        if self._closed:
            return
        self._closed = True
        self._discard()

    def _discard(self) -> None:
        try:
            self._fh.close()
        except OSError:
            pass
        try:
            os.unlink(self._tmp)
        except OSError:
            pass

    def __enter__(self) -> "PackWriter":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is None:
            self.close()
        else:
            self.abort()


def append_entries(
    path: Union[str, Path],
    items: Iterable[Tuple[str, str, bytes]],
    compress: bool = False,
) -> int:
    """Two-phase append of ``(key, kind, data)`` blobs to an existing
    pack (created first if absent).

    Existing blobs and the live entry table are never rewritten: new
    blobs plus the new table land after the current end of file and are
    fsynced; only then does the 64-byte header switch the pack over.
    An identical entry (same key, kind and payload hash) is skipped, so
    re-appending after a retry is idempotent; a changed payload for an
    existing key appends a shadowing record (last record wins).

    Returns the number of entries actually appended.  Single-writer:
    concurrent appends to one pack are not supported (the sweep engine
    appends only from the parent process).
    """
    path = Path(path)
    items = list(items)
    if not path.exists():
        with PackWriter.create(path) as writer:
            for key, kind, data in items:
                writer.add(key, kind, data, compress=compress)
        return len(items)

    with open(path, "r+b") as fh:
        size = os.fstat(fh.fileno()).st_size
        _, table = _read_index(fh, size, path)
        entries = _materialize_entries(table)
        known = {e.key: e for e in entries}
        fh.seek(0, os.SEEK_END)
        offset = size
        added = 0
        for key, kind, data in items:
            _check_key(key)
            _check_kind(kind)
            payload = bytes(data) if not isinstance(data, bytes) else data
            osize = len(payload)
            flags = 0
            if compress:
                payload = zlib.compress(payload, 6)
                flags |= _FLAG_ZLIB
            sha = hashlib.sha256(payload).digest()
            prev = known.get(key)
            if (prev is not None and prev.sha == sha
                    and prev.kind == kind):
                continue  # idempotent re-append (retried chunk)
            entry = PackEntry(key, kind, offset, len(payload), osize,
                              sha, flags)
            fh.write(payload)
            offset += len(payload)
            entries.append(entry)
            known[key] = entry
            added += 1
        if not added:
            return 0
        table = _encode_entries(entries)
        fh.write(table)
        fh.flush()
        os.fsync(fh.fileno())
        # Phase 2: one small header write switches readers to the new
        # table; until it lands, the old header/table pair stays valid.
        fh.seek(0)
        fh.write(_pack_header(offset, len(entries), table))
        fh.flush()
        os.fsync(fh.fileno())
    return added


def compact(src: Union[str, Path], dst: Union[str, Path]) -> int:
    """Rewrite a pack without dead regions (superseded tables, shadowed
    blobs); returns the number of live entries.  ``dst`` may equal
    ``src`` — the sealed-write temp/replace makes that safe."""
    src, dst = Path(src), Path(dst)
    with Pack.open(src) as pack:
        keys = pack.keys()
        with PackWriter.create(dst) as writer:
            for key in keys:
                e = pack.entry(key)
                raw = memoryview(pack._mm)[e.offset:e.offset + e.csize]
                if hashlib.sha256(raw).digest() != e.sha:
                    raise PackError(
                        f"{src}: entry {key!r} fails its checksum — "
                        "refusing to compact corrupt data"
                    )
                # Stored bytes are carried over verbatim (no
                # re-compression), preserving checksums.
                entry = PackEntry(
                    key, e.kind, writer._offset, e.csize, e.osize,
                    e.sha, e.flags,
                )
                writer._fh.write(raw)
                writer._offset += e.csize
                writer._entries.append(entry)
    return len(keys)
