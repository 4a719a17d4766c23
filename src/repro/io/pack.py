"""Single-file binary pack store for sweep artifacts.

The record cache (:class:`~repro.pipeline.cache.InstanceCache`) and the
run journal's per-chunk shards each keep their artifacts in one *pack*:
a versioned binary file with random access by content key::

    offset 0   header (64 bytes)
               magic   8s   b"RPACK1\\n\\0"
               version u32  PACK_VERSION (schema of this layout)
               reserved u32 0
               tip_offset u64  where the newest segment starts
               tip_count  u64  entry records in the newest segment
               tip_sha    32s  SHA-256 of the newest segment's bytes
    64         one run per write, in file order:
               blobs    the write's entry payloads
               segment  the write's entry records, 136 bytes each
                        (content key, kind, offset, compressed size,
                        original size, SHA-256, flags), then a 48-byte
                        link to the segment before it (offset, count,
                        SHA-256; offset 0 ends the chain)

Opening a pack walks the chain from the header back to the first
segment, checks every segment against the SHA-256 that names it, and
parses each one's records with a single :func:`numpy.frombuffer` call,
so lookups are a dict hit — no directory scans.  Raw blobs come out of
an ``mmap`` as zero-copy memoryviews; compressed ones are read with
``os.pread`` and inflated, so a pack truncated under an open handle
fails their reads with :class:`PackError`.  Every read verifies the
entry's SHA-256 before handing bytes out.

Write contract (docs/pack_store.md has the full derivation):

* **Sealed writes** (:meth:`PackWriter.create` … :meth:`PackWriter.close`)
  build a one-segment pack in a temp file next to the target and commit
  it with one ``os.replace`` — readers see the old pack or the new one,
  never a torn file.
* **Appends** (:func:`append_entries`) hold an exclusive ``fcntl.flock``
  on the pack file.  The new blobs and a segment of only the new
  records land after the current end of file and are fsynced; only then
  does a single 64-byte header write switch the pack to the new
  segment.  A crash before the switch leaves the old pack intact with
  an ignored tail, and no table is ever rewritten, so appends leave
  nothing dead behind.  An append to a missing path builds the pack in
  a locked temp file and links it into place, so no reader sees a
  partial pack.  :meth:`Pack.open` reads the header and segments under
  a shared lock and drops it before returning.

Corruption never panics and never destroys evidence: a bad magic,
truncated file, segment checksum mismatch or schema-version drift
raises an actionable :class:`PackError` / :class:`PackVersionError`,
and the cache and journal quarantine the damaged pack instead of
deleting it.
"""

from __future__ import annotations

import fcntl
import hashlib
import mmap
import os
import struct
import tempfile
import zlib
from pathlib import Path
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Tuple, Union)

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
# Bump on any change to the header, segment or entry-record layout an
# older reader would misinterpret (policy in docs/pack_store.md).
# 2: linked segments replace the one rewritten entry table.
PACK_VERSION = 2

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

# The tail of every segment: offset, record count and SHA-256 of the
# segment written before it.  The header holds the same triple for the
# newest segment.
_LINK = struct.Struct("<QQ32s")
LINK_SIZE = _LINK.size  # 48 bytes
_FIRST = (0, 0, bytes(32))  # the link of a pack's first segment

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


def _stored(key: str, kind: str, data, offset: int,
            compress: bool) -> Tuple[PackEntry, bytes]:
    """The entry and stored bytes of one blob written at ``offset``;
    ``compress`` deflates it (small text payloads), raw otherwise keeps
    reads zero-copy."""
    _check_key(key)
    _check_kind(kind)
    payload = bytes(data) if not isinstance(data, bytes) else data
    osize = len(payload)
    flags = 0
    if compress:
        payload = zlib.compress(payload, 6)
        flags |= _FLAG_ZLIB
    return PackEntry(key, kind, offset, len(payload), osize,
                     hashlib.sha256(payload).digest(), flags), payload


def _segment(entries: Iterable[PackEntry], link: tuple) -> bytes:
    """Encoded entry records followed by the link to the previous
    segment."""
    entries = list(entries)
    table = np.zeros(len(entries), dtype=_ENTRY_DTYPE)
    for i, e in enumerate(entries):
        table[i] = (
            _check_key(e.key), _check_kind(e.kind), e.offset,
            e.csize, e.osize, e.sha, e.flags, b"",
        )
    return table.tobytes() + _LINK.pack(*link)


def _header(offset: int, count: int, segment: bytes) -> bytes:
    return _HEADER.pack(
        PACK_MAGIC, PACK_VERSION, 0, offset, count,
        hashlib.sha256(segment).digest(),
    )


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


def _load(fh, path: Path) -> Tuple[mmap.mmap, np.ndarray, tuple]:
    """Map a pack file and read its chain (the map is closed again when
    the pack fails validation)."""
    size = os.fstat(fh.fileno()).st_size
    if size < HEADER_SIZE:
        raise PackError(
            f"{path}: file is {size} bytes, shorter than the "
            f"{HEADER_SIZE}-byte pack header — truncated or not a pack"
        )
    mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    try:
        return (mm, *_read_chain(mm, path))
    except BaseException:
        mm.close()
        raise


def _read_chain(mm: mmap.mmap, path: Path) -> Tuple[np.ndarray, tuple]:
    """Validate the header, walk the segment chain and return every
    entry record in file order plus the link to the newest segment.

    Records come back as the raw structured array — callers materialize
    :class:`PackEntry` objects lazily so opening a large pack stays
    cheap.  Every failure mode is its own actionable message: wrong
    magic, version drift, truncation, segment checksum mismatch.
    """
    size = len(mm)
    magic, version, _reserved, *tip = _HEADER.unpack(mm[:HEADER_SIZE])
    if magic != PACK_MAGIC:
        raise PackError(
            f"{path}: bad magic {magic!r} — not a repro pack "
            "(expected one written by `repro pack` or PackWriter)"
        )
    if version != PACK_VERSION:
        raise PackVersionError(
            f"{path}: pack layout version {version}, but this build "
            f"reads version {PACK_VERSION}; regenerate the pack from "
            "this build (caches and run dirs rebuild it by themselves)"
        )
    tables = []
    offset, count, sha = tip
    end = size  # a segment ends before the one linked after it
    while offset:
        seg_size = count * ENTRY_SIZE + LINK_SIZE
        if offset < HEADER_SIZE or offset + seg_size > end:
            raise PackError(
                f"{path}: segment of {count} entries at offset "
                f"{offset} extends past the {size}-byte file or the "
                "segment after it — the pack is truncated"
            )
        segment = mm[offset:offset + seg_size]
        if hashlib.sha256(segment).digest() != sha:
            raise PackError(
                f"{path}: entry-table checksum mismatch in the segment "
                f"at offset {offset} — the table was torn or the file "
                "was modified; restore the pack or regenerate it"
            )
        tables.append(np.frombuffer(segment, dtype=_ENTRY_DTYPE,
                                    count=count))
        end = offset
        offset, count, sha = _LINK.unpack_from(segment, count * ENTRY_SIZE)
    table = (np.concatenate(tables[::-1]) if tables
             else np.zeros(0, dtype=_ENTRY_DTYPE))
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
    return table, tuple(tip)


def _names(path: Path, fh) -> bool:
    """Does ``path`` still name the file open as ``fh``?"""
    try:
        return os.path.samestat(os.stat(path), os.fstat(fh.fileno()))
    except FileNotFoundError:
        return False


def _locked(path: Path, mode: str, op: int):
    """``path`` opened in ``mode`` with flock ``op`` held on the file the
    path still names: a quarantine may move the pack while the lock is
    awaited, so a stale file is closed and the path opened again.
    Raises ``FileNotFoundError`` when no file is left there."""
    while True:
        fh = open(path, mode)
        try:
            fcntl.flock(fh, op)
        except BaseException:
            fh.close()
            raise
        if _names(path, fh):
            return fh
        fh.close()


class Pack:
    """Read-only random access into a pack (one open, dict lookups)."""

    def __init__(self, path: Path, table: np.ndarray, mm, fh) -> None:
        self.path = path
        # Raw records in file order; PackEntry objects are materialized
        # on demand so opening a pack with thousands of entries costs
        # one bulk parse per segment, not a Python loop.
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
        """Open and fully validate a pack under a shared lock (released
        before returning); raises :class:`PackError` on any corruption,
        :class:`PackVersionError` on layout drift."""
        path = Path(path)
        try:
            fh = _locked(path, "rb", fcntl.LOCK_SH)
        except OSError as exc:
            raise PackError(f"{path}: cannot open pack ({exc})") from exc
        try:
            mm, table, _ = _load(fh, path)
            fcntl.flock(fh, fcntl.LOCK_UN)
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
    def _stored(self, e: PackEntry):
        """``e``'s stored bytes.  A raw entry is a zero-copy view into
        the map.  A deflated one is inflated into a copy anyway, so it
        is read with ``os.pread``: a pack truncated under this handle
        then raises :class:`PackError` instead of faulting the map."""
        if not e.compressed:
            return memoryview(self._mm)[e.offset:e.offset + e.csize]
        data = os.pread(self._fh.fileno(), e.csize, e.offset)
        if len(data) != e.csize:
            raise PackError(
                f"{self.path}: entry {e.key!r} reads {len(data)} of its "
                f"{e.csize} bytes — the pack was truncated after it was "
                "opened; quarantine it and regenerate it"
            )
        return data

    def raw(self, key: str):
        """The entry's stored bytes (deflated or not), unverified — what
        a quarantine copies out as evidence.  Raises :class:`PackError`
        when a deflated entry was truncated away."""
        return self._stored(self.entry(key))

    def read(self, key: str, verify: bool = True):
        """Entry payload: a zero-copy memoryview into the map for raw
        entries, bytes for compressed ones.

        ``verify`` (default) checks the stored SHA-256 before returning;
        a mismatch raises :class:`PackError` naming the entry.
        """
        e = self.entry(key)
        view = self._stored(e)
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
    """Sealed pack construction: temp file, blobs, one segment, one
    replace."""

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
        entry, payload = _stored(key, kind, data, self._offset, compress)
        self._fh.write(payload)
        self._offset += len(payload)
        self._entries.append(entry)
        return entry

    def close(self) -> None:
        """Seal: the one segment at the tail, real header, fsync,
        replace."""
        if self._closed:
            return
        self._closed = True
        try:
            segment = _segment(self._entries, _FIRST)
            self._fh.write(segment)
            self._fh.seek(0)
            self._fh.write(
                _header(self._offset, len(self._entries), segment)
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
    on_damage: Optional[Callable[[Path], None]] = None,
) -> int:
    """Two-phase append of ``(key, kind, data)`` blobs to a pack, under
    an exclusive lock on the pack file (a missing pack is created).

    The new blobs and a segment holding only their records land after
    the current end of file and are fsynced; only then does the 64-byte
    header switch the pack over.  An entry whose key, kind and payload
    hash match a record already in the pack, and whose stored blob
    still verifies, is skipped, so re-appending after a retry is
    idempotent; a changed payload appends a shadowing record (last
    record wins).

    A pack that fails validation raises :class:`PackError`, unless
    ``on_damage`` is given: it is called with the path, under the lock,
    to move the pack away, and the append then starts a fresh pack.
    Returns the number of entries actually appended.
    """
    path = Path(path)
    items = list(items)
    if not items:
        return 0
    while True:
        try:
            fh = _locked(path, "r+b", fcntl.LOCK_EX)
        except FileNotFoundError:
            if _create(path, items, compress):
                return len(items)
            continue  # another writer created it first: append to it
        with fh:
            try:
                mm, table, tip = _load(fh, path)
            except PackError:
                if on_damage is None:
                    raise
                on_damage(path)
                if _names(path, fh):
                    raise  # not moved: appending again would loop
                continue
            with mm:
                return _commit(fh, items, compress, tip,
                               _unchanged(table, mm))


def _unchanged(table: np.ndarray, mm) -> Callable[[PackEntry], bool]:
    """Predicate: does the pack's live record for ``entry.key`` hold the
    same kind and payload, in a blob that still verifies?"""
    rows = {key: i for i, key in enumerate(_decode_keys(table))}

    def same(entry: PackEntry) -> bool:
        row = rows.get(entry.key)
        if row is None:
            return False
        old = _entry_from_record(entry.key, table[row])
        return (old.kind == entry.kind and old.sha == entry.sha
                and hashlib.sha256(
                    mm[old.offset:old.offset + old.csize]
                ).digest() == old.sha)

    return same


def _commit(fh, items, compress: bool, tip: tuple,
            unchanged: Callable[[PackEntry], bool]) -> int:
    """Write the new blobs and their segment (linked to ``tip``) at the
    end of ``fh`` and fsync, then switch the header to the new segment
    and fsync again.  Returns the number of entries written."""
    offset = fh.seek(0, os.SEEK_END)
    entries = []
    for key, kind, data in items:
        entry, payload = _stored(key, kind, data, offset, compress)
        if unchanged(entry):
            continue  # idempotent re-append (retried chunk)
        fh.write(payload)
        offset += len(payload)
        entries.append(entry)
    if not entries:
        return 0
    segment = _segment(entries, tip)
    fh.write(segment)
    fh.flush()
    os.fsync(fh.fileno())
    # Phase 2: one small header write switches readers to the new
    # segment; until it lands, the old header stays valid.
    fh.seek(0)
    fh.write(_header(offset, len(entries), segment))
    fh.flush()
    os.fsync(fh.fileno())
    return len(entries)


def _create(path: Path, items, compress: bool) -> bool:
    """Build a pack of ``items`` in a locked temp file and link it to
    ``path``; ``False`` when another writer's pack got there first."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "r+b") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            fh.write(b"\x00" * HEADER_SIZE)
            _commit(fh, items, compress, _FIRST, lambda entry: False)
            try:
                os.link(tmp, path)
            except FileExistsError:
                return False
        return True
    finally:
        os.unlink(tmp)


def compact(src: Union[str, Path], dst: Union[str, Path]) -> int:
    """Rewrite a pack as one segment without shadowed blobs; returns the
    number of live entries.  ``dst`` may equal ``src`` — the
    sealed-write temp/replace makes that safe."""
    src, dst = Path(src), Path(dst)
    with Pack.open(src) as pack:
        keys = pack.keys()
        with PackWriter.create(dst) as writer:
            for key in keys:
                e = pack.entry(key)
                raw = pack.raw(key)
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
