"""Deterministic, seeded fault injection for the sweep pipeline.

Real sweep failures — OOM-killed workers, segfaults, NFS hangs, corrupt
cache files — are rare and nondeterministic, which makes the resilience
machinery in :mod:`repro.pipeline.engine` untestable by waiting for
them.  A :class:`FaultPlan` turns each failure mode into a reproducible
event pinned to a chunk id, so the golden suites and the chaos CI job
can assert *bit-identical sweep output under faults* rather than merely
"it didn't crash".

Fault kinds
-----------
``crash``
    The worker process calls ``os._exit(17)`` when it picks up the
    chunk — models an OOM kill or segfault (no exception, no cleanup).
``error``
    The worker raises :class:`InjectedFaultError` — models a chunk-level
    exception (bad allocation, transient I/O error).
``hang``
    The worker sleeps far past any reasonable deadline — models a stuck
    NFS mount or livelocked dependency; only a per-chunk timeout
    recovers it.
``corrupt``
    The worker damages one scoring record inside the cache pack (a
    zeroed tail or a flipped byte in its stored blob, chosen
    deterministically from the plan seed) before running the chunk —
    models torn writes and disk rot; the cache's quarantine path must
    absorb it.
``stop``
    Fires in the *parent* the moment the chunk's result is journalled —
    models a mid-run ``kill``/Ctrl-C for resume tests without spawning
    an outer process.

Each fault fires on attempts ``0 .. attempts-1`` of its chunk
(``attempts=-1`` → every attempt, which forces the engine's graceful
degradation to an in-process serial re-execution).  Worker-side faults
never fire in-process, mirroring reality: an environment fault kills
the worker it happens in, not the algorithm.

Plans serialise to a compact spec string (``"crash@2,error@0x2,
hang@5,corrupt@1x*;seed=7"``) accepted by ``repro sweep --faults`` and
the ``REPRO_FAULTS`` environment variable, so any scenario a test
constructs is replayable from a shell.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

from ..io.pack import Pack, PackError
from .cache import PACK_NAME
from .report import SweepError

__all__ = ["Fault", "FaultPlan", "InjectedFaultError", "FAULT_KINDS"]

FAULT_KINDS = ("crash", "error", "hang", "corrupt", "stop")

# Worker-side hang duration: far beyond any sane chunk deadline; the
# parent's timeout kill is the only way out, which is the point.
HANG_SECONDS = 3600.0

_EXIT_CODE = 17  # distinctive worker crash exit code


class InjectedFaultError(SweepError):
    """Raised by an armed ``error`` fault inside a worker."""


@dataclass(frozen=True)
class Fault:
    """One injected fault: ``kind`` at ``chunk``, first ``attempts``
    tries (``-1`` → every attempt)."""

    kind: str
    chunk: int
    attempts: int = 1

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"available: {', '.join(FAULT_KINDS)}"
            )
        if self.chunk < 0:
            raise ValueError(f"fault chunk id must be >= 0, got {self.chunk}")
        if self.attempts == 0 or self.attempts < -1:
            raise ValueError(
                f"fault attempts must be positive or -1 (always), "
                f"got {self.attempts}"
            )

    def fires(self, chunk_id: int, attempt: int) -> bool:
        if chunk_id != self.chunk:
            return False
        return self.attempts == -1 or attempt < self.attempts

    def to_token(self) -> str:
        token = f"{self.kind}@{self.chunk}"
        if self.attempts == -1:
            return token + "x*"
        if self.attempts != 1:
            return token + f"x{self.attempts}"
        return token

    @classmethod
    def from_token(cls, token: str) -> "Fault":
        text = token.strip()
        if "@" not in text:
            raise ValueError(
                f"bad fault token {token!r}: expected kind@chunk[xN|x*]"
            )
        kind, _, rest = text.partition("@")
        attempts = 1
        if "x" in rest:
            chunk_text, _, att = rest.partition("x")
            attempts = -1 if att == "*" else int(att)
        else:
            chunk_text = rest
        return cls(kind=kind.strip(), chunk=int(chunk_text),
                   attempts=attempts)


class FaultPlan:
    """A deterministic set of :class:`Fault`\\ s plus the seed that
    drives any randomised side effects (corruption byte choices)."""

    def __init__(self, faults: Sequence[Fault] = (), seed: int = 0):
        self.faults: Tuple[Fault, ...] = tuple(faults)
        self.seed = int(seed)

    # -- construction ----------------------------------------------------
    @classmethod
    def from_spec(cls, spec: Optional[str]) -> Optional["FaultPlan"]:
        """Parse ``"crash@2,error@0x2;seed=7"`` (``None``/empty → ``None``)."""
        if not spec:
            return None
        body, seed = spec, 0
        if ";" in spec:
            body, _, tail = spec.partition(";")
            tail = tail.strip()
            if not tail.startswith("seed="):
                raise ValueError(
                    f"bad fault spec tail {tail!r}: expected seed=N"
                )
            seed = int(tail[len("seed="):])
        faults = [
            Fault.from_token(token)
            for token in body.split(",") if token.strip()
        ]
        return cls(faults, seed=seed)

    def to_spec(self) -> str:
        body = ",".join(f.to_token() for f in self.faults)
        return f"{body};seed={self.seed}" if self.seed else body

    @classmethod
    def random(
        cls,
        seed: int,
        n_chunks: int,
        kinds: Sequence[str] = ("crash", "error", "hang", "corrupt"),
        rate: float = 0.25,
    ) -> "FaultPlan":
        """A seeded random chaos mix: each chunk independently draws a
        fault of a random ``kind`` with probability ``rate``.  Same seed
        → same plan, so every chaos CI failure is replayable."""
        rng = random.Random(seed)
        faults = [
            Fault(kind=rng.choice(list(kinds)), chunk=c)
            for c in range(n_chunks) if rng.random() < rate
        ]
        return cls(faults, seed=seed)

    # -- queries ---------------------------------------------------------
    def matching(self, chunk_id: int, attempt: int,
                 kinds: Sequence[str] = FAULT_KINDS) -> List[Fault]:
        return [
            f for f in self.faults
            if f.kind in kinds and f.fires(chunk_id, attempt)
        ]

    def stop_after(self, chunk_id: int) -> bool:
        """Parent-side: interrupt the run once ``chunk_id`` is journalled."""
        return any(
            f.kind == "stop" and f.chunk == chunk_id for f in self.faults
        )

    # -- worker-side firing ----------------------------------------------
    def fire(self, chunk_id: int, attempt: int,
             cache_dir: Optional[str] = None,
             keys: Optional[Sequence[str]] = None) -> None:
        """Trigger worker-side faults armed for ``(chunk_id, attempt)``.

        ``corrupt`` damages a cache record and *returns* (the chunk then
        runs against the damaged cache); ``crash``/``hang``/``error``
        never return normally.  ``keys`` narrows corruption to the
        chunk's own content keys so the damaged record is read — and
        must be quarantined and rescored — by the very chunk the fault
        targets.
        """
        for fault in self.matching(chunk_id, attempt,
                                   kinds=("corrupt",)):
            self._corrupt_cache_entry(cache_dir, chunk_id, keys)
        for fault in self.matching(chunk_id, attempt,
                                   kinds=("crash", "hang", "error")):
            if fault.kind == "crash":
                os._exit(_EXIT_CODE)
            if fault.kind == "hang":
                time.sleep(HANG_SECONDS)
            raise InjectedFaultError(
                f"injected fault: chunk {chunk_id} attempt {attempt}"
            )

    def _corrupt_cache_entry(self, cache_dir: Optional[str],
                             chunk_id: int,
                             keys: Optional[Sequence[str]]) -> None:
        """Zero the tail of, or flip one byte in, one scoring record's
        stored blob inside ``cache.rpak``, chosen deterministically from
        ``(seed, chunk_id)`` among the chunk's own ``keys`` when the
        pack holds any of them."""
        if not cache_dir:
            return
        path = Path(cache_dir) / PACK_NAME
        try:
            with Pack.open(path) as pack:
                names = sorted(pack.keys())
                wanted = {f"{key}.json" for key in keys or ()}
                names = [n for n in names if n in wanted] or names
                if not names:
                    return
                rng = random.Random(f"{self.seed}:{chunk_id}")
                entry = pack.entry(names[rng.randrange(len(names))])
        except PackError:
            return
        corrupt_file(path, mode=rng.choice(("truncate", "flip")), rng=rng,
                     region=(entry.offset, entry.csize))


def corrupt_file(path, mode: str = "truncate",
                 rng: Optional[random.Random] = None,
                 region: Optional[Tuple[int, int]] = None) -> str:
    """Damage ``path`` in place: ``truncate`` cuts it roughly in half,
    ``flip`` XOR-flips one byte.  ``region=(offset, size)`` confines the
    damage to those bytes, and ``truncate`` then zeroes the region's
    back half — what a torn write leaves inside a larger file.  Returns
    the mode applied (a target under 2 bytes falls back to
    truncation)."""
    with open(path, "r+b") as fh:
        lo, size = region or (0, os.fstat(fh.fileno()).st_size)
        fh.seek(lo)
        data = bytearray(fh.read(size))
        if mode == "truncate" or size < 2:
            mode = "truncate"
            if region is None:
                fh.truncate(size // 2)
                return mode
            data[size // 2:] = bytes(size - size // 2)
        else:
            data[(rng or random.Random(0)).randrange(size)] ^= 0xFF
        fh.seek(lo)
        fh.write(data)
    return mode
