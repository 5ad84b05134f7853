"""Zero-copy shared-memory arenas for multiprocess kernels.

:class:`SharedGraphArena` places a set of named numpy arrays — the CSR
adjacency, the partition/membership tables and preallocated output slabs —
into ``multiprocessing.shared_memory`` segments, described by a small
picklable :class:`ArenaDescriptor` (segment names, dtypes, shapes, CRCs).
Workers receive the *descriptor* instead of the arrays: attaching maps the
segments zero-copy, so a task costs a few hundred bytes of pickle no matter
how large the graph is. This is the serialization fix behind the paper's
billion-scale parallel claim (ROADMAP item 3).

Ownership rules keep ``/dev/shm`` clean under every failure mode the
resilience suite injects:

* Only the **creator** (the parent driver) ever unlinks. Creation happens
  inside a context manager / ``try‥finally`` and is backstopped by an
  ``atexit`` hook, so normal exit, a mid-run ``KeyboardInterrupt`` and
  test teardown all release the segments.
* Workers are always **fork children** of the creator, so their attach
  shares the creator's resource-tracker process: Python < 3.13 registers
  every attach, but against the shared tracker that is an idempotent
  set-add, never a second owner. A worker that is SIGKILL'd therefore
  cannot leak or destroy anything — the segment outlives it and the
  parent's supervisor retries the batch. (Attaching from a *foreign*
  process with its own tracker is outside this module's contract: that
  tracker would unlink the segment when the foreign process exits.)
* A parent hard-kill (SIGKILL) is covered by the resource tracker
  itself: the creator's registrations survive in the tracker process,
  which unlinks them when the parent disappears.

Integrity: every *input* array records a CRC32 at creation time;
:meth:`SharedGraphArena.attach` re-hashes the mapped bytes and raises the
typed :class:`ArenaDescriptorError` on any mismatch (wrong dtype, shape,
truncated segment, corrupted payload). Output slabs are exempt — they are
written by workers by design. Callers (the multiprocess driver) treat the
typed error as "fall back to the pickle path" and bump
``shm_fallback_total``.
"""

from __future__ import annotations

import atexit
import os
import secrets
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from ..obs import metrics as obs_metrics

__all__ = [
    "ArenaError",
    "ArenaDescriptorError",
    "ArraySpec",
    "ArenaDescriptor",
    "SharedGraphArena",
    "shared_memory_available",
]

#: Prefix for every segment this module creates — the leak sentinel in
#: ``tests/kernels/conftest.py`` greps ``/dev/shm`` for it and reads the
#: creator pid that follows (``<prefix>[-probe]-<pid hex>-...``).
SEGMENT_PREFIX = "repro-shm"


class ArenaError(RuntimeError):
    """Base class for shared-memory arena failures."""


class ArenaDescriptorError(ArenaError):
    """The descriptor does not match the mapped segments (corruption,
    truncation, dtype/shape drift, or a stale/unlinked arena)."""


@dataclass(frozen=True)
class ArraySpec:
    """One array's location inside the arena.

    ``crc`` is ``None`` for output slabs (worker-written, not integrity
    checked); input arrays pin the CRC32 of their creation-time bytes.
    """

    name: str          # logical array name ("indptr", "members", ...)
    segment: str       # shared-memory segment name
    dtype: str         # numpy dtype string, e.g. "int64"
    shape: Tuple[int, ...]
    crc: Optional[int] = None

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= dim
        return count * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class ArenaDescriptor:
    """Picklable handle workers use to attach an arena zero-copy."""

    arena_id: str
    arrays: Tuple[ArraySpec, ...] = field(default_factory=tuple)

    @property
    def nbytes(self) -> int:
        return sum(spec.nbytes for spec in self.arrays)

    def spec(self, name: str) -> ArraySpec:
        """The :class:`ArraySpec` for the named array."""
        for spec in self.arrays:
            if spec.name == name:
                return spec
        raise ArenaDescriptorError(
            f"arena {self.arena_id}: no array named {name!r}"
        )


def _crc(array: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(array).view(np.uint8).data) & 0xFFFFFFFF


def shared_memory_available() -> bool:
    """True when this platform can create and attach shm segments."""
    try:
        from multiprocessing import shared_memory

        probe = shared_memory.SharedMemory(
            name=f"{SEGMENT_PREFIX}-probe-{os.getpid():x}-{secrets.token_hex(2)}",
            create=True, size=8,
        )
    except Exception:
        return False
    probe.close()
    probe.unlink()
    return True


class SharedGraphArena:
    """A set of named arrays living in shared-memory segments.

    Build with :meth:`create` (the owning side) or :meth:`attach` (the
    worker side); read arrays back with :meth:`array`. The creator must
    call :meth:`unlink` (or use the instance as a context manager); an
    ``atexit`` hook backstops interpreter exit with arenas still live.
    """

    _live_created: Dict[str, "SharedGraphArena"] = {}
    _atexit_installed = False

    def __init__(
        self,
        descriptor: ArenaDescriptor,
        segments: Dict[str, object],
        owner: bool,
    ) -> None:
        self.descriptor = descriptor
        self._segments = segments          # segment name -> SharedMemory
        self._owner = owner
        # Forked children inherit owner arenas; only the creating *pid*
        # may ever unlink (a worker unlinking would destroy segments the
        # parent still serves to its siblings).
        self._owner_pid = os.getpid()
        self._views: Dict[str, np.ndarray] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        inputs: Mapping[str, np.ndarray],
        outputs: Optional[Mapping[str, Tuple[Tuple[int, ...], np.dtype]]] = None,
        label: str = "arena",
    ) -> "SharedGraphArena":
        """Create segments for ``inputs`` (CRC-pinned copies) and zeroed
        ``outputs`` slabs; returns the owning arena.

        Raises :class:`ArenaError` when the platform cannot provide
        shared memory (caller falls back to the pickle path).
        """
        try:
            from multiprocessing import shared_memory
        except ImportError as exc:  # pragma: no cover - always present on CPython
            raise ArenaError(f"shared memory unavailable: {exc}") from exc
        arena_id = f"{SEGMENT_PREFIX}-{os.getpid():x}-{secrets.token_hex(3)}"
        specs: List[ArraySpec] = []
        segments: Dict[str, object] = {}
        try:
            for idx, (name, array) in enumerate(inputs.items()):
                array = np.ascontiguousarray(array)
                seg_name = f"{arena_id}-{idx:x}"
                seg = shared_memory.SharedMemory(
                    name=seg_name, create=True, size=max(1, array.nbytes),
                )
                segments[seg_name] = seg
                view = np.ndarray(array.shape, dtype=array.dtype, buffer=seg.buf)
                view[...] = array
                specs.append(ArraySpec(
                    name=name, segment=seg_name, dtype=str(array.dtype),
                    shape=tuple(array.shape), crc=_crc(view),
                ))
            for idx, (name, (shape, dtype)) in enumerate(
                (outputs or {}).items()
            ):
                dtype = np.dtype(dtype)
                seg_name = f"{arena_id}-o{idx:x}"
                nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
                seg = shared_memory.SharedMemory(
                    name=seg_name, create=True, size=max(1, nbytes),
                )
                segments[seg_name] = seg
                view = np.ndarray(shape, dtype=dtype, buffer=seg.buf)
                view[...] = 0
                specs.append(ArraySpec(
                    name=name, segment=seg_name, dtype=str(dtype),
                    shape=tuple(shape), crc=None,
                ))
        except ArenaError:
            cls._cleanup_segments(segments)
            raise
        except Exception as exc:
            cls._cleanup_segments(segments)
            raise ArenaError(f"arena creation failed: {exc}") from exc
        arena = cls(ArenaDescriptor(arena_id, tuple(specs)), segments, owner=True)
        cls._live_created[arena_id] = arena
        cls._install_atexit()
        obs_metrics.inc("shm_arena_created_total", labels={"label": label})
        obs_metrics.set_gauge("shm_arena_live_bytes", cls.live_bytes())
        return arena

    @classmethod
    def attach(cls, descriptor: ArenaDescriptor) -> "SharedGraphArena":
        """Map an existing arena read/write; validates dtypes, shapes and
        input CRCs against the descriptor.

        Raises :class:`ArenaDescriptorError` on any mismatch — the arena
        is gone, truncated or corrupted, or the descriptor was tampered
        with. The attach never takes ownership: closing (or dying) leaves
        the segments for the creator to unlink.
        """
        try:
            from multiprocessing import shared_memory
        except ImportError as exc:  # pragma: no cover
            raise ArenaError(f"shared memory unavailable: {exc}") from exc
        segments: Dict[str, object] = {}
        try:
            for spec in descriptor.arrays:
                try:
                    seg = shared_memory.SharedMemory(name=spec.segment)
                except FileNotFoundError as exc:
                    raise ArenaDescriptorError(
                        f"arena {descriptor.arena_id}: segment "
                        f"{spec.segment} does not exist"
                    ) from exc
                segments[spec.segment] = seg
                if seg.size < spec.nbytes:
                    raise ArenaDescriptorError(
                        f"arena {descriptor.arena_id}: segment "
                        f"{spec.segment} holds {seg.size} bytes, descriptor "
                        f"claims {spec.nbytes}"
                    )
                if spec.crc is not None:
                    view = np.ndarray(
                        spec.shape, dtype=np.dtype(spec.dtype), buffer=seg.buf
                    )
                    found = _crc(view)
                    if found != spec.crc:
                        raise ArenaDescriptorError(
                            f"arena {descriptor.arena_id}: array "
                            f"{spec.name!r} CRC mismatch "
                            f"(descriptor {spec.crc:#x}, mapped {found:#x})"
                        )
        except Exception:
            for seg in segments.values():
                try:
                    seg.close()
                except OSError:  # pragma: no cover - close is best-effort
                    pass
            raise
        return cls(descriptor, segments, owner=False)

    def self_check(self) -> None:
        """Re-hash the creator's own views against the descriptor.

        The cheap pre-dispatch guard: a corrupted or tampered descriptor
        is caught in the parent (typed error → pickle-path fallback)
        instead of failing every worker attach.
        """
        for spec in self.descriptor.arrays:
            if spec.crc is None:
                continue
            found = _crc(self.array(spec.name))
            if found != spec.crc:
                raise ArenaDescriptorError(
                    f"arena {self.descriptor.arena_id}: array {spec.name!r} "
                    f"CRC mismatch (descriptor {spec.crc:#x}, "
                    f"mapped {found:#x})"
                )

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def array(self, name: str) -> np.ndarray:
        """Zero-copy view of a named array."""
        if self._closed:
            raise ArenaError(f"arena {self.descriptor.arena_id} is closed")
        view = self._views.get(name)
        if view is None:
            spec = self.descriptor.spec(name)
            seg = self._segments[spec.segment]
            view = np.ndarray(
                spec.shape, dtype=np.dtype(spec.dtype), buffer=seg.buf
            )
            self._views[name] = view
        return view

    @property
    def nbytes(self) -> int:
        return self.descriptor.nbytes

    @classmethod
    def live_bytes(cls) -> int:
        """Total bytes of arenas this process created and has not unlinked."""
        return sum(a.nbytes for a in cls._live_created.values())

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop the views and unmap the segments (does not unlink)."""
        if self._closed:
            return
        self._closed = True
        self._views.clear()
        for seg in self._segments.values():
            try:
                seg.close()
            except (OSError, BufferError):  # pragma: no cover - best effort
                pass

    def unlink(self) -> None:
        """Destroy the segments. Creator-only; idempotent."""
        if not self._owner or self._owner_pid != os.getpid():
            raise ArenaError("only the creating process may unlink an arena")
        self.close()
        for seg in self._segments.values():
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments = {}
        type(self)._live_created.pop(self.descriptor.arena_id, None)
        obs_metrics.set_gauge("shm_arena_live_bytes", type(self).live_bytes())

    def __enter__(self) -> "SharedGraphArena":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._owner and self._owner_pid == os.getpid():
            self.unlink()
        else:
            self.close()

    # ------------------------------------------------------------------
    @classmethod
    def _cleanup_segments(cls, segments: Dict[str, object]) -> None:
        for seg in segments.values():
            try:
                seg.close()
                seg.unlink()
            except (OSError, FileNotFoundError):  # pragma: no cover
                pass

    @classmethod
    def _install_atexit(cls) -> None:
        if cls._atexit_installed:
            return
        cls._atexit_installed = True
        atexit.register(cls._unlink_all_live)

    @classmethod
    def _unlink_all_live(cls) -> None:
        """Interpreter-exit backstop: unlink every arena still owned."""
        for arena in list(cls._live_created.values()):
            if arena._owner_pid != os.getpid():
                continue  # inherited across fork: the parent's to clean
            try:
                arena.unlink()
            except ArenaError:  # pragma: no cover - defensive
                pass


def leaked_segments(names: Iterable[str] = ()) -> List[str]:
    """Names of arena segments still present in ``/dev/shm``.

    The test-suite leak sentinel. On platforms without a ``/dev/shm``
    filesystem this returns an empty list (the sentinel degrades to a
    no-op rather than a false failure).
    """
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-Linux
        return []
    out = []
    wanted = set(names)
    for entry in os.listdir(shm_dir):
        if not entry.startswith(SEGMENT_PREFIX):
            continue
        if wanted and entry not in wanted:
            continue
        out.append(entry)
    return sorted(out)
