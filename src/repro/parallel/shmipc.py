"""Zero-copy result transport over ``multiprocessing.shared_memory``.

The pool's workers used to ship every chunk's results back through
their pickle pipes.  For the numeric result tables the experiments
actually produce — floats, ints, equally-shaped numeric arrays — that
serializes each value, copies it through a socket, and deserializes it
in the parent.  This module replaces the pipe with a **preallocated
shared-memory arena**: one fixed-size slot per chunk, created by the
parent *before* the workers fork (so they inherit the mapping — no name
lookups, no per-chunk attach), written in place by the worker, and read
directly by the parent.  Only a tiny descriptor dict (kind, count,
dtype, shape) still travels over the pipe.

The transport is strictly an optimization and never changes values:

* floats round-trip through ``float64`` binary unchanged, ints through
  ``int64`` (checked against its range), arrays byte-for-byte — the
  reconstructed result list compares equal to what pickling would have
  produced, preserving the engine's bit-identical-to-serial contract;
* any chunk whose results are *not* one of the numeric kinds, or whose
  packed form exceeds the slot, silently falls back to the pickle pipe
  (``slot_used=False`` in the payload descriptor);
* ``REPRO_SHM=0`` disables the arena entirely.

Safety: the parent owns the segment and unlinks it in a ``finally``;
worker crashes cannot leak it past the owning ``map`` call.
"""

from __future__ import annotations

import os
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

#: Environment variable: set to ``0`` to disable the shared-memory
#: transport (results then travel by pickle, as before PR 6).
SHM_ENV = "REPRO_SHM"

#: Environment variable overriding the per-chunk slot size in bytes.
SHM_SLOT_ENV = "REPRO_SHM_SLOT_BYTES"

#: Default slot size: holds 128k float64 results per chunk.
DEFAULT_SLOT_BYTES = 1 << 20

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


def shm_enabled() -> bool:
    """Whether the shared-memory transport is switched on."""
    return os.environ.get(SHM_ENV, "").strip() != "0"


def slot_bytes() -> int:
    """Per-chunk slot size (``REPRO_SHM_SLOT_BYTES`` or the default)."""
    raw = os.environ.get(SHM_SLOT_ENV, "").strip()
    if raw:
        try:
            value = int(raw)
        except ValueError:
            return DEFAULT_SLOT_BYTES
        if value > 0:
            return value
    return DEFAULT_SLOT_BYTES


def pack_results(results: Sequence[Any]) -> Optional[Dict[str, Any]]:
    """Describe ``results`` as one flat numeric buffer, or ``None``.

    Recognized kinds:

    * ``floats`` — every item is a python ``float`` (bools excluded);
    * ``ints`` — every item is a python ``int`` within int64 range;
    * ``arrays`` — every item is an ``ndarray`` of one shared numeric
      dtype and shape.

    Returns ``{"kind", "count", "dtype", "shape", "data"}`` with
    ``data`` the flat array to copy into a slot, or ``None`` when the
    list is not uniformly numeric (the caller falls back to pickle).
    """
    if not results:
        return None
    first = results[0]
    if isinstance(first, float) and not isinstance(first, bool):
        if not all(
            isinstance(r, float) and not isinstance(r, bool) for r in results
        ):
            return None
        data = np.array(results, dtype=np.float64)
        return {
            "kind": "floats",
            "count": len(results),
            "dtype": "float64",
            "shape": (),
            "data": data,
        }
    if isinstance(first, int) and not isinstance(first, bool):
        if not all(
            isinstance(r, int)
            and not isinstance(r, bool)
            and _INT64_MIN <= r <= _INT64_MAX
            for r in results
        ):
            return None
        data = np.array(results, dtype=np.int64)
        return {
            "kind": "ints",
            "count": len(results),
            "dtype": "int64",
            "shape": (),
            "data": data,
        }
    if isinstance(first, np.ndarray):
        dtype = first.dtype
        shape = first.shape
        if dtype.hasobject or dtype.kind not in "biufc":
            return None
        if not all(
            isinstance(r, np.ndarray) and r.dtype == dtype and r.shape == shape
            for r in results
        ):
            return None
        data = np.ascontiguousarray(
            np.stack([np.ascontiguousarray(r) for r in results]).reshape(-1)
        )
        return {
            "kind": "arrays",
            "count": len(results),
            "dtype": dtype.str,
            "shape": tuple(shape),
            "data": data,
        }
    return None


def unpack_results(descriptor: Dict[str, Any], raw: np.ndarray) -> List[Any]:
    """Inverse of :func:`pack_results` over the slot's byte view."""
    kind = descriptor["kind"]
    count = descriptor["count"]
    dtype = np.dtype(descriptor["dtype"])
    shape = tuple(descriptor["shape"])
    per_item = int(np.prod(shape, dtype=np.int64)) if shape else 1
    data = (
        raw[: count * per_item * dtype.itemsize]
        .view(dtype)
        .reshape((count,) + shape)
    )
    if kind == "floats":
        return [float(v) for v in data]
    if kind == "ints":
        return [int(v) for v in data]
    if kind == "arrays":
        # Copy out of the arena: the segment is unlinked when map ends.
        return [np.array(data[i]) for i in range(count)]
    raise ValueError(f"unknown shm result kind {kind!r}")


class ResultArena:
    """A slotted shared-memory segment for one :meth:`TrialPool.map` call.

    ``slots`` fixed-size slots, one per planned chunk.  The parent
    constructs it before forking the workers, which inherit the open
    mapping through the module global installed by the pool and write
    their slot in place.  :meth:`close` (parent, ``finally``) unlinks
    the segment.
    """

    def __init__(self, slots: int, slot_size: Optional[int] = None):
        self.slot_size = slot_size if slot_size is not None else slot_bytes()
        self.slots = slots
        self._shm = shared_memory.SharedMemory(
            create=True, size=max(1, slots * self.slot_size)
        )
        #: Transport statistics, parent-side only (not obs counters:
        #: serial and parallel telemetry must stay identical).
        self.stats: Dict[str, int] = {"shm_chunks": 0, "pickle_chunks": 0}

    @property
    def name(self) -> str:
        return self._shm.name

    def _slot_view(self, slot: int) -> np.ndarray:
        if not 0 <= slot < self.slots:
            raise ValueError(f"slot {slot} out of range [0, {self.slots})")
        start = slot * self.slot_size
        return np.frombuffer(
            self._shm.buf, dtype=np.uint8, count=self.slot_size, offset=start
        )

    def write(self, slot: int, results: Sequence[Any]) -> Optional[Dict[str, Any]]:
        """Pack ``results`` into ``slot``; descriptor on success, else None."""
        packed = pack_results(results)
        if packed is None:
            return None
        data = packed.pop("data")
        if data.nbytes > self.slot_size:
            return None
        view = self._slot_view(slot)
        view[: data.nbytes] = data.view(np.uint8).reshape(-1)
        return packed

    def read(self, slot: int, descriptor: Dict[str, Any]) -> List[Any]:
        """Reconstruct the result list a worker packed into ``slot``."""
        return unpack_results(descriptor, self._slot_view(slot))

    def close(self, unlink: bool = True) -> None:
        """Release the mapping (and, in the owning parent, the segment)."""
        self._shm.close()
        if unlink:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass
