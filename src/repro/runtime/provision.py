"""Worker-side artifact provisioning: one cache, three transports.

A pool worker verifying claims or solving CRP chunks needs the device's
compiled tables (:class:`~repro.ppuf.compiled.CompiledDevice`).  Those
tables can arrive three ways, each with its own cost profile:

* **shared memory** — :func:`share_compiled` places one artifact's arrays
  in a single ``multiprocessing.shared_memory`` block; every worker
  *maps* it (:func:`attach_compiled`), zero copies, one small manifest
  pickle.  The batch pipeline's transport for its one hot device.
* **pack slice** — a ``("pack", path)`` reference; the worker maps the
  fleet's mmap'd :class:`~repro.ppuf.pack.ArtifactPack` once and every
  device after that is an index lookup + row slice.  The service's
  transport for pack-backed fleets.
* **pickle** — a pickled :class:`~repro.ppuf.compiled.CompiledDevice`
  (built from the registry's ``.npz`` artifacts or compiled from an
  enrolled description), also the batch pipeline's fallback where shared
  memory is unavailable.

All three land behind one process-local bounded LRU
(:func:`provision_device`): a worker holds at most
:data:`WORKER_DEVICE_CACHE_SIZE` materialised devices — a fleet of
millions must not be mirrored into every worker's memory — and the pack
mappings are shared per path, so the artifact bytes exist once per
machine (OS page cache), not once per worker.

This module is the **only** place in the repo allowed to touch
``multiprocessing.shared_memory`` (CI greps for it); import
:func:`share_compiled` / :func:`attach_compiled` from here.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

import numpy as np

from repro.errors import ReproError

#: Bound on the per-worker device cache.  Small on purpose: a pool worker
#: only needs the devices it is actively working on.  Read at insertion
#: time so tests (and operators) can retune a live process.
WORKER_DEVICE_CACHE_SIZE = 32

# Process-local LRU device cache for pool workers, keyed by device_id.
# The id is content-derived, so a stale entry is impossible — a changed
# description is a different id.
_WORKER_DEVICES: "OrderedDict[str, object]" = OrderedDict()

# Process-local pack mappings, keyed by path: map each fleet file exactly
# once per worker, slice per device.
_WORKER_PACKS: dict = {}

# Shared-memory segments attached by this process, kept referenced so the
# mappings outlive cache eviction of the devices viewing them (the numpy
# views pin the buffer; holding the handle too keeps teardown explicit).
_WORKER_SEGMENTS: list = []


def _pack_device(path: str, device_id: str):
    from repro.ppuf.pack import ArtifactPack

    pack = _WORKER_PACKS.get(path)
    if pack is None:
        pack = _WORKER_PACKS[path] = ArtifactPack(path)
    return pack.device(device_id)


def materialise_payload(payload, device_id: Optional[str] = None):
    """Turn one worker transport payload into a live device.

    Accepts every transport the pools ship: a ``("pack", path)``
    reference, a ``("shm", name, manifest)`` block published by
    :func:`share_compiled`, a ``("pickle", device)`` wrapper, or an
    already-materialised device object (returned as-is).
    """
    if isinstance(payload, tuple) and payload:
        kind = payload[0]
        if kind == "pack":
            if device_id is None:
                raise ReproError("a pack payload needs the device id")
            return _pack_device(payload[1], device_id)
        if kind == "shm":
            _, name, manifest = payload
            device, shm = attach_compiled(name, manifest)
            _WORKER_SEGMENTS.append(shm)
            return device
        if kind == "pickle":
            return payload[1]
        raise ReproError(f"unknown worker payload kind {kind!r}")
    return payload


def provision_device(device_id: str, payload):
    """Fetch-or-materialise a device, keeping at most the LRU bound.

    The single worker-side entry point the service's verify tasks call:
    whatever transport ``payload`` uses, the result is cached under its
    content-derived ``device_id`` and the least-recently-used entries are
    dropped past :data:`WORKER_DEVICE_CACHE_SIZE`.
    """
    device = _WORKER_DEVICES.get(device_id)
    if device is None:
        device = materialise_payload(payload, device_id)
        _WORKER_DEVICES[device_id] = device
        while len(_WORKER_DEVICES) > WORKER_DEVICE_CACHE_SIZE:
            _WORKER_DEVICES.popitem(last=False)
    else:
        _WORKER_DEVICES.move_to_end(device_id)
    return device


def cache_size() -> int:
    """Materialised devices currently held by this process's cache."""
    return len(_WORKER_DEVICES)


def clear_cache() -> None:
    """Drop every cached device, pack mapping and shm handle (tests)."""
    _WORKER_DEVICES.clear()
    _WORKER_PACKS.clear()
    _WORKER_SEGMENTS.clear()


# ----------------------------------------------------------------------
# producer side: shipping one artifact to a pool
# ----------------------------------------------------------------------
class ShippedArtifact:
    """One device readied for pool fan-out: payload + owned resources.

    ``payload`` is what the pool initializer receives (picklable);
    :meth:`close` releases whatever the producer still owns — the
    shared-memory block on the shm transport, nothing otherwise.  Always
    ``close()`` after the pool is done (the workers hold their own
    mappings; closing unlinks the producer's segment).
    """

    def __init__(self, payload, shm=None):
        self.payload = payload
        self._shm = shm

    def close(self) -> None:
        if self._shm is not None:
            self._shm.close()
            self._shm.unlink()
            self._shm = None


def ship_compiled(device, *, share_memory: bool = True) -> ShippedArtifact:
    """Package a compiled device for a :class:`~repro.runtime.pool.WorkerPool`.

    With ``share_memory`` (default) the artifact's arrays go into one
    shared block and the payload is the tiny ``("shm", name, manifest)``
    reference; otherwise the payload pickles the device to every worker
    (the fallback where shared memory is unavailable, and the comparison
    baseline for benchmarks).
    """
    if share_memory:
        shm, manifest = share_compiled(device)
        return ShippedArtifact(("shm", shm.name, manifest), shm)
    return ShippedArtifact(("pickle", device))


# ----------------------------------------------------------------------
# shared-memory transport (multi-process fan-out)
# ----------------------------------------------------------------------
def share_compiled(device):
    """Copy an artifact's arrays into one shared-memory block.

    Returns ``(shm, manifest)``: the owning
    :class:`multiprocessing.shared_memory.SharedMemory` (caller must
    ``close()`` and ``unlink()`` it) and a small picklable manifest —
    header plus per-array layout — that :func:`attach_compiled` turns back
    into a :class:`~repro.ppuf.compiled.CompiledDevice` whose tables
    *map* the block (zero copies per worker).
    """
    from multiprocessing import shared_memory

    arrays = device.to_arrays()
    layout = []
    offset = 0
    for name, array in arrays.items():
        layout.append(
            {
                "name": name,
                "offset": offset,
                "shape": list(array.shape),
                "dtype": str(array.dtype),
            }
        )
        offset += array.nbytes
    shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    try:
        for entry, array in zip(layout, arrays.values()):
            view = np.ndarray(
                array.shape,
                dtype=array.dtype,
                buffer=shm.buf,
                offset=entry["offset"],
            )
            np.copyto(view, array)
    except BaseException:
        shm.close()
        shm.unlink()
        raise
    manifest = {"header": device.header(), "arrays": layout}
    return shm, manifest


def attach_compiled(name: str, manifest: dict, *, untrack: bool = True):
    """Map a shared artifact published by :func:`share_compiled`.

    Returns ``(device, shm)``; the caller must keep ``shm`` referenced for
    the device's lifetime and ``close()`` it when done.  The attached
    arrays view the shared buffer directly — nothing is copied.

    ``untrack`` (default) detaches the mapping from this process's
    resource tracker so a worker's exit cannot unlink a segment the
    sharing process still owns; pass ``False`` when attaching from the
    owning process itself (its own registration must survive).
    """
    from multiprocessing import shared_memory

    from repro.ppuf.compiled import CompiledDevice

    try:
        shm = shared_memory.SharedMemory(name=name, track=untrack is False)
    except TypeError:  # Python < 3.13: no track flag
        if untrack:
            # Attaching would register the segment with the resource
            # tracker, which then unlinks it when a worker exits (and,
            # under fork, is *shared* with the owning process, so even an
            # unregister here would clobber the owner's bookkeeping).
            # Suppress the registration instead: ownership stays with the
            # sharing process, whose own registration is untouched.
            from multiprocessing import resource_tracker

            original = resource_tracker.register
            resource_tracker.register = lambda *a, **k: None
            try:
                shm = shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = original
        else:
            shm = shared_memory.SharedMemory(name=name)
    arrays = {
        entry["name"]: np.ndarray(
            tuple(entry["shape"]),
            dtype=np.dtype(entry["dtype"]),
            buffer=shm.buf,
            offset=entry["offset"],
        )
        for entry in manifest["arrays"]
    }
    return CompiledDevice.from_arrays(manifest["header"], arrays), shm
