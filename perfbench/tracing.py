"""Span recording around the program's public entry points.

The benchmark never edits the program: a traced run wraps module
attributes and class methods of :mod:`repro` from the benchmark's own code
and records one :class:`~perfbench.harness.Span` per call.  Spans stay in
memory and are written out when the traced process ends.

Three installers, one per process role:

* :func:`install_server` — inside the traced server launcher, before the
  verification pool forks, so the worker-side wrappers (provisioning,
  claim decode, ``verify_compact_claims``) are inherited by the pool
  worker.  A worker's spans ride back to the server inside the task's own
  result (:class:`TracedResults`, a ``list`` the server consumes
  unchanged), so no file is written from the worker.
* :func:`install_prover` — in the load generator: max-flow solve and
  path decomposition inside ``PpufProver.answer_compact``.
* :func:`install_batch` — in the batch workload: artifact shipping, pool
  spawn and shutdown, and the per-worker attach, carried back on each
  chunk result (:class:`TimedChunk`).
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import threading
import time
from typing import Callable, List, Optional

from perfbench.harness import Span

_CURRENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_span", default=None)


class Recorder:
    """In-memory span store for one process.

    Span ids carry the pid, so spans recorded in a forked worker never
    collide with the server's.
    """

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()

    def _new_id(self) -> str:
        with self._lock:
            return f"{os.getpid()}-{next(self._ids)}"

    def add(self, name: str, start: float, end: float, *, parent=None,
            session=None, **attrs) -> Span:
        span = Span(self._new_id(), name, start, end, parent, session, attrs)
        self.spans.append(span)
        return span

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict, *,
             session=None, attrs: Optional[dict] = None):
        """Run ``fn`` as one span (sync)."""
        span_id = self._new_id()
        parent = _CURRENT.get()
        token = _CURRENT.set(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            _CURRENT.reset(token)
            self.spans.append(
                Span(span_id, name, start, end, parent, session, dict(attrs or {}))
            )

    async def acall(self, name: str, fn: Callable, args: tuple, kwargs: dict, *,
                    session=None, attrs: Optional[dict] = None, on_result=None):
        """Await ``fn`` as one span.  ``on_result(span_id, result, attrs)``
        may add attributes from the result and return the session id."""
        span_id = self._new_id()
        parent = _CURRENT.get()
        token = _CURRENT.set(span_id)
        attrs = dict(attrs or {})
        start = time.perf_counter()
        try:
            result = await fn(*args, **kwargs)
            if on_result is not None:
                session = on_result(span_id, result, attrs) or session
            return result
        finally:
            end = time.perf_counter()
            _CURRENT.reset(token)
            self.spans.append(Span(span_id, name, start, end, parent, session, attrs))

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": [s.to_dict() for s in self.spans]}, handle)


def current_span() -> Optional[str]:
    return _CURRENT.get()


def _wrap(owner, attribute: str, make: Callable) -> None:
    """Replace ``owner.attribute`` with ``make(original)``.

    ``functools.wraps`` keeps the original ``__module__``/``__qualname__``,
    so a wrapped module-level task function still pickles by reference to
    the (now wrapped) module attribute.
    """
    original = getattr(owner, attribute)
    wrapper = make(original)
    functools.update_wrapper(wrapper, original)
    setattr(owner, attribute, wrapper)


def _sync(recorder: Recorder, owner, attribute: str, name: str,
          attrs_of: Optional[Callable] = None) -> None:
    def make(original):
        def wrapper(*args, **kwargs):
            attrs = attrs_of(*args, **kwargs) if attrs_of else None
            return recorder.call(name, original, args, kwargs, attrs=attrs)
        return wrapper
    _wrap(owner, attribute, make)


class TracedResults(list):
    """A worker task's result list plus the spans the worker recorded.

    Pickles as a list with instance attributes, so it crosses the pool's
    result pipe intact; the server's consumers only index and iterate it.
    """

    spans: list
    task_seconds: float


class TimedChunk(tuple):
    """A batch chunk result ``(bits, stats)`` plus when it started and,
    on a worker's first chunk, when that worker's attach ran."""

    start: float
    init: Optional[tuple]


class _JsonShim:
    """Stands in for the ``json`` module inside :mod:`repro.service.wire`
    so frame parsing and encoding are timed without touching any other
    user of ``json``."""

    def __init__(self, recorder: Recorder):
        self.JSONDecodeError = json.JSONDecodeError
        self._recorder = recorder

    def loads(self, line, *args, **kwargs):
        start = time.perf_counter()
        message = json.loads(line, *args, **kwargs)
        session = message.get("session") if isinstance(message, dict) else None
        self._recorder.add(
            "wire.decode", start, time.perf_counter(),
            parent=current_span(), session=session, bytes=len(line),
        )
        return message

    def dumps(self, *args, **kwargs):
        return json.dumps(*args, **kwargs)


# ----------------------------------------------------------------------
# server process
# ----------------------------------------------------------------------
def install_server(recorder: Recorder) -> None:
    """Wrap the auth server's layers; call before the server starts."""
    from repro.ppuf.pack import ArtifactPack
    from repro.runtime import provision
    from repro.runtime.pool import WorkerPool
    from repro.service import server, wire
    from repro.service.registry import DeviceRegistry
    from repro.service.sessions import SessionManager

    # --- wire -----------------------------------------------------------
    wire.json = _JsonShim(recorder)

    def make_encode(original):
        def encode(message):
            start = time.perf_counter()
            frame = original(message)
            recorder.add(
                "wire.encode", start, time.perf_counter(), parent=current_span(),
                session=message.get("session"), bytes=len(frame),
            )
            return frame
        return encode
    _wrap(wire, "encode_message", make_encode)

    # --- service dispatch: one root span per request ---------------------
    def make_dispatch(original):
        async def dispatch(self, message):
            def session_of(span_id, reply, attrs):
                attrs["type"] = message.get("type")
                if isinstance(reply, dict):
                    return reply.get("session")
                return None
            return await recorder.acall(
                "service.dispatch", original, (self, message), {},
                session=message.get("session"), on_result=session_of,
            )
        return dispatch
    _wrap(server.PpufAuthServer, "_dispatch", make_dispatch)

    # --- sessions, delay bound, registry, pack ---------------------------
    for method in ("open", "admit_claim", "advance", "close"):
        _sync(recorder, SessionManager, method, "sessions.op")
    _sync(recorder, server, "lin_mead_delay_bound", "delay.bound")
    _sync(recorder, DeviceRegistry, "enroll", "registry.enroll")
    _sync(
        recorder, DeviceRegistry, "compiled", "registry.compiled",
        lambda self, device_id: {"hit": device_id in self._compiled},
    )
    _sync(
        recorder, ArtifactPack, "device", "pack.device",
        lambda self, device_id: {"hit": device_id in self._cache},
    )

    def make_payload(original):
        async def device_payload(self, device_id):
            return await recorder.acall(
                "provision.ship", original, (self, device_id), {}
            )
        return device_payload
    _wrap(server.PpufAuthServer, "_device_payload", make_payload)

    # --- micro-batcher: submit-to-dispatch wait per claim ----------------
    submitted: dict = {}

    def make_submit(original):
        async def submit(self, item):
            submitted[id(item)] = (time.perf_counter(), current_span())
            return await original(self, item)
        return submit
    _wrap(server.ClaimMicroBatcher, "submit", make_submit)

    def make_run(original):
        async def run(self, batch):
            now = time.perf_counter()
            for item, _ in batch:
                start, parent = submitted.pop(id(item), (now, None))
                recorder.add("microbatch.wait", start, now, parent=parent)
            token = _CURRENT.set(None)  # a batch belongs to no one session
            try:
                return await recorder.acall(
                    "microbatch.dispatch", original, (self, batch), {},
                    attrs={"claims": len(batch)},
                )
            finally:
                _CURRENT.reset(token)
        return run
    _wrap(server.ClaimMicroBatcher, "_run", make_run)

    # --- pool hop: run() wall minus the task's own time ------------------
    def make_pool_run(original):
        async def run(self, fn, *args):
            def adopt(span_id, result, attrs):
                if isinstance(result, TracedResults):
                    attrs["task_s"] = result.task_seconds
                    for span in result.spans:
                        if span.parent is None:
                            span.parent = span_id
                    recorder.spans.extend(result.spans)
                    result.spans = []
            return await recorder.acall(
                "pool.run", original, (self, fn) + args, {}, on_result=adopt
            )
        return run
    _wrap(WorkerPool, "run", make_pool_run)

    # --- worker side (inherited by the forked pool worker) ---------------
    _sync(
        recorder, server, "provision_device", "provision.device",
        lambda device_id, payload: {"hit": device_id in provision._WORKER_DEVICES},
    )
    _sync(
        recorder, server, "verify_compact_claims", "verify.claims",
        lambda network, claims, **_: {"claims": len(claims)},
    )
    _sync(recorder, wire, "claim_from_wire", "wire.claim_decode")

    def make_task(original):
        def task(jobs, rtol):
            outer, recorder.spans = recorder.spans, []
            try:
                traced = TracedResults(recorder.call(
                    "worker.verify_batch", original, (jobs, rtol), {},
                    attrs={"claims": len(jobs)},
                ))
                traced.spans = recorder.spans
                traced.task_seconds = recorder.spans[-1].duration
                return traced
            finally:
                recorder.spans = outer
        return task
    _wrap(server, "_verify_claims_task", make_task)


# ----------------------------------------------------------------------
# load generator
# ----------------------------------------------------------------------
def install_prover(recorder: Recorder) -> None:
    """Wrap the solve and decompose steps of ``PpufProver.answer_compact``."""
    from repro.ppuf import verification

    _sync(recorder, verification, "solve_max_flow", "flow.solve")
    _sync(recorder, verification, "cancel_cycles", "flow.decompose")
    _sync(recorder, verification, "decompose_flow", "flow.decompose")


# ----------------------------------------------------------------------
# batch CRP path
# ----------------------------------------------------------------------
_WORKER_INIT: list = []


def install_batch(recorder: Recorder) -> None:
    """Wrap shipping, the per-call pool and the worker-side attach."""
    from repro.ppuf import batch

    _sync(recorder, batch, "ship_compiled", "provision.ship")

    base = batch.WorkerPool

    class TracedWorkerPool(base):
        def __init__(self, *args, **kwargs):
            start = time.perf_counter()
            super().__init__(*args, **kwargs)
            recorder.add("pool.init", start, time.perf_counter(), parent=current_span())

        def map(self, fn, iterable):
            start = time.perf_counter()
            results = super().map(fn, iterable)
            timed = [r for r in results if isinstance(r, TimedChunk)]
            attaches = [r.init[1] - r.init[0] for r in timed if r.init]
            recorder.add(
                "pool.map", start, time.perf_counter(), parent=current_span(),
                first_task=min((r.start for r in timed), default=start),
                attach_s=sum(attaches) / len(attaches) if attaches else 0.0,
            )
            return results

        def shutdown(self, *args, **kwargs):
            return recorder.call(
                "pool.shutdown", super().shutdown, args, kwargs,
                attrs={
                    "queue_high_water": self.stats.queue_high_water,
                    "restarts": self.stats.pool_restarts,
                },
            )

    batch.WorkerPool = TracedWorkerPool

    def make_init(original):
        def init(*args):
            start = time.perf_counter()
            original(*args)
            _WORKER_INIT.append((start, time.perf_counter()))
        return init
    _wrap(batch, "_worker_init", make_init)

    def make_chunk(original):
        def chunk(challenges):
            start = time.perf_counter()
            result = TimedChunk(original(challenges))
            result.start = start
            result.init = _WORKER_INIT.pop() if _WORKER_INIT else None
            return result
        return chunk
    _wrap(batch, "_worker_chunk", make_chunk)
