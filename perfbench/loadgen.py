"""Load generation for the auth workloads: one process, at most two
connections, every verdict checked.

The generator is an honest (or, for planned sessions, hostile) device
holder speaking the wire protocol through
:class:`repro.service.client.ServiceClient`.  It answers each challenge
with :meth:`repro.ppuf.verification.PpufProver.answer_compact`, the same
prover ``repro auth`` runs.

Two loops:

* :func:`run_closed` — one connection, the next session starts when the
  previous verdict arrives (``auth_serial``);
* :func:`run_open` — sessions are due on a seeded schedule and timed from
  their due time.  HELLOs go out in schedule order, each after the
  previous CHALLENGE arrived, so the server's k-th challenge always goes
  to the k-th planned device and verdict counts repeat exactly for a
  seed; the claim rounds of consecutive sessions still overlap on the
  second connection (``auth_open``).
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import List, Optional

from perfbench import harness
from repro.errors import ServiceError
from repro.ppuf.verification import PpufProver
from repro.service import wire
from repro.service.client import ServiceClient
from repro.service.resilience import RetryPolicy

#: Hostile sessions multiply the claimed max-flow value by this factor.
#: Far above any tolerance, so an accepted tampered claim is a verifier
#: bug, not a rounding question.
TAMPER_FACTOR = 1.10

REQUEST_TIMEOUT = 30.0


@dataclass
class Device:
    """One device holder: its id, its prover and, for a device that is
    not in the server's pack yet, the public description to enroll."""

    device_id: str
    prover: PpufProver
    public: Optional[dict] = None


@dataclass(frozen=True)
class SessionPlan:
    index: int
    device: int
    hostile: bool = False
    enroll: bool = False
    due: float = 0.0  # seconds after the loop's start (open loop only)


@dataclass
class SessionResult:
    plan: SessionPlan
    due: float = 0.0  # absolute perf_counter
    lag: float = 0.0  # seconds the generator sent it late (harness.send_lag)
    done: float = 0.0
    accepted: Optional[bool] = None
    reason: str = ""
    claims_sent: int = 0
    claims_verified: int = 0
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        """Honest rejected, hostile accepted, or no verdict at all."""
        if self.error is not None or self.accepted is None:
            return True
        return self.accepted == self.plan.hostile


#: Verdict reasons the server hands out without counting a verified claim.
UNVERIFIED_REASONS = {"deadline", "wrong_challenge", "verify_timeout"}


class Generator:
    """Drives sessions for a list of :class:`Device`; optional tracing."""

    def __init__(self, port: int, devices: List[Device], *, recorder=None):
        self.port = port
        self.devices = devices
        self.recorder = recorder

    async def connect(self) -> ServiceClient:
        client = ServiceClient(
            "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT,
            retry=RetryPolicy.no_retry(),
        )
        return await client.connect()

    async def _request(self, client: ServiceClient, message: dict) -> dict:
        if self.recorder is None:
            reply = await client.request(message)
        else:
            reply = await self.recorder.acall(
                "client.wait", client.request, (message,), {},
                attrs={"type": message["type"]},
            )
        if reply.get("type") == wire.ERROR:
            raise ServiceError(f"server error: {reply.get('error')}")
        return reply

    async def open_session(self, client: ServiceClient, plan: SessionPlan) -> dict:
        """ENROLL (new devices only) and HELLO; returns the first reply."""
        device = self.devices[plan.device]
        if plan.enroll:
            reply = await self._request(
                client, {"type": wire.ENROLL, "device": device.public}
            )
            if reply.get("device_id") != device.device_id:
                raise ServiceError("enrolled under an unexpected device id")
        return await self._request(
            client, {"type": wire.HELLO, "device_id": device.device_id, "network": "a"}
        )

    async def finish_session(self, client: ServiceClient, plan: SessionPlan,
                             reply: dict, result: SessionResult) -> None:
        """Answer every CHALLENGE until the VERDICT; fills ``result``."""
        prover = self.devices[plan.device].prover
        while reply.get("type") == wire.CHALLENGE:
            challenge = wire.challenge_from_wire(reply["challenge"])
            if self.recorder is None:
                claim = prover.answer_compact(challenge)
            else:
                claim = self.recorder.call(
                    "prover.answer", prover.answer_compact, (challenge,), {},
                    session=reply["session"],
                )
            claim_wire = wire.claim_to_wire(claim)
            if plan.hostile:
                claim_wire["value"] = claim_wire["value"] * TAMPER_FACTOR
            result.claims_sent += 1
            reply = await self._request(
                client,
                {
                    "type": wire.CLAIM,
                    "session": reply["session"],
                    "nonce": reply["nonce"],
                    "claim": claim_wire,
                },
            )
            if reply.get("type") == wire.CHALLENGE or reply.get(
                "reason"
            ) not in UNVERIFIED_REASONS:
                result.claims_verified += 1
        if reply.get("type") != wire.VERDICT:
            raise ServiceError(f"expected a verdict, got {reply.get('type')!r}")
        result.accepted = bool(reply["accepted"])
        result.reason = str(reply.get("reason", ""))


async def _replace(generator: Generator, client: ServiceClient) -> ServiceClient:
    """A connection that failed mid-session is not reused."""
    await client.close()
    return await generator.connect()


async def run_closed(generator: Generator, plans: List[SessionPlan]) -> List[SessionResult]:
    """One connection; each session starts when the previous one ended."""
    client = await generator.connect()
    results = []
    try:
        for plan in plans:
            result = SessionResult(plan)
            result.due = time.perf_counter()
            try:
                result.lag = harness.send_lag(time.perf_counter(), result.due)
                reply = await generator.open_session(client, plan)
                await generator.finish_session(client, plan, reply, result)
            except ServiceError as error:
                result.error = f"{type(error).__name__}: {error}"
                client = await _replace(generator, client)
            result.done = time.perf_counter()
            results.append(result)
    finally:
        await client.close()
    return results


#: Open-loop connections: sessions in flight at once (the host has two CPUs).
OPEN_CONNECTIONS = 2


async def run_open(generator: Generator, plans: List[SessionPlan]) -> List[SessionResult]:
    """Sessions due on ``plan.due``; at most :data:`OPEN_CONNECTIONS` in
    flight.  The queue holds each free connection with the time it was
    freed."""
    free: asyncio.Queue = asyncio.Queue()
    for _ in range(OPEN_CONNECTIONS):
        free.put_nowait((await generator.connect(), 0.0))
    results = [SessionResult(plan) for plan in plans]
    tasks = set()

    async def finish(client, plan, reply, result):
        try:
            await generator.finish_session(client, plan, reply, result)
        except ServiceError as error:
            result.error = f"{type(error).__name__}: {error}"
            await client.close()
            client = None  # the scheduler reconnects (and fails loudly)
        result.done = time.perf_counter()
        free.put_nowait((client, result.done))

    start = time.perf_counter() + 0.05
    challenged = start  # when the previous HELLO's reply arrived
    try:
        for plan, result in zip(plans, results):
            result.due = start + plan.due
            delay = result.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            client, freed = await free.get()
            client = client or await generator.connect()
            result.lag = harness.send_lag(time.perf_counter(), result.due, freed, challenged)
            try:
                reply = await generator.open_session(client, plan)
            except ServiceError as error:
                result.error = f"{type(error).__name__}: {error}"
                result.done = challenged = time.perf_counter()
                free.put_nowait((await _replace(generator, client), result.done))
                continue
            challenged = time.perf_counter()
            task = asyncio.create_task(finish(client, plan, reply, result))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        while tasks:
            await asyncio.gather(*list(tasks))
    finally:
        while not free.empty():
            client, _ = free.get_nowait()
            if client is not None:
                await client.close()
    return results


async def fetch_stats(generator: Generator) -> dict:
    client = await generator.connect()
    try:
        reply = await client.request({"type": wire.STATS})
    finally:
        await client.close()
    if reply.get("type") != wire.STATS:
        raise ServiceError(f"STATS failed: {reply!r}")
    return reply["stats"]
