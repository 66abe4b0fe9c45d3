"""The three workloads: set-up, measured pass, traced pass, checks.

Every workload returns an :class:`Outcome`; a failed correctness check
raises :class:`BenchFailure` and an unrepresentative run raises
:class:`InvalidRun`, so no such run is ever reported as a number.
"""

from __future__ import annotations

import asyncio
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from perfbench import harness, loadgen, tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Validity guards: above these the generator, not the program, set the
#: pace, and the run is refused.
MAX_LOADGEN_LAG_P90_MS = 10.0
MAX_LOADGEN_CPU_SHARE = 0.80

SERVER_START_TIMEOUT = 60.0


class BenchFailure(Exception):
    """A correctness check failed: the program gave a wrong output."""


class InvalidRun(Exception):
    """The run did not measure the program (see the validity guards)."""


@dataclass
class Config:
    seed: int
    seconds: int
    trace: bool
    work: str  # scratch directory inside the checkout


@dataclass
class Outcome:
    attempted: int
    failed: int
    metrics: Dict[str, float]
    layers: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, object] = field(default_factory=dict)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _env(work: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src"), ROOT] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = work
    return env


# ----------------------------------------------------------------------
# server process
# ----------------------------------------------------------------------
class ServerProcess:
    """``repro serve`` in its own process, plain or under the traced
    launcher; ready once its ``listening`` event is on stdout."""

    def __init__(self, work: str, pack: str, *, seed: int, rounds: int,
                 spans_path: Optional[str] = None):
        serve = ["--pack", pack, "--port", "0", "--workers", "1",
                 "--seed", str(seed), "--rounds", str(rounds)]
        if spans_path is None:
            command = [sys.executable, "-m", "repro", "serve", *serve]
        else:
            command = [sys.executable, "-m", "perfbench.launcher", spans_path, *serve]
        self.log_path = os.path.join(work, f"server-{time.monotonic_ns()}.log")
        self._log = open(self.log_path, "w")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=work, env=_env(work), stdout=subprocess.PIPE,
            stderr=self._log, text=True,
        )
        try:
            self.port = self._await_listening()
        except BaseException:
            self.stop()
            raise
        self.ready_seconds = time.perf_counter() - started

    @property
    def pid(self) -> int:
        return self.process.pid

    def _await_listening(self) -> int:
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                break
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(event, dict) and event.get("event") == "listening":
                return int(event["port"])
        raise BenchFailure(f"server never reported listening; see {self.log_path}")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()
        if self.process.returncode != 0:
            raise BenchFailure(
                f"server exited with {self.process.returncode}; see {self.log_path}"
            )


# ----------------------------------------------------------------------
# auth workloads
# ----------------------------------------------------------------------
#: Every auth device is an n=10, l=3 PPUF.
AUTH_N, AUTH_L = 10, 3
#: Open-loop sessions run before the measured window (a closed loop warms
#: each device once instead).
OPEN_WARMUP_SESSIONS = 8


@dataclass(frozen=True)
class AuthSpec:
    name: str
    pack_devices: int
    rounds: int
    sessions_per_second: float
    open_loop: bool
    # Set-ups per measured run; ``setup_s`` is their median.  As many as a
    # run can afford: the host's speed swings within seconds.
    setup_repeats: int
    hostile_every: int = 0  # every k-th session is hostile (0: none)
    enroll_every: int = 0  # one new device per k sessions (0: none)


AUTH_SERIAL = AuthSpec(
    "auth_serial", pack_devices=4, rounds=4, sessions_per_second=11.0,
    open_loop=False, setup_repeats=9,
)
AUTH_OPEN = AuthSpec(
    "auth_open", pack_devices=128, rounds=1, sessions_per_second=10.0,
    open_loop=True, hostile_every=8, enroll_every=64,
    setup_repeats=3,  # each compiles 128 devices (~9 s)
)


@dataclass
class AuthFleet:
    pack: str
    devices: List[loadgen.Device]
    devices_seconds: float
    pack_seconds: float


def build_fleet(cfg: Config, spec: AuthSpec, sessions: int, tag: str) -> AuthFleet:
    """Synthesize and compile the pack fleet and the devices that will
    enroll over the wire, then write the pack (all seeded)."""
    from repro.ppuf.device import Ppuf
    from repro.ppuf.io import ppuf_to_dict
    from repro.ppuf.pack import build_pack
    from repro.ppuf.verification import PpufProver
    from repro.service.registry import device_id_for

    started = time.perf_counter()
    rng = _rng(cfg.seed, 1)
    compiled = [
        Ppuf.create(AUTH_N, AUTH_L, rng).compile(include_circuit=False)
        for _ in range(spec.pack_devices)
    ]
    devices = [loadgen.Device(c.device_id, PpufProver(c.network_a)) for c in compiled]
    for _ in range(sessions // spec.enroll_every if spec.enroll_every else 0):
        ppuf = Ppuf.create(AUTH_N, AUTH_L, rng)
        public = ppuf_to_dict(ppuf)
        prover = PpufProver(ppuf.compile(include_circuit=False).network_a)
        devices.append(loadgen.Device(device_id_for(public), prover, public))
    devices_seconds = time.perf_counter() - started
    path = os.path.join(cfg.work, f"{spec.name}-{tag}.pack")
    started = time.perf_counter()
    build_pack(path, compiled)
    return AuthFleet(path, devices, devices_seconds, time.perf_counter() - started)


def plan_sessions(cfg: Config, spec: AuthSpec, sessions: int) -> List[loadgen.SessionPlan]:
    """The seeded session list: device, role and due time per session.

    Hostile and enrolling sessions come in fixed numbers at seeded
    places, so every seed offers the same mix.
    """
    rng = _rng(cfg.seed, 2)
    hostile = set(
        range(spec.hostile_every - 1, sessions, spec.hostile_every)
        if spec.hostile_every else ()
    )
    enrolling = harness.pick_positions(
        rng, sessions, sessions // spec.enroll_every if spec.enroll_every else 0,
        exclude=hostile,
    )
    new_device = {index: spec.pack_devices + k for k, index in enumerate(enrolling)}
    if spec.open_loop:
        due = harness.arrival_schedule(rng, sessions, sessions / spec.sessions_per_second)
        picks = rng.integers(0, spec.pack_devices, size=sessions)
    else:
        due = [0.0] * sessions
        order = rng.permutation(spec.pack_devices)
        picks = [order[i % spec.pack_devices] for i in range(sessions)]
    return [
        loadgen.SessionPlan(
            index=i,
            device=new_device.get(i, int(picks[i])),
            hostile=i in hostile,
            enroll=i in new_device,
            due=due[i],
        )
        for i in range(sessions)
    ]


def warmup_plans(cfg: Config, spec: AuthSpec) -> List[loadgen.SessionPlan]:
    rng = _rng(cfg.seed, 3)
    if spec.open_loop:
        picks = rng.integers(0, spec.pack_devices, size=OPEN_WARMUP_SESSIONS)
    else:
        picks = range(spec.pack_devices)
    return [loadgen.SessionPlan(index=-1, device=int(d)) for d in picks]


def warm_provers(fleet: AuthFleet, seed: int) -> None:
    """Answer one challenge per device before any timing: the device
    holders' lazy caches are not the server's cost."""
    from repro.ppuf.challenge import ChallengeSpace

    rng = _rng(seed, 4)
    for device in fleet.devices:
        network = device.prover.network
        device.prover.answer_compact(ChallengeSpace(network.crossbar).random(rng))


@dataclass
class AuthPass:
    results: List[loadgen.SessionResult]
    wall: float
    server_cpu: float
    loadgen_cpu: float
    rss_mb: float
    stats_before: dict
    stats_after: dict
    window: tuple


def _gen_cpu() -> float:
    times = os.times()
    return times.user + times.system


def auth_pass(server: ServerProcess, fleet: AuthFleet, spec: AuthSpec,
              plans, warm, recorder=None) -> AuthPass:
    generator = loadgen.Generator(server.port, fleet.devices, recorder=recorder)

    async def drive():
        for result in await loadgen.run_closed(generator, warm):
            if result.error is not None:
                raise BenchFailure(f"warm-up session failed: {result.error}")
        before = await loadgen.fetch_stats(generator)
        cpu0, gen0 = harness.tree_cpu_seconds(server.pid), _gen_cpu()
        t0 = time.perf_counter()
        if spec.open_loop:
            results = await loadgen.run_open(generator, plans)
        else:
            results = await loadgen.run_closed(generator, plans)
        t1 = time.perf_counter()
        cpu1, gen1 = harness.tree_cpu_seconds(server.pid), _gen_cpu()
        rss = harness.peak_rss_mb(harness.process_tree(server.pid))
        after = await loadgen.fetch_stats(generator)
        return AuthPass(results, t1 - t0, harness.cpu_delta(cpu0, cpu1),
                        gen1 - gen0, rss, before, after, (t0, t1))

    return asyncio.run(drive())


def check_auth(run: AuthPass) -> None:
    """The loud checks: any of these fails the whole run."""
    hostile_accepted = [r for r in run.results if r.plan.hostile and r.accepted]
    if hostile_accepted:
        raise BenchFailure(
            f"{len(hostile_accepted)} hostile session(s) accepted, first "
            f"#{hostile_accepted[0].plan.index}"
        )
    after = run.stats_after
    for key in ("worker_faults", "internal_errors"):
        if after.get(key, 0):
            raise BenchFailure(f"server STATS {key} = {after[key]}")
    restarts = after.get("runtime", {}).get("pool_restarts", 0)
    if restarts:
        raise BenchFailure(f"server STATS runtime.pool_restarts = {restarts}")
    verified = after["claims_verified"] - run.stats_before["claims_verified"]
    sent = sum(r.claims_verified for r in run.results)
    if verified != sent:
        raise BenchFailure(
            f"server verified {verified} claims; the generator sent {sent} "
            "that should have reached verification"
        )


def auth_latencies(run: AuthPass) -> List[float]:
    done = [r for r in run.results if r.error is None]
    return harness.due_latencies([r.due for r in done], [r.done for r in done])


def _percentiles(latencies_ms: List[float], strict: bool):
    pick = harness.supported_percentile if strict else harness.percentile
    try:
        return pick(latencies_ms, 50), pick(latencies_ms, 90)
    except ValueError as error:  # too few samples: the run was too short
        raise InvalidRun(str(error)) from None


def auth_metrics(run: AuthPass, setup_seconds: float, strict: bool) -> Outcome:
    results = run.results
    p50, p90 = _percentiles([s * 1e3 for s in auth_latencies(run)], strict)
    failed = sum(r.failed for r in results)
    completed = [r for r in results if r.error is None]
    span = max(r.done for r in completed) - min(r.due for r in results)
    metrics = {
        "setup_s": setup_seconds,
        "latency_p50_ms": p50.value,
        "latency_p90_ms": p90.value,
        "throughput_per_s": len(completed) / span,
        "cpu_ms_per_op": run.server_cpu * 1e3 / len(results),
        "success_share": 1.0 - failed / len(results),
        "peak_rss_mb": run.rss_mb,
    }
    reasons: Dict[str, int] = {}
    for r in results:
        key = ("hostile " if r.plan.hostile else "honest ") + (
            "error" if r.error else ("accepted" if r.accepted else f"rejected:{r.reason}")
        )
        reasons[key] = reasons.get(key, 0) + 1
    counts = {
        "attempted": len(results),
        "succeeded": len(results) - failed,
        "failed": failed,
        "verdicts": dict(sorted(reasons.items())),
        "latency_samples": p50.samples,
        "p90_samples_beyond": p90.beyond,
        "enrolled": sum(r.plan.enroll for r in results),
    }
    return Outcome(len(results), failed, metrics, counts=counts)


def harness_layers(run: AuthPass) -> Dict[str, float]:
    lags = [r.lag * 1e3 for r in run.results]
    return {
        "loadgen.lag_ms_p90": harness.percentile(lags, 90).value,
        "loadgen.cpu_share": run.loadgen_cpu / run.wall,
        "server.cpu_share": run.server_cpu / run.wall,
    }


def guard(layers: Dict[str, float]) -> None:
    if layers["loadgen.lag_ms_p90"] > MAX_LOADGEN_LAG_P90_MS:
        raise InvalidRun(
            f"generator ran late: lag p90 {layers['loadgen.lag_ms_p90']:.2f} ms "
            f"> {MAX_LOADGEN_LAG_P90_MS} ms"
        )
    if layers["loadgen.cpu_share"] > MAX_LOADGEN_CPU_SHARE:
        raise InvalidRun(
            f"generator CPU-bound: {layers['loadgen.cpu_share']:.2f} of a core "
            f"> {MAX_LOADGEN_CPU_SHARE}"
        )


def _per(total: float, count: float) -> float:
    return total / count if count else 0.0


def auth_trace_layers(spans: List[harness.Span], run: AuthPass,
                      plain: AuthPass) -> Dict[str, float]:
    """Per-layer numbers from a traced pass (spans inside its window)."""
    t0, t1 = run.window
    spans = [s for s in spans if t0 <= s.start <= t1]
    totals = harness.layer_totals(spans)
    by_name: Dict[str, List[harness.Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def total(name, attr="seconds"):
        entry = totals.get(name)
        return getattr(entry, attr) if entry else 0.0

    def calls(name):
        return totals[name].calls if name in totals else 0

    def hit_share(name):
        group = by_name.get(name, [])
        return _per(sum(bool(s.attrs.get("hit")) for s in group), len(group))

    ops = len(run.results)
    rounds = sum(r.claims_sent for r in run.results)
    claims = sum(s.attrs.get("claims", 0) for s in by_name.get("verify.claims", []))
    wire_bytes = sum(
        s.attrs.get("bytes", 0) for s in by_name.get("wire.encode", []) + by_name.get("wire.decode", [])
    )
    before, after = run.stats_before["verify_latency"], run.stats_after["verify_latency"]
    stats_claims = after["observations"] - before["observations"]
    stats_seconds = (after["mean_seconds"] * after["observations"]
                     - before["mean_seconds"] * before["observations"])
    hops = [s.duration - s.attrs["task_s"] for s in by_name.get("pool.run", [])
            if "task_s" in s.attrs]
    ms = 1e3
    traced_p50 = harness.percentile([x * ms for x in auth_latencies(run)], 50).value
    plain_p50 = harness.percentile([x * ms for x in auth_latencies(plain)], 50).value
    batches = plain.stats_after["claim_batches"] - plain.stats_before["claim_batches"]
    batched = plain.stats_after["claims_batched"] - plain.stats_before["claims_batched"]
    runtime = run.stats_after.get("runtime", {})
    return {
        "delay.bound_calls_per_op": _per(calls("delay.bound"), ops),
        "delay.bound_ms_per_op": _per(total("delay.bound") * ms, ops),
        "microbatch.wait_ms_per_claim": _per(total("microbatch.wait") * ms, calls("microbatch.wait")),
        "microbatch.occupancy": _per(batched, batches),
        "pool.hop_ms_per_task": _per(sum(hops) * ms, len(hops)),
        "pool.queue_high_water": float(runtime.get("queue_high_water", 0)),
        "pool.restarts": float(runtime.get("pool_restarts", 0)),
        "provision.hit_share": hit_share("provision.device"),
        "provision.ms_per_call": _per(total("provision.device") * ms, calls("provision.device")),
        "provision.ship_ms_per_call": _per(total("provision.ship") * ms, calls("provision.ship")),
        "pack.hit_share": hit_share("pack.device"),
        "pack.device_ms_per_call": _per(total("pack.device") * ms, calls("pack.device")),
        "registry.enroll_ms_per_call": _per(total("registry.enroll") * ms, calls("registry.enroll")),
        "registry.compiled_ms_per_call": _per(total("registry.compiled") * ms, calls("registry.compiled")),
        "verify.ms_per_claim": _per(total("verify.claims", "self_seconds") * ms, claims),
        "verify.stats_ms_per_claim": _per(stats_seconds * ms, stats_claims),
        "prover.answer_ms_per_round": _per(total("prover.answer") * ms, rounds),
        "flow.solve_ms_per_round": _per(total("flow.solve") * ms, rounds),
        "flow.decompose_ms_per_round": _per(total("flow.decompose") * ms, rounds),
        "wire.encode_ms": _per(total("wire.encode") * ms, ops),
        "wire.decode_ms": _per((total("wire.decode") + total("wire.claim_decode")) * ms, ops),
        "wire.bytes_per_op": _per(wire_bytes, ops),
        "sessions.ms_per_op": _per(total("sessions.op") * ms, ops),
        "client.wait_ms_per_round": _per(total("client.wait") * ms, rounds),
        "trace.p50_traced_ms": traced_p50,
        "trace.overhead_share": traced_p50 / plain_p50 - 1.0,
    }


def run_auth(cfg: Config, spec: AuthSpec) -> Outcome:
    sessions = int(round(spec.sessions_per_second * cfg.seconds))
    plans = plan_sessions(cfg, spec, sessions)
    if cfg.trace:
        # Two passes (plain, then traced) of half a run each keep a traced
        # run as long as a measured one.
        plans = plans[: sessions // 2]
    warm = warmup_plans(cfg, spec)
    setups = []

    def set_up():
        fleet = build_fleet(cfg, spec, sessions, f"setup{len(setups)}")
        server = ServerProcess(cfg.work, fleet.pack, seed=cfg.seed, rounds=spec.rounds)
        setups.append((fleet.devices_seconds + fleet.pack_seconds + server.ready_seconds,
                       fleet.devices_seconds, fleet.pack_seconds, server.ready_seconds))
        return fleet, server

    # The host's speed drifts over tens of seconds, so the set-ups of a
    # measured run are split around its measured pass.
    repeats = 1 if cfg.trace else spec.setup_repeats
    for _ in range(repeats // 2):
        set_up()[1].stop()
    fleet, server = set_up()
    try:
        warm_provers(fleet, cfg.seed)
        plain = auth_pass(server, fleet, spec, plans, warm)
    finally:
        server.stop()
    for _ in range(repeats - len(setups)):
        set_up()[1].stop()
    check_auth(plain)
    layers = harness_layers(plain)
    guard(layers)
    # The median set-up (by total) and its parts; odd repeat counts only.
    chosen = sorted(setups)[len(setups) // 2]
    outcome = auth_metrics(plain, chosen[0], strict=not cfg.trace)
    outcome.layers.update(layers)
    outcome.layers.update({
        "setup.devices_s": chosen[1],
        "setup.pack_s": chosen[2],
        "setup.server_ready_s": chosen[3],
        "error_share": outcome.failed / outcome.attempted,
    })
    if cfg.trace:
        spans_path = os.path.join(cfg.work, f"{spec.name}-server-spans.json")
        recorder = tracing.Recorder()
        tracing.install_prover(recorder)
        traced_server = ServerProcess(
            cfg.work, fleet.pack, seed=cfg.seed, rounds=spec.rounds, spans_path=spans_path
        )
        try:
            traced = auth_pass(traced_server, fleet, spec, plans, warm, recorder)
        finally:
            traced_server.stop()
        check_auth(traced)
        if [r.accepted for r in traced.results] != [r.accepted for r in plain.results]:
            raise BenchFailure("traced and untraced passes disagree on verdicts")
        with open(spans_path) as handle:
            server_spans = [harness.Span.from_dict(s) for s in json.load(handle)["spans"]]
        spans = server_spans + recorder.spans
        outcome.layers.update(auth_trace_layers(spans, traced, plain))
        write_trace(cfg, spec.name, spans)
    return outcome


def write_trace(cfg: Config, workload: str, spans: List[harness.Span]) -> None:
    out = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"trace-{workload}-seed{cfg.seed}.json")
    with open(path, "w") as handle:
        json.dump({"workload": workload, "seed": cfg.seed,
                   "spans": [s.to_dict() for s in spans]}, handle)
    print(f"# trace: {len(spans)} spans -> {os.path.relpath(path, ROOT)}")


# ----------------------------------------------------------------------
# batch CRP workload
# ----------------------------------------------------------------------
BATCH_N, BATCH_L = 20, 4
BATCH_CHALLENGES = 1024  # four 256-challenge chunks: even work for 2 workers
BATCH_CALLS_PER_SECOND = 4.0
BATCH_SETS = 4  # distinct challenge sets, cycled; repeats must match bit for bit
BATCH_CHECK_ROWS = 32  # per set, compared with scalar dinic after the window
BATCH_WORKERS = 2
# One set-up is ~0.07 s and the host's speed swings over seconds, so a
# measured pass repeats the set-up after every second call, spreading the
# samples of ``setup_s`` over the whole run like those of the other metrics.
BATCH_SETUP_EVERY = 2


def _usage():
    self_ = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = self_.ru_utime + self_.ru_stime + children.ru_utime + children.ru_stime
    return cpu, (self_.ru_maxrss + children.ru_maxrss) / 1024.0


def run_batch(cfg: Config) -> Outcome:
    from repro.ppuf.batch import BatchEvaluator
    from repro.ppuf.device import Ppuf

    setups = []  # (wall, cpu) per set-up

    def set_up():
        cpu0, _ = _usage()
        started = time.perf_counter()
        device = Ppuf.create(BATCH_N, BATCH_L, _rng(cfg.seed, 1)).compile(include_circuit=False)
        evaluator = BatchEvaluator(device, workers=BATCH_WORKERS)
        setups.append((time.perf_counter() - started, _usage()[0] - cpu0))
        return device, evaluator

    device, evaluator = set_up()
    space = device.challenge_space()
    rng = _rng(cfg.seed, 2)
    sets = [[space.random(rng) for _ in range(BATCH_CHALLENGES)] for _ in range(BATCH_SETS)]
    calls = int(round(BATCH_CALLS_PER_SECOND * cfg.seconds))
    if cfg.trace:
        calls //= 2  # as for the auth workloads: two half-length passes

    def measure(recorder=None):
        """One pass of ``calls`` calls; an untraced pass also repeats the
        set-up between calls (excluded from the pass's wall and CPU)."""
        first: Dict[int, np.ndarray] = {}
        evaluator.evaluate(sets[0][:8])  # warm lazy solver caches (inline path)
        latencies, reports = [], []
        setups_before = len(setups)
        cpu0, _ = _usage()
        t0 = time.perf_counter()
        for call in range(calls):
            if recorder is None and call % BATCH_SETUP_EVERY == BATCH_SETUP_EVERY - 1:
                set_up()  # spawns no process, so RUSAGE_SELF holds its CPU
            index = call % BATCH_SETS
            start = time.perf_counter()
            if recorder is None:
                bits, report = evaluator.evaluate(sets[index])
            else:
                bits, report = recorder.call(
                    "batch.evaluate", evaluator.evaluate, (sets[index],), {}
                )
            latencies.append(time.perf_counter() - start)
            reports.append(report)
            if index in first:
                if not np.array_equal(first[index], bits):
                    raise BenchFailure(f"call {call}: bits differ from an earlier call on set {index}")
            else:
                first[index] = bits
        end = time.perf_counter()
        cpu1, rss = _usage()
        wall = end - t0 - sum(w for w, _ in setups[setups_before:])
        cpu = cpu1 - cpu0 - sum(c for _, c in setups[setups_before:])
        return latencies, reports, first, wall, cpu, rss, (t0, end)

    latencies, reports, first, wall, cpu, rss, _ = measure()
    check_batch(device, sets, first, cfg.seed)
    for report in reports:
        counters = report.stats.counters
        for key in ("runtime_worker_crashes", "runtime_pool_restarts", "runtime_tasks_failed"):
            if counters.get(key):
                raise BenchFailure(f"batch report {key} = {counters[key]}")
    rows = calls * BATCH_CHALLENGES
    p50, p90 = _percentiles([x * 1e3 for x in latencies], strict=not cfg.trace)
    outcome = Outcome(
        attempted=rows,
        failed=0,
        metrics={
            "setup_s": statistics.median(w for w, _ in setups),
            "latency_p50_ms": p50.value,
            "latency_p90_ms": p90.value,
            "throughput_per_s": rows / wall,
            "cpu_ms_per_op": cpu * 1e3 / calls,
            "success_share": 1.0,
            "peak_rss_mb": rss,
        },
        counts={
            "attempted": rows, "succeeded": rows, "failed": 0, "calls": calls,
            "setups": len(setups),
            "rows_checked_against_dinic": BATCH_SETS * BATCH_CHECK_ROWS,
            "latency_samples": p50.samples, "p90_samples_beyond": p90.beyond,
        },
    )
    outcome.layers.update({
        "setup.devices_s": statistics.median(w for w, _ in setups),
        "error_share": 0.0,
        "loadgen.cpu_share": 0.0,
        "server.cpu_share": cpu / wall,
    })
    if cfg.trace:
        recorder = tracing.Recorder()
        tracing.install_batch(recorder)
        t_lat, t_reports, t_first, _, _, _, window = measure(recorder)
        for index, bits in t_first.items():
            if not np.array_equal(bits, first[index]):
                raise BenchFailure("traced and untraced passes disagree on response bits")
        outcome.layers.update(batch_trace_layers(recorder.spans, t_reports, t_lat, latencies))
        write_trace(cfg, "batch_crp", recorder.spans)
    # The shared-memory transport started Python's resource tracker; stop
    # and reap it so the run leaves no process behind.
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    return outcome


def check_batch(device, sets, first, seed: int) -> None:
    """A seeded sample of rows per set must match scalar ``dinic``."""
    rng = _rng(seed, 5)
    for index, challenges in enumerate(sets):
        for row in rng.choice(len(challenges), size=BATCH_CHECK_ROWS, replace=False):
            expected = device.response(challenges[row], algorithm="dinic")
            if int(first[index][row]) != int(expected):
                raise BenchFailure(
                    f"set {index} row {row}: batched bit {int(first[index][row])} "
                    f"!= scalar dinic {int(expected)}"
                )


def batch_trace_layers(spans, reports, traced_latencies, plain_latencies) -> Dict[str, float]:
    by_name: Dict[str, List[harness.Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    calls = len(reports)
    ms = 1e3
    rows = sum(2 * r.challenges for r in reports)
    inits = by_name.get("pool.init", [])
    shutdowns = by_name.get("pool.shutdown", [])
    maps = by_name.get("pool.map", [])
    # Spawn: pool construction until the first chunk starts in a worker,
    # plus the shutdown that joins the workers.
    spawn = sum(m.attrs["first_task"] - i.start for i, m in zip(inits, maps)) + sum(
        s.duration for s in shutdowns
    )
    attaches = [m.attrs["attach_s"] for m in maps]
    traced_p50 = harness.percentile([x * ms for x in traced_latencies], 50).value
    plain_p50 = harness.percentile([x * ms for x in plain_latencies], 50).value
    return {
        "pool.spawn_ms_per_call": _per(spawn * ms, calls),
        "pool.queue_high_water": float(max((s.attrs["queue_high_water"] for s in shutdowns), default=0)),
        "pool.restarts": float(sum(s.attrs["restarts"] for s in shutdowns)),
        "provision.hit_share": 0.0,
        "provision.ms_per_call": _per(sum(attaches) * ms, len(attaches)),
        "provision.ship_ms_per_call": _per(
            sum(s.duration for s in by_name.get("provision.ship", [])) * ms, calls
        ),
        "batch.prepare_ms_per_call": _per(sum(r.prepare_seconds for r in reports) * ms, calls),
        "batch.solve_ms_per_call": _per(sum(r.solve_seconds for r in reports) * ms, calls),
        "batch.compare_ms_per_call": _per(sum(r.compare_seconds for r in reports) * ms, calls),
        "batched_dinic.us_per_row": _per(sum(r.solve_seconds for r in reports) * 1e6, rows),
        "trace.p50_traced_ms": traced_p50,
        "trace.overhead_share": traced_p50 / plain_p50 - 1.0,
    }
