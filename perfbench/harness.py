"""The benchmark's own arithmetic: percentiles, due-time latency, send
lag, arrival schedules, span self time and ``/proc`` accounting.

Nothing here imports the program under test, so the tests in
``perfbench/test_harness.py`` can check every number the benchmark reports
without starting a server.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

#: A percentile is reported only when at least this many samples lie
#: beyond it; below that a single outlier decides the value.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Percentile:
    """One nearest-rank percentile with the sample count behind it."""

    value: float
    samples: int
    beyond: int


def percentile(values: Sequence[float], q: float) -> Percentile:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``).

    The value is the sample at rank ``ceil(q/100 * n)`` of the sorted
    samples; ``beyond`` counts the samples ranked above it.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return Percentile(float(ordered[rank - 1]), len(ordered), len(ordered) - rank)


def supported_percentile(values: Sequence[float], q: float) -> Percentile:
    """:func:`percentile`, refusing one with fewer than :data:`MIN_BEYOND`
    samples beyond it (the run was too short to report it)."""
    result = percentile(values, q)
    if result.beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q:g} of {result.samples} samples has only {result.beyond} "
            f"beyond it (need {MIN_BEYOND}); measure more operations"
        )
    return result


def due_latencies(due: Sequence[float], done: Sequence[float]) -> List[float]:
    """Open-loop latency: completion time minus the time it was *due*.

    Timing from the due time, not from the send time, charges a stall to
    every request it delays (no coordinated omission).
    """
    if len(due) != len(done):
        raise ValueError(f"{len(due)} due times for {len(done)} completions")
    latencies = []
    for due_at, done_at in zip(due, done):
        if done_at < due_at:
            raise ValueError(f"completed at {done_at} before due at {due_at}")
        latencies.append(done_at - due_at)
    return latencies


def send_lag(sent: float, due: float, *gates: float) -> float:
    """How late the generator sent a request: the send time minus the
    earliest moment it could have gone out, which is its due time or the
    latest of ``gates`` (its connection freed, the previous reply in a
    strict send order), whichever came last.

    Waiting for a gate is the program's doing; everything after the last
    gate (a late wake-up, an event loop busy with prover compute) is the
    generator's.  Overdue requests count too: they are the ones where the
    generator may be setting the pace.
    """
    return max(0.0, sent - max((due, *gates)))


def arrival_schedule(rng: np.random.Generator, count: int, seconds: float) -> List[float]:
    """``count`` seeded arrival offsets in ``[0, seconds)``, ascending.

    Sorted uniform draws are a Poisson process conditioned on its count:
    arrivals stay bursty, but every seed offers exactly ``count /
    seconds`` requests per second, so throughput does not move with the
    seed.
    """
    if count < 1 or seconds <= 0:
        raise ValueError("a schedule needs count >= 1 and seconds > 0")
    return sorted(float(t) for t in rng.uniform(0.0, seconds, size=count))


def pick_positions(rng: np.random.Generator, count: int, chosen: int,
                   exclude: Iterable[int] = ()) -> List[int]:
    """Exactly ``chosen`` seeded positions out of ``range(count)``."""
    pool = sorted(set(range(count)) - set(exclude))
    if chosen > len(pool):
        raise ValueError(f"cannot pick {chosen} of {len(pool)} positions")
    return sorted(int(i) for i in rng.choice(pool, size=chosen, replace=False))


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One timed call at a layer boundary (``perf_counter`` seconds)."""

    span_id: str
    name: str
    start: float
    end: float
    parent: Optional[str] = None
    session: Optional[str] = None
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "session": self.session,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(
            data["id"], data["name"], data["start"], data["end"],
            data.get("parent"), data.get("session"), dict(data.get("attrs") or {}),
        )


def covered(intervals: Iterable[tuple], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time per span id: duration minus the part its children cover.

    Overlapping children (concurrent awaits) are counted once, and a child
    that outlives its parent only counts inside the parent's interval.
    """
    children: Dict[str, list] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: span.duration
        - covered(children.get(span.span_id, ()), span.start, span.end)
        for span in spans
    }


@dataclass
class LayerTotals:
    """Per span name: call count, summed duration and summed self time."""

    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0


def layer_totals(spans: Sequence[Span]) -> Dict[str, LayerTotals]:
    selfs = self_times(spans)
    totals: Dict[str, LayerTotals] = {}
    for span in spans:
        entry = totals.setdefault(span.name, LayerTotals())
        entry.calls += 1
        entry.seconds += span.duration
        entry.self_seconds += selfs[span.span_id]
    return totals


# ----------------------------------------------------------------------
# /proc accounting
# ----------------------------------------------------------------------
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat") as handle:
        text = handle.read()
    # The command name may hold spaces and parentheses: split after the
    # last ')' — the fields from there on start with the state (field 3).
    return text[text.rindex(")") + 2:].split()


def process_cpu_seconds(pid: int) -> float:
    """User plus system CPU of one live process (not its children)."""
    fields = _stat_fields(pid)
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def process_tree(root: int) -> List[int]:
    """``root`` and every live descendant, found through ``/proc``."""
    parents: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            ppid = int(_stat_fields(int(entry))[1])
        except (OSError, ValueError, IndexError):
            continue  # exited while we scanned
        parents.setdefault(ppid, []).append(int(entry))
    tree, frontier = [root], [root]
    while frontier:
        frontier = [child for pid in frontier for child in parents.get(pid, [])]
        tree.extend(frontier)
    return tree


def tree_cpu_seconds(root: int) -> Dict[int, float]:
    """CPU seconds per live process of ``root``'s tree."""
    usage = {}
    for pid in process_tree(root):
        try:
            usage[pid] = process_cpu_seconds(pid)
        except (OSError, ValueError, IndexError):
            continue
    return usage


def cpu_delta(before: Dict[int, float], after: Dict[int, float]) -> float:
    """CPU a process tree spent between two :func:`tree_cpu_seconds` reads.

    A process that appeared in between (a pool worker forked mid-window)
    counts from zero; one that vanished contributes nothing after its
    last read.
    """
    return sum(seconds - before.get(pid, 0.0) for pid, seconds in after.items())


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Summed peak resident set (``VmHWM``) of live processes [MiB]."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0
