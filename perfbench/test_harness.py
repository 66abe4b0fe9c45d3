"""Tests for the benchmark's own arithmetic.

    python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from perfbench import harness
from perfbench.harness import Span
from perfbench.tracing import TimedChunk, TracedResults

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def test_percentile_is_nearest_rank_with_sample_count():
    values = list(range(1, 101))  # 1..100
    p50 = harness.percentile(values, 50)
    assert (p50.value, p50.samples, p50.beyond) == (50.0, 100, 50)
    p90 = harness.percentile(values, 90)
    assert (p90.value, p90.beyond) == (90.0, 10)
    assert harness.percentile(values, 100).value == 100.0


def test_percentile_ignores_input_order():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert harness.percentile(values, 50).value == 3.0
    assert harness.percentile(values, 60).value == 3.0  # rank ceil(3.0) = 3
    assert harness.percentile(values, 61).value == 4.0  # rank ceil(3.05) = 4


def test_supported_percentile_needs_ten_beyond():
    assert harness.supported_percentile(list(range(100)), 90).beyond == 10
    with pytest.raises(ValueError, match="only 9 beyond"):
        harness.supported_percentile(list(range(99)), 90)


@pytest.mark.parametrize("bad", [0, -1, 100.5])
def test_percentile_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        harness.percentile([1.0], bad)
    with pytest.raises(ValueError):
        harness.percentile([], 50)


# ----------------------------------------------------------------------
# open-loop timing
# ----------------------------------------------------------------------
def test_due_latency_counts_from_due_time():
    # Request 2 was due at 0.1 but the generator only got to it at 0.5:
    # its latency includes the 0.4 s stall, not just its own 0.1 s.
    due = [0.0, 0.1, 0.2]
    done = [0.05, 0.6, 0.65]
    assert harness.due_latencies(due, done) == pytest.approx([0.05, 0.5, 0.45])


def test_due_latency_rejects_time_travel_and_mismatch():
    with pytest.raises(ValueError):
        harness.due_latencies([1.0], [0.5])
    with pytest.raises(ValueError):
        harness.due_latencies([1.0, 2.0], [3.0])


def test_send_lag_counts_from_the_last_gate():
    # Due at 1.0 with everything ready: a late wake-up is lag.
    assert harness.send_lag(1.002, 1.0, 0.5, 0.8) == pytest.approx(0.002)
    # Overdue because the program held the connection until 1.3: the
    # wait is not lag, only the 0.5 ms after the connection came back.
    assert harness.send_lag(1.3005, 1.0, 1.3, 0.9) == pytest.approx(0.0005)
    # Overdue with every gate open since 0.95: the generator was busy for
    # 0.2 s after the session was due, and all of it counts.
    assert harness.send_lag(1.2, 1.0, 0.9, 0.95) == pytest.approx(0.2)
    # A timer that fires a hair early is not negative lag.
    assert harness.send_lag(0.9999999, 1.0) == 0.0


def test_arrival_schedule_is_seeded_sorted_and_exact():
    first = harness.arrival_schedule(np.random.default_rng(7), 500, 25.0)
    again = harness.arrival_schedule(np.random.default_rng(7), 500, 25.0)
    other = harness.arrival_schedule(np.random.default_rng(8), 500, 25.0)
    assert first == again and first != other
    assert len(first) == 500 and first == sorted(first)
    assert 0.0 <= first[0] and first[-1] < 25.0


def test_pick_positions_exact_count_and_exclusion():
    rng = np.random.default_rng(3)
    picked = harness.pick_positions(rng, 100, 10, exclude=range(0, 100, 2))
    assert len(picked) == 10 and all(i % 2 for i in picked)
    with pytest.raises(ValueError):
        harness.pick_positions(rng, 4, 5)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def _span(span_id, start, end, parent=None, name="x"):
    return Span(span_id, name, start, end, parent)


def test_self_time_subtracts_children():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 3.0, "root"),
        _span("b", 5.0, 6.0, "root"),
        _span("a1", 1.5, 2.0, "a"),
    ]
    selfs = harness.self_times(spans)
    assert selfs["root"] == pytest.approx(7.0)
    assert selfs["a"] == pytest.approx(1.5)
    assert selfs["b"] == pytest.approx(1.0)
    assert selfs["a1"] == pytest.approx(0.5)


def test_self_time_counts_overlapping_children_once_and_clips():
    spans = [
        _span("root", 0.0, 10.0),
        _span("c1", 2.0, 6.0, "root"),
        _span("c2", 4.0, 8.0, "root"),  # concurrent with c1
        _span("late", 9.0, 12.0, "root"),  # outlives its parent
    ]
    assert harness.self_times(spans)["root"] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_totals_sum_per_name():
    spans = [
        _span("r", 0.0, 4.0, name="outer"),
        _span("i1", 0.0, 1.0, "r", name="inner"),
        _span("i2", 2.0, 3.0, "r", name="inner"),
    ]
    totals = harness.layer_totals(spans)
    assert totals["inner"].calls == 2
    assert totals["inner"].seconds == pytest.approx(2.0)
    assert totals["outer"].self_seconds == pytest.approx(2.0)


def test_span_round_trips_through_json():
    span = Span("1-2", "pool.run", 1.0, 2.5, "1-1", "abc", {"task_s": 0.5})
    assert Span.from_dict(json.loads(json.dumps(span.to_dict()))) == span


def test_traced_results_keep_spans_across_pickle():
    # Worker spans ride back on the task's result list: the pickle must
    # keep both the items and the attributes.
    result = TracedResults([(True, "ok", 0.1, None)])
    result.spans = [_span("9-0", 0.0, 1.0)]
    result.task_seconds = 1.0
    back = pickle.loads(pickle.dumps(result))
    assert list(back) == [(True, "ok", 0.1, None)]
    assert back.spans[0].span_id == "9-0" and back.task_seconds == 1.0
    chunk = TimedChunk((np.zeros(2), "stats"))
    chunk.start, chunk.init = 1.0, (0.5, 0.9)
    back_chunk = pickle.loads(pickle.dumps(chunk))
    assert back_chunk[1] == "stats" and back_chunk.init == (0.5, 0.9)


# ----------------------------------------------------------------------
# /proc accounting
# ----------------------------------------------------------------------
BURNER = r"""
import os, time
def burn(seconds):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass
pid = os.fork()
if pid == 0:                      # the "pool worker"
    burn(0.6)
    print("child-done", flush=True)
    time.sleep(30)
    os._exit(0)
burn(0.3)                         # the "server"
print(pid, flush=True)
time.sleep(30)
"""


def test_tree_cpu_counts_server_and_worker():
    process = subprocess.Popen(
        [sys.executable, "-c", BURNER], stdout=subprocess.PIPE, text=True
    )
    child = None
    try:
        before = {process.pid: 0.0}
        lines = [process.stdout.readline().strip() for _ in range(2)]
        child = int(next(line for line in lines if line.isdigit()))
        assert child in harness.process_tree(process.pid)
        after = harness.tree_cpu_seconds(process.pid)
        assert set(after) >= {process.pid, child}
        # The worker was forked mid-window: it counts from zero.
        spent = harness.cpu_delta(before, after)
        assert 0.85 <= spent <= 1.5
        assert after[child] >= 0.55
        assert harness.peak_rss_mb([process.pid, child]) > 1.0
    finally:
        if child is not None:
            os.kill(child, signal.SIGKILL)
        process.kill()
        process.wait()
        process.stdout.close()


def test_cpu_delta_drops_vanished_processes():
    assert harness.cpu_delta({1: 2.0, 2: 5.0}, {1: 3.5, 3: 0.25}) == pytest.approx(1.75)


def test_process_cpu_seconds_parses_own_stat():
    start = harness.process_cpu_seconds(os.getpid())
    end = time.process_time() + 0.2
    while time.process_time() < end:
        pass
    assert harness.process_cpu_seconds(os.getpid()) - start >= 0.15


# ----------------------------------------------------------------------
# the contract file
# ----------------------------------------------------------------------
def test_benchmark_json_matches_the_contract_shape():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert {w["name"] for w in spec["workloads"]} == {
        "auth_serial", "auth_open", "batch_crp"
    }
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
