"""Compiled artifacts versus the rebuild-everything legacy paths.

Two wins the compiled pipeline (repro.ppuf.compiled) must deliver, both
measured here on the paper-scale 16-node crossbar:

* **Cold-claim verification** — a verifier starting from the enrolled
  description pays ``ppuf_from_dict`` plus the lazy per-edge capacity
  derivation before its first residual check; one starting from a
  persisted artifact (``<device_id>.npz``) just maps flat arrays.
* **Multi-process fan-out** — pool workers receiving the device as a
  shared-memory artifact map the tables (zero copies, kilobyte manifest
  pickle) instead of unpickling a device and re-deriving caches per
  worker.

Identical bits are asserted in both comparisons; the conformance suite
(tests/ppuf/test_compiled_conformance.py) pins the equivalence at scale.

Run with ``pytest benchmarks/bench_compiled.py --benchmark-only -s``.
"""

import pickle
import time

import numpy as np
import pytest

from repro.ppuf import BatchEvaluator, Ppuf
from repro.ppuf.io import load_compiled, ppuf_from_dict, ppuf_to_dict, save_compiled
from repro.ppuf.verification import PpufProver, PpufVerifier
from repro.runtime.provision import attach_compiled, share_compiled

NODES = 16
GRID = 4
CHALLENGES = 256
WORKERS = 2


@pytest.fixture(scope="module")
def device():
    return Ppuf.create(NODES, GRID, np.random.default_rng(2016))


@pytest.fixture(scope="module")
def challenges(device):
    return device.challenge_space().random_batch(
        CHALLENGES, np.random.default_rng(7)
    )


def test_cold_claim_verify_faster_from_artifact(benchmark, device, challenges, tmp_path):
    public = ppuf_to_dict(device)
    artifact_path = str(tmp_path / "device.npz")
    save_compiled(device.compile(include_circuit=False), artifact_path)
    claim = PpufProver(device.network_a).answer_compact(challenges[0])

    def cold_verify_legacy():
        # What a verification worker pays on a cache miss today: rebuild
        # from the public dict, then derive both per-bit capacity caches
        # on the way to the residual check.
        rebuilt = ppuf_from_dict(public)
        return PpufVerifier(rebuilt.network_a).verify_compact(claim)

    def cold_verify_compiled():
        loaded = load_compiled(artifact_path)
        return PpufVerifier(loaded.network_a).verify_compact(claim)

    start = time.perf_counter()
    assert cold_verify_legacy()
    legacy_seconds = time.perf_counter() - start

    start = time.perf_counter()
    assert cold_verify_compiled()
    compiled_seconds = time.perf_counter() - start

    benchmark.pedantic(cold_verify_compiled, rounds=3, iterations=1)
    print(
        f"\ncold-claim verify  legacy (dict + cache derivation): "
        f"{legacy_seconds * 1e3:.1f} ms   compiled (npz map): "
        f"{compiled_seconds * 1e3:.1f} ms   "
        f"speedup: {legacy_seconds / compiled_seconds:.1f}x"
    )
    assert compiled_seconds < legacy_seconds


def test_worker_fanout_faster_over_shared_memory(device, challenges):
    # Cold start on a larger crossbar, where the per-edge cache derivation
    # each legacy worker repeats is substantive.  The legacy device is
    # rebuilt from its public dict per repetition: under the fork start
    # method a warmed parent would smuggle its caches into the children
    # for free, hiding exactly the cost the artifact removes — a fresh
    # CLI or service invocation has no such warm parent.
    big = Ppuf.create(32, 4, np.random.default_rng(2032))
    public = ppuf_to_dict(big)
    fanout_challenges = big.challenge_space().random_batch(
        128, np.random.default_rng(8)
    )
    compiled = big.compile(include_circuit=False)
    inline_bits, _ = BatchEvaluator(big).evaluate(fanout_challenges)

    def best_of(make, reps=3):
        best, bits = float("inf"), None
        for _ in range(reps):
            start = time.perf_counter()
            bits, _ = make().evaluate(fanout_challenges)
            best = min(best, time.perf_counter() - start)
        return best, bits

    pickle_seconds, pickle_bits = best_of(
        lambda: BatchEvaluator(
            ppuf_from_dict(public),
            workers=WORKERS,
            chunk_size=32,
            share_memory=False,
        )
    )
    shm_seconds, shm_bits = best_of(
        lambda: BatchEvaluator(compiled, workers=WORKERS, chunk_size=32)
    )

    device_pickle = len(pickle.dumps(big))
    artifact_pickle = len(pickle.dumps(compiled))
    print(
        f"\n{WORKERS}-worker cold fan-out (n=32, 128 challenges, min of 3)  "
        f"legacy pickle transport: {pickle_seconds:.3f} s   "
        f"shared-memory transport: {shm_seconds:.3f} s   "
        f"speedup: {pickle_seconds / shm_seconds:.2f}x"
    )
    print(
        f"wire weight  device pickle: {device_pickle} B   "
        f"compiled artifact pickle: {artifact_pickle} B   "
        f"shm manifest: header + offsets only"
    )
    assert np.array_equal(pickle_bits, inline_bits)
    assert np.array_equal(shm_bits, inline_bits)
    assert shm_seconds < pickle_seconds


def test_shared_tables_are_mapped_not_copied(device):
    compiled = device.compile(include_circuit=False)
    shm, manifest = share_compiled(compiled)
    try:
        attached, worker_shm = attach_compiled(shm.name, manifest)
        try:
            block = np.frombuffer(worker_shm.buf, dtype=np.uint8)
            assert np.shares_memory(attached.cap0, block)
            assert np.shares_memory(attached.cap1, block)
            print(
                f"\nshared block: {shm.size} B for "
                f"{compiled.num_edges} edges x 2 networks x 2 bit tables "
                f"(+ index arrays); worker views alias it, no copies"
            )
        finally:
            del attached, block
            worker_shm.close()
    finally:
        shm.close()
        shm.unlink()
