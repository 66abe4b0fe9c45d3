"""Worker-side provisioning: every transport materialises the same device.

:func:`materialise_payload` accepts three transports (pack reference,
shared-memory block, pickled device); whichever one ships the
artifact, the worker must end up answering challenges with the same bits.
The LRU cache behind :func:`provision_device` is bounded and
recency-ordered, and producer-side :class:`ShippedArtifact` owns the shm
segment lifecycle.
"""

import numpy as np
import pytest

from repro.errors import ReproError
from repro.ppuf import Ppuf
from repro.ppuf.compiled import compile_ppuf
from repro.runtime import provision
from repro.runtime.provision import (
    ShippedArtifact,
    materialise_payload,
    provision_device,
    ship_compiled,
)


@pytest.fixture(scope="module")
def device():
    return Ppuf.create(8, 2, np.random.default_rng(71))


@pytest.fixture(scope="module")
def compiled(device):
    return compile_ppuf(device, include_circuit=False)


@pytest.fixture(scope="module")
def probe(device):
    space = device.challenge_space()
    rng = np.random.default_rng(72)
    return [space.random(rng) for _ in range(4)]


@pytest.fixture(autouse=True)
def fresh_cache():
    provision.clear_cache()
    yield
    provision.clear_cache()


class TestMaterialise:
    def test_device_object_passes_through(self, compiled):
        assert materialise_payload(compiled) is compiled

    def test_pickle_payload_unwraps(self, compiled):
        assert materialise_payload(("pickle", compiled)) is compiled

    def test_shm_payload_maps_same_bits(self, device, compiled, probe):
        shipped = ship_compiled(compiled, share_memory=True)
        try:
            kind, name, manifest = shipped.payload
            assert kind == "shm"
            attached = materialise_payload(shipped.payload)
            for challenge in probe:
                assert attached.response(challenge) == device.response(challenge)
        finally:
            provision.clear_cache()  # release worker-side mapping first
            shipped.close()

    def test_pack_payload_requires_device_id(self):
        with pytest.raises(ReproError, match="device id"):
            materialise_payload(("pack", "/nonexistent"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError, match="unknown worker payload"):
            materialise_payload(("warp", 1))


class TestShipping:
    def test_pickle_transport_ships_device_itself(self, compiled):
        shipped = ship_compiled(compiled, share_memory=False)
        assert shipped.payload == ("pickle", compiled)
        shipped.close()  # no shm: close is a no-op, not an error

    def test_close_is_idempotent(self, compiled):
        shipped = ship_compiled(compiled, share_memory=True)
        shipped.close()
        shipped.close()

    def test_artifact_without_shm(self, compiled):
        ShippedArtifact(("pickle", compiled)).close()


class TestCache:
    def test_lru_bound_and_recency(self, monkeypatch, compiled):
        monkeypatch.setattr(provision, "WORKER_DEVICE_CACHE_SIZE", 2)
        provision_device("a", ("pickle", compiled))
        provision_device("b", ("pickle", compiled))
        provision_device("a", ("pickle", compiled))  # refresh a
        provision_device("c", ("pickle", compiled))  # evicts b
        assert provision.cache_size() == 2
        assert list(provision._WORKER_DEVICES) == ["a", "c"]

    def test_hit_skips_materialisation(self, compiled):
        provision_device("hot", ("pickle", compiled))

        def explode(payload, device_id=None):
            raise AssertionError("cache hit must not re-materialise")

        original = provision.materialise_payload
        provision.materialise_payload = explode
        try:
            assert provision_device("hot", ("pickle", None)) is compiled
        finally:
            provision.materialise_payload = original

    def test_clear_cache_empties_everything(self, compiled):
        provision_device("x", ("pickle", compiled))
        provision.clear_cache()
        assert provision.cache_size() == 0

    def test_compiled_module_does_not_reexport_transport(self):
        # The shm transport lives in repro.runtime.provision alone; the
        # artifact module importing it back made an import cycle.
        from repro.ppuf import compiled as compiled_module

        assert not hasattr(compiled_module, "share_compiled")
        assert not hasattr(compiled_module, "attach_compiled")
