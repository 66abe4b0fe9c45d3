"""One evaluation surface: live and compiled devices share every method.

The public simulation model is a single object in the paper; here the live
device (rows derived from the variation sample) and the compiled artifact
(rows served from flat arrays) must run the *same* evaluation code, not
two copies kept in step by convention.
"""

import pytest

from repro.ppuf.compiled import CompiledDevice, CompiledNetwork
from repro.ppuf.device import Ppuf, PpufNetwork

NETWORK_METHODS = (
    "capacities",
    "capacity_matrix",
    "flow_network",
    "maxflow_current",
    "edge_table",
    "circuit_current",
    "dc_solution",
)

DEVICE_METHODS = (
    "n",
    "l",
    "challenge_space",
    "currents",
    "response",
    "response_bits",
    "responses",
    "_check_challenge",
)


@pytest.mark.parametrize("name", NETWORK_METHODS)
def test_network_method_defined_once(name):
    assert getattr(PpufNetwork, name) is getattr(CompiledNetwork, name)


@pytest.mark.parametrize("name", DEVICE_METHODS)
def test_device_method_defined_once(name):
    assert getattr(Ppuf, name) is getattr(CompiledDevice, name)


def test_live_network_derives_rows_lazily():
    # A max-flow-only user must never pay for the I-V tables.
    import numpy as np

    device = Ppuf.create(6, 2, np.random.default_rng(3))
    device.response(device.challenge_space().random(np.random.default_rng(4)))
    assert set(device.network_a._capacities) == {0, 1}
    assert device.network_a._tables == {}
