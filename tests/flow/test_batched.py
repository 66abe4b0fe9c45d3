"""The batched lockstep solver on dense capacity stacks, against the exact
per-instance solvers.

``batched_dinic_edges`` takes ``(B, E)`` tables over one shared topology;
here every ``(B, n, n)`` stack is laid out on the complete topology of
size ``n`` (absent edges become zero-capacity edges), so sparse graphs,
long paths and per-instance terminals all reach the same solver the batch
pipeline runs.
"""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.flow import (
    batched_dinic_edges,
    complete_topology,
    dinic,
    long_path_network,
    random_complete_network,
    random_sparse_network,
    verify_max_flow,
)
from repro.flow.csr import CsrTopology


def stacked(networks):
    return np.stack([network.capacity for network in networks])


def solve_stack(capacity, sources, sinks, **kwargs):
    """Solve a dense ``(B, n, n)`` stack on the complete topology."""
    topology = complete_topology(capacity.shape[1])
    table = np.ascontiguousarray(capacity[:, topology.edge_src, topology.edge_dst])
    return batched_dinic_edges(topology, table, sources, sinks, **kwargs)


def dense_flows(result, n):
    topology = complete_topology(n)
    flows = np.zeros((result.flows.shape[0], n, n))
    flows[:, topology.edge_src, topology.edge_dst] = result.flows
    return flows


def dinic_values(networks, sources, sinks):
    return np.array(
        [
            dinic(network, int(s), int(t)).value
            for network, s, t in zip(networks, sources, sinks)
        ]
    )


class TestAgainstExactSolvers:
    def test_random_complete_batch(self, rng):
        networks = [random_complete_network(8, rng) for _ in range(6)]
        result = solve_stack(stacked(networks), 0, 7)
        expected = dinic_values(networks, [0] * 6, [7] * 6)
        assert np.allclose(result.values, expected, rtol=1e-12)

    def test_random_sparse_batch_with_varied_terminals(self, rng):
        networks = [
            random_sparse_network(12, rng, density=0.4, source=b, sink=11 - b)
            for b in range(5)
        ]
        sources = np.arange(5)
        sinks = 11 - sources
        result = solve_stack(stacked(networks), sources, sinks)
        expected = dinic_values(networks, sources, sinks)
        assert np.allclose(result.values, expected, rtol=1e-12)

    def test_path_instances(self):
        # Ten-vertex paths: level graphs far deeper than the closed-form
        # depth-1/2 cases, so the lockstep DFS does the work.
        networks = [long_path_network(9, capacity=c) for c in (0.5, 2.0, 7.25)]
        result = solve_stack(stacked(networks), 0, 9)
        assert np.allclose(result.values, [0.5, 2.0, 7.25])

    def test_unreachable_sink_gives_zero(self):
        capacity = np.zeros((1, 4, 4))
        capacity[0, 0, 1] = 5.0
        result = solve_stack(capacity, 0, 3)
        assert result.values[0] == 0.0

    def test_residual_encodes_an_optimal_flow(self, rng):
        networks = [random_complete_network(7, rng) for _ in range(3)]
        result = solve_stack(stacked(networks), 0, 6)
        flows = dense_flows(result, 7)
        for b, network in enumerate(networks):
            assert verify_max_flow(network, flows[b], [0], [6])


class TestDeterminism:
    def test_instance_results_independent_of_batch_composition(self, rng):
        networks = [random_sparse_network(10, rng, density=0.5) for _ in range(6)]
        capacity = stacked(networks)
        together = solve_stack(capacity, 0, 9)
        for b in range(6):
            alone = solve_stack(capacity[b : b + 1], 0, 9)
            # Exact equality: no arithmetic couples instances, so chunking
            # a workload differently cannot perturb any result.
            assert alone.values[0] == together.values[b]
            assert np.array_equal(alone.residual[0], together.residual[b])

    def test_repeat_runs_identical(self, rng):
        capacity = stacked([random_complete_network(6, rng) for _ in range(4)])
        first = solve_stack(capacity, 0, 5)
        second = solve_stack(capacity, 0, 5)
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.residual, second.residual)


class TestBufferReuse:
    def test_residual_out_is_used_and_matches(self, rng):
        capacity = stacked([random_complete_network(6, rng) for _ in range(3)])
        buffer = np.empty((3, 2 * complete_topology(6).num_edges + 1))
        reference = solve_stack(capacity, 0, 5)
        reused = solve_stack(capacity, 0, 5, residual_out=buffer)
        assert reused.residual is buffer
        assert np.array_equal(reused.values, reference.values)

    def test_residual_out_shape_checked(self):
        capacity = np.zeros((2, 4, 4))
        capacity[:, 0, 3] = 1.0
        width = 2 * complete_topology(4).num_edges + 1
        with pytest.raises(GraphError):
            solve_stack(capacity, 0, 3, residual_out=np.empty((1, width)))
        with pytest.raises(GraphError):
            solve_stack(
                capacity, 0, 3, residual_out=np.empty((2, width), dtype=np.float32)
            )


class TestValidation:
    def test_rejects_non_stack_input(self):
        topology = complete_topology(4)
        with pytest.raises(GraphError):
            batched_dinic_edges(topology, np.zeros(topology.num_edges), 0, 3)
        with pytest.raises(GraphError):
            batched_dinic_edges(topology, np.zeros((2, topology.num_edges + 1)), 0, 3)

    def test_rejects_tiny_graphs(self):
        with pytest.raises(GraphError):
            complete_topology(1)

    def test_rejects_negative_capacity(self):
        capacity = np.zeros((1, 3, 3))
        capacity[0, 0, 1] = -1.0
        with pytest.raises(GraphError):
            solve_stack(capacity, 0, 2)

    def test_rejects_self_loop_capacity(self):
        with pytest.raises(GraphError):
            CsrTopology.build(3, np.array([0, 1]), np.array([1, 1]))

    def test_rejects_bad_terminals(self):
        capacity = np.zeros((2, 3, 3))
        with pytest.raises(GraphError):
            solve_stack(capacity, 0, 3)
        with pytest.raises(GraphError):
            solve_stack(capacity, [-1, 0], 2)
        with pytest.raises(GraphError):
            solve_stack(capacity, [0, 2], [1, 2])


class TestStats:
    def test_operation_counts_reported(self, rng):
        capacity = stacked([random_complete_network(6, rng) for _ in range(4)])
        result = solve_stack(capacity, 0, 5)
        assert result.stats["phases"] >= 1
        assert result.stats["augmentations"] >= 4
        assert result.stats["bfs_edge_visits"] > 0
