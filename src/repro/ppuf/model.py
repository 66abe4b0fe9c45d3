"""The public simulation model, written once.

The manufacturer publishes one model per device: per-edge capacities for
the max-flow engine and edge I–V tables for the circuit engine, each
stored as two per-bit rows (control bit 0 and 1).  Every evaluation —
capacities, flow network, max-flow or DC current, response bit — is row
selection followed by a solve, so it is written here once against a few
accessors:

* :class:`NetworkModel` needs ``crossbar``, ``edge_src``/``edge_dst``,
  ``v_supply`` and the per-bit row accessors ``_capacities_for_bit(bit)``
  and ``_table_for_bit(bit)``.  :class:`~repro.ppuf.device.PpufNetwork`
  derives the rows lazily from its variation sample;
  :class:`~repro.ppuf.compiled.CompiledNetwork` serves them from the
  artifact arrays.
* :class:`DeviceModel` needs ``crossbar``, ``network_a``, ``network_b``
  and ``comparator``.  :class:`~repro.ppuf.device.Ppuf` and
  :class:`~repro.ppuf.compiled.CompiledDevice` both subclass it.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.circuit.dc import solve_dc
from repro.circuit.table import EdgeTable
from repro.errors import ChallengeError
from repro.flow import FlowNetwork, solve_max_flow
from repro.flow.registry import DEFAULT_ALGORITHM
from repro.ppuf.batch import BATCHED_ALGORITHM, BatchEvaluator
from repro.ppuf.challenge import Challenge, ChallengeSpace
from repro.ppuf.engines import network_current


class NetworkModel:
    """Evaluation of one crossbar network from its per-bit rows."""

    # -- max-flow engine -----------------------------------------------
    def capacities(self, edge_bits: np.ndarray) -> np.ndarray:
        """Simulation-model edge capacities under a per-edge bit vector."""
        edge_bits = self._check_edge_bits(edge_bits)
        return np.where(
            edge_bits == 1, self._capacities_for_bit(1), self._capacities_for_bit(0)
        )

    def capacity_matrix(self, edge_bits: np.ndarray) -> np.ndarray:
        """Dense n×n capacity matrix of the simulation model."""
        n = self.crossbar.n
        matrix = np.zeros((n, n))
        matrix[self.edge_src, self.edge_dst] = self.capacities(edge_bits)
        return matrix

    def flow_network(self, edge_bits: np.ndarray) -> FlowNetwork:
        """The public max-flow instance for a challenge configuration."""
        return FlowNetwork.from_arrays(
            self.crossbar.n, self.edge_src, self.edge_dst, self.capacities(edge_bits)
        )

    def maxflow_current(
        self,
        edge_bits: np.ndarray,
        source: int,
        sink: int,
        *,
        algorithm: str = DEFAULT_ALGORITHM,
        stats=None,
    ) -> float:
        """Simulated source current: the max-flow value.

        ``algorithm`` may be any registered exact solver; ``stats`` is an
        optional :class:`~repro.flow.registry.SolveStats` to fill.
        """
        network = self.flow_network(edge_bits)
        result = solve_max_flow(network, source, sink, algorithm=algorithm, stats=stats)
        return result.value

    # -- circuit engine ------------------------------------------------
    def edge_table(self, edge_bits: np.ndarray) -> EdgeTable:
        """Per-challenge I–V table assembled by row selection."""
        edge_bits = self._check_edge_bits(edge_bits)
        table0 = self._table_for_bit(0)
        table1 = self._table_for_bit(1)
        select = (edge_bits == 1)[:, None]
        return EdgeTable(
            v_grid=table0.v_grid,
            currents=np.where(select, table1.currents, table0.currents),
            cocontent=np.where(select, table1.cocontent, table0.cocontent),
        )

    def circuit_current(self, edge_bits: np.ndarray, source: int, sink: int) -> float:
        """Executed source current: nonlinear DC solve of the crossbar."""
        return self.dc_solution(edge_bits, source, sink).source_current

    def dc_solution(self, edge_bits: np.ndarray, source: int, sink: int):
        """Full DC operating point (for delay/power analysis)."""
        return solve_dc(
            self.crossbar.n,
            self.edge_src,
            self.edge_dst,
            self.edge_table(edge_bits),
            source=source,
            sink=sink,
            v_supply=self.v_supply,
        )

    def _check_edge_bits(self, edge_bits) -> np.ndarray:
        edge_bits = np.asarray(edge_bits)
        if edge_bits.shape != (self.crossbar.num_edges,):
            raise ChallengeError(
                f"expected {self.crossbar.num_edges} edge bits, got {edge_bits.shape}"
            )
        return edge_bits


class DeviceModel:
    """Evaluation of a two-network device: compare the source currents."""

    @property
    def n(self) -> int:
        return self.crossbar.n

    @property
    def l(self) -> int:
        return self.crossbar.l

    def challenge_space(self) -> ChallengeSpace:
        return ChallengeSpace(self.crossbar)

    def currents(
        self,
        challenge: Challenge,
        *,
        engine: str = "maxflow",
        algorithm: str = DEFAULT_ALGORITHM,
        stats=None,
    ) -> Tuple[float, float]:
        """Source currents of the two networks for a challenge.

        ``algorithm`` names any registered exact solver (maxflow engine);
        ``stats`` is an optional :class:`~repro.flow.registry.SolveStats`
        accumulating telemetry across both network solves.
        """
        self._check_challenge(challenge)
        return (
            network_current(self.network_a, challenge, engine, algorithm=algorithm, stats=stats),
            network_current(self.network_b, challenge, engine, algorithm=algorithm, stats=stats),
        )

    def response(
        self,
        challenge: Challenge,
        *,
        engine: str = "maxflow",
        algorithm: str = DEFAULT_ALGORITHM,
        stats=None,
    ) -> int:
        """The response bit: comparator decision on the two currents."""
        current_a, current_b = self.currents(
            challenge, engine=engine, algorithm=algorithm, stats=stats
        )
        return self.comparator.compare(current_a, current_b)

    def response_bits(
        self,
        challenges,
        *,
        engine: str = "maxflow",
        algorithm: str = DEFAULT_ALGORITHM,
        stats=None,
    ) -> np.ndarray:
        """Vector of response bits for a challenge list."""
        return np.array(
            [
                self.response(c, engine=engine, algorithm=algorithm, stats=stats)
                for c in challenges
            ],
            dtype=np.uint8,
        )

    def responses(
        self,
        challenges,
        *,
        engine: str = "maxflow",
        algorithm: str = BATCHED_ALGORITHM,
        workers: int = 1,
        chunk_size: Optional[int] = None,
    ) -> np.ndarray:
        """Batched response bits: challenge matrix in, response vector out.

        The throughput path: the default ``algorithm`` solves all
        challenges of a chunk in lockstep over shared edge arrays; any
        other exact solver runs them one at a time.  See
        :class:`repro.ppuf.batch.BatchEvaluator` for the pipeline and
        :class:`repro.ppuf.batch.BatchReport` for per-stage accounting.
        """
        evaluator = BatchEvaluator(
            self,
            engine=engine,
            algorithm=algorithm,
            workers=workers,
            chunk_size=chunk_size,
        )
        bits, _ = evaluator.evaluate(challenges)
        return bits

    def _check_challenge(self, challenge: Challenge) -> None:
        if challenge.num_bits != self.crossbar.num_control_bits:
            raise ChallengeError(
                f"challenge carries {challenge.num_bits} control bits; this "
                f"PPUF expects {self.crossbar.num_control_bits}"
            )
        if not (0 <= challenge.source < self.n and 0 <= challenge.sink < self.n):
            raise ChallengeError("challenge terminals out of node range")
