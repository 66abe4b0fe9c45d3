"""The residual-graph authentication protocol (Sections 2 and 3.2).

The asymmetry the PPUF exploits: *finding* a max flow costs Ω(n²) even in
parallel, but *verifying* one is a residual-graph BFS, O(n²/p).  The
verifier therefore asks the prover not just for the flow value but for the
flow itself (equivalently, the residual edges); it then checks feasibility
and optimality against the public simulation model.

The roles:

* :class:`PpufProver` — holds the physical device; answers a challenge by
  executing it and returning a :class:`FlowClaim`.  (A cheating prover
  without the device must *solve* max-flow, paying the simulation time.)
* :class:`PpufVerifier` — holds only the public model (the capacities);
  checks a claim in verification time and compares the claimed value with
  the comparator-level current the authentic device would produce.

Single claims go through :meth:`PpufVerifier.verify_compact`; a verifier
that coalesces many claims (the micro-batching service) goes through
:func:`verify_compact_claims` / :meth:`PpufVerifier.verify_compact_batch`,
which run every feasibility, maximality and value check as one lockstep
pass over ``(B, E)`` edge arrays on the shared
:class:`~repro.flow.csr.CsrTopology`.  No arithmetic couples claims, so a
claim's verdict is bit-identical whether it is verified alone or coalesced
with any set of strangers — and a malformed ("poisoned") claim is trapped
per row instead of failing its neighbours.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import FlowError, VerificationError
from repro.flow import solve_max_flow, verify_max_flow
from repro.flow.csr import complete_topology, segment_reduce
from repro.flow.registry import DEFAULT_ALGORITHM, SolveStats
from repro.flow.decomposition import (
    PathFlow,
    cancel_cycles,
    decompose_flow,
    recompose_flow,
)
from repro.flow.graph import DEFAULT_RTOL
from repro.ppuf.challenge import Challenge

#: Tolerance of the feasibility/maximality checks.  The single-claim path
#: delegates to :func:`repro.flow.residual.verify_max_flow` at its default
#: ``rtol`` — the batched path pins the same constant so verdicts agree
#: bit-for-bit between the two.
FEASIBILITY_RTOL = 1e-9


@dataclass(frozen=True)
class CompactClaim:
    """A prover's answer as a path decomposition.

    O(n) paths of length ≤ n replace the dense n×n flow matrix — the wire
    format a bandwidth-conscious protocol would use.  The verifier rebuilds
    the matrix (linear in the decomposition size) and checks as usual.
    """

    challenge: Challenge
    paths: List[PathFlow]
    value: float
    elapsed_seconds: float
    algorithm: str = DEFAULT_ALGORITHM
    solve_stats: Optional[SolveStats] = None

    def to_flow_claim(self, n: int) -> "FlowClaim":
        """Expand back into the dense-matrix claim form."""
        return FlowClaim(
            challenge=self.challenge,
            flow=recompose_flow(self.paths, n),
            value=self.value,
            elapsed_seconds=self.elapsed_seconds,
            algorithm=self.algorithm,
            solve_stats=self.solve_stats,
        )


@dataclass(frozen=True)
class FlowClaim:
    """A prover's answer: the flow it claims to be maximal.

    Attributes
    ----------
    challenge:
        The challenge being answered.
    flow:
        Claimed n×n edge-flow matrix.
    value:
        Claimed max-flow value (net out of the source).
    elapsed_seconds:
        Prover-side wall-clock (execution or simulation time).
    algorithm:
        Registered solver name the prover used.
    solve_stats:
        Optional :class:`~repro.flow.registry.SolveStats` of the prover's
        solve (phase seconds + operation counts).
    """

    challenge: Challenge
    flow: np.ndarray
    value: float
    elapsed_seconds: float
    algorithm: str = DEFAULT_ALGORITHM
    solve_stats: Optional[SolveStats] = None


@dataclass
class PpufProver:
    """The device holder for one network of a PPUF.

    The physical device settles to the max-flow current in O(n) time; the
    reproduction stands in the circuit's steady state with the max-flow
    solution itself (they agree to the model inaccuracy of Fig. 6, and the
    *flow pattern* is what the verifier asks for).
    """

    network: "object"  # repro.ppuf.model.NetworkModel

    def answer(
        self,
        challenge: Challenge,
        *,
        algorithm: str = DEFAULT_ALGORITHM,
        stats: Optional[SolveStats] = None,
    ) -> FlowClaim:
        """Answer a challenge with any registered exact solver.

        The claim carries the solver name and its
        :class:`~repro.flow.registry.SolveStats`, so protocol transcripts
        and the service can attribute verify latency per algorithm.
        """
        edge_bits = self.network.crossbar.bits_for_edges(challenge.bits)
        instance = self.network.flow_network(edge_bits)
        solve_stats = stats if stats is not None else SolveStats()
        start = time.perf_counter()
        result = solve_max_flow(
            instance, challenge.source, challenge.sink,
            algorithm=algorithm, stats=solve_stats,
        )
        elapsed = time.perf_counter() - start
        return FlowClaim(
            challenge=challenge,
            flow=result.flow,
            value=result.value,
            elapsed_seconds=elapsed,
            algorithm=algorithm,
            solve_stats=solve_stats,
        )

    def answer_compact(
        self,
        challenge: Challenge,
        *,
        algorithm: str = DEFAULT_ALGORITHM,
        stats: Optional[SolveStats] = None,
    ) -> CompactClaim:
        """Answer with a path decomposition instead of the dense matrix."""
        claim = self.answer(challenge, algorithm=algorithm, stats=stats)
        # Push-relabel flows may carry cycles (same value, not path-
        # decomposable); cancel them before decomposing.
        paths = decompose_flow(
            cancel_cycles(claim.flow), challenge.source, challenge.sink
        )
        return CompactClaim(
            challenge=challenge,
            paths=paths,
            value=claim.value,
            elapsed_seconds=claim.elapsed_seconds,
            algorithm=claim.algorithm,
            solve_stats=claim.solve_stats,
        )


@dataclass(frozen=True)
class ClaimVerdict:
    """One claim's batched-verification outcome.

    ``accepted`` mirrors the boolean :meth:`PpufVerifier.verify_compact`
    returns; ``reason`` is ``None`` on acceptance and a short diagnostic
    otherwise — including the cases where the single-claim path would
    *raise* :class:`~repro.errors.VerificationError` (infeasible or
    malformed claims), because in a coalesced batch a poisoned claim must
    yield a rejection for its own row, never an exception that takes the
    neighbours down.

    ``kind`` classifies the outcome the way the service protocol does:
    ``"ok"`` (accepted), ``"incorrect"`` (feasible but sub-maximal or
    value-mismatched — the single-claim path returns ``False``) or
    ``"infeasible"`` (the single-claim path raises).  ``fault`` is ``None``
    except when the claim provoked an *unexpected* exception (anything but
    :class:`~repro.errors.VerificationError`); it then carries the error
    text so a server can count the containment as a worker fault.
    """

    accepted: bool
    reason: Optional[str] = None
    kind: str = "ok"
    fault: Optional[str] = None


def verify_compact_claims(
    network,
    claims: Sequence[CompactClaim],
    *,
    rtol: float = DEFAULT_RTOL,
) -> List[ClaimVerdict]:
    """Verify many compact claims against one network in lockstep.

    The batched sibling of :meth:`PpufVerifier.verify_compact`: per-claim
    Python work is limited to rebuilding the dense flow from its path
    decomposition and selecting the capacity row; every check then runs
    once over stacked ``(B, E)`` edge arrays —

    * feasibility: negative flow, capacity excess and conservation via
      :meth:`~repro.flow.csr.CsrTopology.edge_sums`;
    * maximality: the combined residual ``cap_e - f_e + f_opp(e)`` (the
      exact operand order of
      :func:`~repro.flow.residual.residual_capacities`, folded through the
      topology's ``opp`` mapping) followed by a level-synchronous batched
      reachability sweep;
    * value: the claimed value against the value recomputed from the
      shipped flow, at the caller's ``rtol``.

    Per-row arithmetic never couples claims, so each verdict is invariant
    to the batch composition, and any exception a claim provokes (bad
    terminals, wrong shapes, malformed paths) is caught into its own
    verdict.  Returns one :class:`ClaimVerdict` per claim, in order.
    """
    n = int(network.crossbar.n)
    topology = complete_topology(n)
    verdicts: List[Optional[ClaimVerdict]] = [None] * len(claims)
    kept: List[int] = []
    cap_rows: List[np.ndarray] = []
    flow_rows: List[np.ndarray] = []
    sources: List[int] = []
    sinks: List[int] = []
    claimed: List[float] = []
    for position, claim in enumerate(claims):
        try:
            challenge = claim.challenge
            source, sink = int(challenge.source), int(challenge.sink)
            if not (0 <= source < n and 0 <= sink < n) or source == sink:
                raise VerificationError("challenge terminals out of node range")
            edge_bits = network.crossbar.bits_for_edges(challenge.bits)
            cap_row = np.asarray(network.capacities(edge_bits), dtype=np.float64)
            try:
                flow = recompose_flow(claim.paths, n)
            except FlowError as error:
                raise VerificationError(
                    f"malformed path claim: {error}"
                ) from error
            if flow.shape != (n, n):
                raise VerificationError(
                    f"claimed flow has shape {flow.shape}; expected {(n, n)}"
                )
            # Self-loop flow can never be feasible (capacity 0); the
            # dense path catches it in the full-matrix excess check that
            # the edge extraction below would silently drop.
            tol_abs = FEASIBILITY_RTOL * max(float(cap_row.max()), 1.0)
            diagonal = np.abs(np.diagonal(flow))
            if diagonal.size and float(diagonal.max()) > tol_abs:
                raise VerificationError(
                    "infeasible claimed flow: flow on a self-loop"
                )
        except VerificationError as error:
            verdicts[position] = ClaimVerdict(False, str(error), kind="infeasible")
            continue
        except Exception as error:  # poisoned claim: isolate, don't spread
            verdicts[position] = ClaimVerdict(
                False,
                str(error),
                kind="infeasible",
                fault=f"{type(error).__name__}: {error}",
            )
            continue
        kept.append(position)
        cap_rows.append(cap_row)
        flow_rows.append(
            np.ascontiguousarray(flow[topology.edge_src, topology.edge_dst])
        )
        sources.append(source)
        sinks.append(sink)
        claimed.append(float(claim.value))
    if not kept:
        return [verdict for verdict in verdicts if verdict is not None]

    caps = np.stack(cap_rows)
    flows = np.stack(flow_rows)
    src = np.asarray(sources, dtype=np.int64)
    snk = np.asarray(sinks, dtype=np.int64)
    count = len(kept)
    rows = np.arange(count)
    tol = FEASIBILITY_RTOL * np.maximum(caps.max(axis=1), 1.0)

    negative = (flows < -tol[:, None]).any(axis=1)
    excess = ((flows - caps) > tol[:, None]).any(axis=1)
    out_sum, in_sum = topology.edge_sums(flows)
    imbalance = np.abs(in_sum - out_sum)
    imbalance[rows, src] = 0.0
    imbalance[rows, snk] = 0.0
    unbalanced = (imbalance > tol[:, None] * n).any(axis=1)
    infeasible = negative | excess | unbalanced

    # Combined residual per forward edge, then a batched BFS from each
    # claim's source over its positive-residual edges.
    residual = caps - flows + flows[:, topology.opp]
    np.clip(residual, 0.0, None, out=residual)
    open_edge = residual > tol[:, None]
    reach = np.zeros((count, n), dtype=bool)
    reach[rows, src] = True
    frontier = reach.copy()
    while True:
        offered = frontier[:, topology.edge_src] & open_edge
        fresh = segment_reduce(
            np.logical_or,
            offered[:, topology.fwd_in_order],
            topology.fwd_in_ptr,
            empty=False,
        ) & ~reach
        if not fresh.any():
            break
        reach |= fresh
        frontier = fresh
    submaximal = reach[rows, snk]

    actual = out_sum[rows, src] - in_sum[rows, src]
    value_off = np.abs(actual - np.asarray(claimed)) > rtol * np.maximum(
        np.abs(actual), 1e-30
    )

    for row, position in enumerate(kept):
        if infeasible[row]:
            verdicts[position] = ClaimVerdict(
                False, "infeasible claimed flow", kind="infeasible"
            )
        elif submaximal[row]:
            verdicts[position] = ClaimVerdict(
                False, "claimed flow is not maximal", kind="incorrect"
            )
        elif value_off[row]:
            verdicts[position] = ClaimVerdict(
                False,
                "claimed value does not match the shipped flow",
                kind="incorrect",
            )
        else:
            verdicts[position] = ClaimVerdict(True)
    return [verdict for verdict in verdicts if verdict is not None]


@dataclass
class PpufVerifier:
    """The public-model holder: verifies claims without the device."""

    network: "object"  # repro.ppuf.model.NetworkModel

    def verify(self, claim: FlowClaim, *, rtol: float = DEFAULT_RTOL) -> bool:
        """Accept iff the claimed flow is feasible, maximal and value-true.

        Raises :class:`VerificationError` on an infeasible (cheating) flow;
        returns ``False`` for a feasible but sub-maximal one.  The claimed
        value must match the shipped flow within ``rtol`` relative to the
        recomputed value — :data:`repro.flow.graph.DEFAULT_RTOL` by
        default, the same tolerance every flow comparison in this package
        uses (an honest prover's value is recomputed from its own flow
        matrix, so the default is safely tight).
        """
        edge_bits = self.network.crossbar.bits_for_edges(claim.challenge.bits)
        instance = self.network.flow_network(edge_bits)
        flow = np.asarray(claim.flow, dtype=np.float64)
        if flow.shape != instance.capacity.shape:
            raise VerificationError(
                f"claimed flow has shape {flow.shape}; expected "
                f"{instance.capacity.shape}"
            )
        try:
            optimal = verify_max_flow(
                instance, flow, [claim.challenge.source], [claim.challenge.sink]
            )
        except FlowError as error:
            raise VerificationError(f"infeasible claimed flow: {error}") from error
        if not optimal:
            return False
        # Claimed value must match the flow it ships with.
        instance.flow = flow
        actual_value = instance.flow_value(claim.challenge.source)
        scale = max(abs(actual_value), 1e-30)
        return abs(actual_value - claim.value) <= rtol * scale

    def verify_compact(self, claim: CompactClaim, *, rtol: float = DEFAULT_RTOL) -> bool:
        """Verify a path-decomposition claim.

        Rebuilds the dense flow (raising :class:`VerificationError` for
        malformed paths) and delegates to :meth:`verify`.
        """
        n = self.network.crossbar.n
        try:
            expanded = claim.to_flow_claim(n)
        except FlowError as error:
            raise VerificationError(f"malformed path claim: {error}") from error
        return self.verify(expanded, rtol=rtol)

    def verify_compact_batch(
        self,
        claims: Sequence[CompactClaim],
        *,
        rtol: float = DEFAULT_RTOL,
    ) -> List[ClaimVerdict]:
        """Verify a batch of path-decomposition claims in lockstep.

        Delegates to :func:`verify_compact_claims`; see it for the verdict
        semantics (rejections instead of exceptions, batch-composition
        invariance).
        """
        return verify_compact_claims(self.network, claims, rtol=rtol)

    def timed_verify(self, claim: FlowClaim, *, rtol: float = DEFAULT_RTOL):
        """``(accepted, verifier_seconds)`` — the asymmetry measurement."""
        start = time.perf_counter()
        accepted = self.verify(claim, rtol=rtol)
        return accepted, time.perf_counter() - start
