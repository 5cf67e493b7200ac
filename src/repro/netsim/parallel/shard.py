"""What a shard worker needs to compile its slice of a graph scenario.

A shard is an ordinary :class:`~repro.scenario.builder.Scenario` built by
the one graph compiler, :func:`~repro.scenario.builder.build` →
:func:`~repro.netsim.graph.build_graph`, with a :class:`ShardSlice` that
restricts it to the nodes the partition assigned to this shard.  Everything
that feeds the determinism contract is derived from *global* declaration
indices, never local ones — default host addresses, ingress drain ranks,
link RNG seeds, link ports, app/workload labels and workload RNG streams —
so a shard builds its slice byte-identically to how the single-process
build builds those same objects.

Cut links are owned by the *sending* side as
:class:`~repro.netsim.parallel.boundary.BoundaryLink` stubs; the receiving
side records the destination node's ingress sequencer under the link's
global index (``GraphNet.inbound``).  Peers of address-only apps/workloads
that live on another shard resolve to :class:`RemoteHost` proxies (name +
addr and nothing else — anything that actually needs the live object was
colocated by the partitioner, or fails loudly at build time).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from .partition import Partition

__all__ = ["RemoteHost", "ShardSlice"]


@dataclass
class RemoteHost:
    """Address-only stand-in for a host simulated on another shard."""

    name: str
    addr: str
    #: Probes skip hosts without a CM; a proxy never has one.
    cm = None
    costs = None


@dataclass
class ShardSlice:
    """The part of a graph one worker builds, and its cross-shard plumbing."""

    part: Partition
    index: int
    #: The full-graph routing table, computed once by the coordinator —
    #: routing is a pure function of the global link set, so no shard
    #: recomputes it.
    next_hops: Dict[str, Dict[str, str]]
    #: Cross-shard emissions accumulated during a window:
    #: ``(deliver_ts, global_link_index, seq, wire_tuple)``.
    outbox: List[Tuple] = field(default_factory=list)

    def is_local(self, node_name: str) -> bool:
        return self.part.shard_of[node_name] == self.index
