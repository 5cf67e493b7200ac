"""Delay-weighted graph partitioning with union-find bookkeeping.

The heuristic is greedy agglomerative min-cut: sort the undirected links by
one-way delay ascending and union endpoints while the merged component stays
under the per-shard capacity, so the *short*-delay links end up internal and
the cut falls across the longest-delay edges it can.  That directly maximises
the conservative lookahead window (the minimum cut-link delay) the barrier
synchronization in :mod:`.runner` advances by.

Everything here is deterministic and declaration-order invariant: ties are
broken by node *names*, never by list positions, so permuting the ``nodes:``
or ``links:`` blocks of a spec yields the identical partition (pinned by
hypothesis property tests).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

__all__ = ["Partition", "UnionFind", "partition_graph"]


class UnionFind:
    """Array-based disjoint-set union: path halving + union by size.

    The sequential workhorse behind the partitioner's component bookkeeping
    (the concurrent DSU literature — Jayanti/Tarjan — starts from exactly
    this structure; one process is all we need at spec-compile time).
    """

    __slots__ = ("parent", "size")

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        """Merge the sets holding ``a`` and ``b``; False if already merged."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


@dataclass(frozen=True)
class Partition:
    """Node→shard assignment plus the cut-link set and its lookahead floor."""

    #: Effective shard count (may be lower than requested when the graph
    #: cannot be split that many ways; 1 means run single-process).
    shards: int
    #: Every node name → shard index, exactly one shard per node.
    shard_of: Dict[str, int] = field(default_factory=dict)
    #: Cut links as name pairs ``(min(a,b), max(a,b))``.
    cut_pairs: FrozenSet[Tuple[str, str]] = frozenset()
    #: Minimum one-way delay over the cut links — the conservative
    #: synchronization window.  ``None`` when nothing is cut.
    lookahead: Optional[float] = None

    def is_cut(self, a: str, b: str) -> bool:
        pair = (a, b) if a < b else (b, a)
        return pair in self.cut_pairs

    def members(self, shard: int) -> List[str]:
        return [name for name, s in self.shard_of.items() if s == shard]


def _affinity_pairs(spec) -> List[Tuple[str, str]]:
    """Host/peer pairs that must share a shard.

    Apps and workloads whose class sets ``colocate_peer`` reach into the live
    peer object (install a listener on it, ...) — an address-only proxy is
    not enough, so the partitioner hard-unions those pairs before looking at
    any link.
    """
    from ...scenario.applications import get_application

    pairs: List[Tuple[str, str]] = []
    for app_spec in spec.apps:
        if app_spec.peer and get_application(app_spec.app).colocate_peer:
            pairs.append((app_spec.host, app_spec.peer))
    if spec.workloads:
        from ...workloads import get_workload

        for workload_spec in spec.workloads:
            if workload_spec.peer and get_workload(workload_spec.kind).colocate_peer:
                pairs.append((workload_spec.host, workload_spec.peer))
    return pairs


def partition_graph(spec, shards: int) -> Partition:
    """Partition ``spec.graph`` into at most ``shards`` shards.

    ``spec`` must have a graph; :meth:`ScenarioSpec.shard_count
    <repro.scenario.spec.ScenarioSpec.shard_count>` is the check callers run
    first.

    Three deterministic phases:

    1. **Affinity pre-unions** — colocation pairs from :func:`_affinity_pairs`
       are merged unconditionally (exempt from capacity: correctness beats
       balance).
    2. **Greedy delay clustering** — undirected links sorted ascending by
       ``(delay, min(a, b), max(a, b))`` (names, so declaration order is
       irrelevant); endpoints are unioned while the merged component fits the
       per-shard capacity ``ceil(n / shards)``.  Long-delay links are seen
       last and tend to stay cut — the lookahead window is their minimum.
    3. **Bin packing** — resulting components, sorted by (size descending,
       lexicographically smallest member), go to the least-loaded shard
       (lowest index on ties).

    Raises :class:`~repro.scenario.spec.SpecError` if any cut link has zero
    one-way delay (no lookahead → conservative sync cannot make progress).
    Falls back to a single-shard partition when the graph cannot be split.
    """
    from ...scenario.spec import SpecError

    graph = spec.graph
    names = [node.name for node in graph.nodes]
    index_of = {name: i for i, name in enumerate(names)}
    n = len(names)
    shards = max(1, min(int(shards), n))
    if shards == 1:
        return Partition(1, {name: 0 for name in names})

    # A scheduled reroute can lower a link's delay mid-run, and the
    # conservative window must stay safe across the whole run — so both the
    # clustering weights and the lookahead use each pair's *minimum* delay
    # over its lifetime (declared value and every reroute that targets it).
    effective_delay: Dict[Tuple[str, str], float] = {}
    for link in graph.links:
        pair = (link.a, link.b) if link.a < link.b else (link.b, link.a)
        effective_delay[pair] = link.delay
    for reroute in graph.reroutes:
        pair = (reroute.a, reroute.b) if reroute.a < reroute.b else (reroute.b, reroute.a)
        effective_delay[pair] = min(effective_delay[pair], reroute.delay)

    def pair_delay(a: str, b: str) -> float:
        return effective_delay[(a, b) if a < b else (b, a)]

    uf = UnionFind(n)
    for host, peer in _affinity_pairs(spec):
        uf.union(index_of[host], index_of[peer])
    capacity = math.ceil(n / shards)
    for link in sorted(
        graph.links,
        key=lambda l: (pair_delay(l.a, l.b), min(l.a, l.b), max(l.a, l.b)),
    ):
        ra, rb = uf.find(index_of[link.a]), uf.find(index_of[link.b])
        if ra != rb and uf.size[ra] + uf.size[rb] <= capacity:
            uf.union(ra, rb)

    components: Dict[int, List[str]] = {}
    for i, name in enumerate(names):
        components.setdefault(uf.find(i), []).append(name)
    groups = sorted(components.values(), key=lambda members: (-len(members), min(members)))
    if len(groups) == 1:
        return Partition(1, {name: 0 for name in names})
    shard_count = min(shards, len(groups))
    loads = [0] * shard_count
    shard_of: Dict[str, int] = {}
    for members in groups:
        target = min(range(shard_count), key=lambda s: (loads[s], s))
        for member in members:
            shard_of[member] = target
        loads[target] += len(members)

    cut_pairs = set()
    lookahead: Optional[float] = None
    for link in graph.links:
        if shard_of[link.a] != shard_of[link.b]:
            delay = pair_delay(link.a, link.b)
            if delay <= 0.0:
                raise SpecError(
                    "engine.shards",
                    f"cut link {link.a!r}–{link.b!r} has zero one-way delay "
                    "(declared or after a scheduled reroute): conservative "
                    "sync needs delay > 0 on every cross-shard link "
                    "(colocate the endpoints or give the link a delay)",
                )
            cut_pairs.add((link.a, link.b) if link.a < link.b else (link.b, link.a))
            lookahead = delay if lookahead is None else min(lookahead, delay)
    if not cut_pairs:
        # Affinity/capacity left everything reachable inside one shard's
        # components only in theory; with >= 2 shards there is always a cut,
        # but guard the degenerate case anyway.
        return Partition(1, {name: 0 for name in names})
    return Partition(shard_count, shard_of, frozenset(cut_pairs), lookahead)
