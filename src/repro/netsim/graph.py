"""Arbitrary-graph topologies with static shortest-path routing.

:func:`build_graph` generalises :func:`~repro.netsim.channel.build_dumbbell`:
instead of one fixed shape it wires any set of named hosts and routers
connected by bidirectional links, computes static shortest-path routes and
installs them into the per-node routing tables the existing
:class:`~repro.iplayer.ip.IPLayer` forwarding consumes.  Parking lots,
stars, multi-bottleneck meshes — anything expressible as a graph — compile
into the same :class:`~repro.netsim.node.Host` / :class:`~repro.netsim.link.Link`
machinery every experiment already runs on.

Routing is computed once, at build time (the paper's testbeds were statically
routed, and dynamic routing would perturb the congestion dynamics under
study).  :func:`shortest_path_next_hops` is a pure function of the link set:

* the path metric is ``(total one-way delay, hop count, path names)``, so
  lower-latency routes win, equal-latency routes prefer fewer hops, and any
  remaining tie breaks on the lexicographic node-name sequence;
* because every tie-break is by *name*, the table is invariant under
  permutations of the node/link declaration order — a property the
  hypothesis test layer locks down.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from .engine import Simulator
from .ingress import IngressSequencer
from .link import Link
from .node import Host, Router

__all__ = ["GraphNet", "shortest_path_next_hops", "build_graph", "install_routes"]


def shortest_path_next_hops(
    edges: Mapping[Tuple[str, str], float],
) -> Dict[str, Dict[str, str]]:
    """Static next-hop tables for a directed, delay-weighted edge set.

    ``edges`` maps ``(a, b)`` to the one-way propagation delay of the
    directed link from ``a`` to ``b``.  Returns ``table[src][dst] ->
    next_hop_name`` for every reachable ``dst != src``; unreachable
    destinations are simply absent.

    Deterministic and declaration-order independent: nodes and neighbours
    are visited in sorted-name order and path ties break on
    ``(delay, hops, lexicographic path)``.
    """
    adjacency: Dict[str, List[Tuple[str, float]]] = {}
    for (a, b), delay in edges.items():
        adjacency.setdefault(a, []).append((b, float(delay)))
        adjacency.setdefault(b, [])
    for neighbours in adjacency.values():
        neighbours.sort()

    table: Dict[str, Dict[str, str]] = {}
    for source in sorted(adjacency):
        # Dijkstra keyed by the full (delay, hops, path-names) triple: the
        # heap order *is* the path preference order, so the first time a
        # node is popped its best path is final.
        best: Dict[str, Tuple[float, int, Tuple[str, ...]]] = {}
        heap: List[Tuple[float, int, Tuple[str, ...]]] = [(0.0, 0, (source,))]
        while heap:
            delay, hops, path = heapq.heappop(heap)
            node = path[-1]
            if node in best:
                continue
            best[node] = (delay, hops, path)
            for neighbour, edge_delay in adjacency.get(node, ()):
                if neighbour not in best:
                    heapq.heappush(heap, (delay + edge_delay, hops + 1, path + (neighbour,)))
        table[source] = {
            dst: path[1] for dst, (_delay, _hops, path) in best.items() if dst != source
        }
    return table


@dataclass
class GraphNet:
    """The node and link handles returned by :func:`build_graph`."""

    #: Every node in declaration order (hosts and routers).
    nodes: Dict[str, Host]
    #: End systems only — the nodes applications may run on.
    hosts: Dict[str, Host]
    #: Directed links, keyed ``(from, to)``, in declaration order
    #: (forward then reverse per declared link).
    links: Dict[Tuple[str, str], Link] = field(default_factory=dict)
    #: ``next_hops[node][dst_node] -> neighbour`` (name level, for tests
    #: and debugging; the installed routes are keyed by address).
    next_hops: Dict[str, Dict[str, str]] = field(default_factory=dict)
    #: Per-node ingress sequencers (same-timestamp delivery ordering; see
    #: :mod:`repro.netsim.ingress`).  Links deliver through these, not
    #: straight into ``node.ip.receive``.
    ingress: Dict[str, IngressSequencer] = field(default_factory=dict)
    #: The directed delay-weighted edge set routing was computed from —
    #: kept so mid-run reroutes can recompute the tables incrementally.
    edges: Dict[Tuple[str, str], float] = field(default_factory=dict)
    #: Every host's address, including hosts simulated on other shards —
    #: the route destinations (re)installed into the local nodes.
    host_addrs: Dict[str, str] = field(default_factory=dict)
    #: Shard builds only: global directed index of each link whose source
    #: lives on another shard → the local destination's ingress sequencer,
    #: where the coordinator injects that link's deliveries.
    inbound: Dict[int, IngressSequencer] = field(default_factory=dict)

    def link(self, a: str, b: str) -> Link:
        """The directed link from node ``a`` to node ``b``."""
        return self.links[(a, b)]

    def apply_reroute(self, a: str, b: str, delay: float) -> None:
        """Change the cost of the ``a <-> b`` link mid-run and re-route.

        Sets both directions' propagation delay to ``delay``, recomputes the
        shortest-path tables over the updated edge set and reinstalls every
        node's routes (``add_route`` overwrites by destination address, so
        stale next-hops are simply replaced).  Packets already propagating
        keep their old arrival times — the link's no-overtake clamp ensures
        a shortened wire never reorders them.
        """
        delay = float(delay)
        for pair in ((a, b), (b, a)):
            self.edges[pair] = delay
            link = self.links.get(pair)
            if link is not None:
                link.delay = delay
        self.next_hops = shortest_path_next_hops(self.edges)
        install_routes(self.nodes, self.host_addrs, self.links, self.next_hops)


def install_routes(
    nodes: Mapping[str, Host],
    host_addrs: Mapping[str, str],
    links: Mapping[Tuple[str, str], Link],
    next_hops: Mapping[str, Mapping[str, str]],
) -> None:
    """(Re)install address-keyed routes from name-level next-hop tables.

    Only end systems are packet destinations, so router names absent from
    ``host_addrs`` are skipped.  ``links`` may be a partial view (a shard
    holds only its local nodes' outgoing links); a missing link means the
    route belongs to another process and is skipped.
    """
    for name, node in nodes.items():
        for dst_name, via in next_hops.get(name, {}).items():
            addr = host_addrs.get(dst_name)
            if addr is None:
                continue
            link = links.get((name, via))
            if link is not None:
                node.add_route(addr, link)


def build_graph(
    sim: Simulator,
    nodes: Sequence[Mapping[str, Any]],
    links: Sequence[Mapping[str, Any]],
    seed: int = 0,
    host_costs_factory=None,
    shard=None,
) -> GraphNet:
    """Wire an arbitrary named-node topology with static shortest-path routes.

    Parameters
    ----------
    nodes:
        Mappings with keys ``name``, ``kind`` (``"host"`` or ``"router"``),
        ``addr`` (defaulted when empty) and ``costs`` (host CPU accounting).
    links:
        Mappings with keys ``a``, ``b``, ``rate_bps``, ``delay`` and the
        optional :class:`~repro.netsim.link.Link` knobs ``queue_limit``,
        ``loss_rate``, ``reverse_loss_rate``, ``ecn_threshold``,
        ``seed_offset``, ``loss`` (burst-loss model config) and ``aqm``
        (queue-management config).  Each entry creates one link per
        direction.
    seed:
        Base seed for the links' random-loss RNGs.  Link *i* draws from
        ``seed + (seed_offset or 2*i)`` forward and ``+1`` reverse — the
        same staggering convention :class:`~repro.scenario.spec.LinkSpec`
        uses, so single-path graphs stay byte-compatible with the
        equivalent channel wiring.
    host_costs_factory:
        Factory for per-host CPU ledgers (routers never get one — the
        paper only measures end-system CPU).
    shard:
        ``None`` wires the whole graph.  A
        :class:`~repro.netsim.parallel.shard.ShardSlice` wires only the
        nodes it owns and their outgoing links: a link into another shard
        becomes a :class:`~repro.netsim.parallel.boundary.BoundaryLink`, a
        link from another shard is recorded in ``GraphNet.inbound``, and
        the routes come from the slice's precomputed ``next_hops``.
        Addresses, seeds, ranks and link indices stay global.
    """
    net_nodes: Dict[str, Host] = {}
    net_hosts: Dict[str, Host] = {}
    host_addrs: Dict[str, str] = {}
    for spec in nodes:
        name = spec["name"]
        kind = spec.get("kind", "host")
        addr = spec.get("addr", "")
        if kind == "host":
            addr = addr or f"10.{len(host_addrs) + 1}.0.1"
            host_addrs[name] = addr
        if shard is not None and not shard.is_local(name):
            continue
        if kind == "router":
            net_nodes[name] = Router(sim, name, addr)
        else:
            costs = None
            if spec.get("costs", True) and host_costs_factory is not None:
                costs = host_costs_factory()
            host = Host(sim, name, addr, costs=costs)
            net_nodes[name] = host
            net_hosts[name] = host

    net = GraphNet(nodes=net_nodes, hosts=net_hosts, host_addrs=host_addrs)
    # Deliveries go through per-node sequencers so that same-timestamp
    # arrivals are processed in content-defined (link, seq) order — the
    # order a sharded run reproduces exactly (see repro.netsim.ingress).
    # Drain ranks are node *declaration* indices; link ports are keyed by
    # global directed link index (2*i forward, 2*i+1 reverse).
    for rank, spec in enumerate(nodes):
        name = spec["name"]
        if name in net_nodes:
            net.ingress[name] = IngressSequencer(sim, rank, net_nodes[name].ip.receive)
    for index, spec in enumerate(links):
        a, b = spec["a"], spec["b"]
        delay = float(spec["delay"])
        loss = float(spec.get("loss_rate", 0.0))
        reverse_loss = spec.get("reverse_loss_rate")
        offset = spec.get("seed_offset", 0) or 2 * index
        directions = (
            (a, b, loss),
            (b, a, loss if reverse_loss is None else float(reverse_loss)),
        )
        for direction, (src, dst, loss_rate) in enumerate(directions):
            link_index = 2 * index + direction
            net.edges[(src, dst)] = delay
            if src not in net_nodes:
                if dst in net_nodes:
                    net.inbound[link_index] = net.ingress[dst]
                continue
            # Mapping-valued loss/aqm configs are normalized per Link, so
            # each direction always owns a fresh (stateful) model instance.
            kwargs = dict(
                rate_bps=spec["rate_bps"],
                delay=delay,
                queue_limit=spec.get("queue_limit", 100),
                loss_rate=loss_rate,
                ecn_threshold=spec.get("ecn_threshold"),
                seed=seed + offset + direction,
                loss_model=spec.get("loss"),
                aqm=spec.get("aqm"),
                name=f"{src}->{dst}",
            )
            if dst in net_nodes:
                link = Link(sim, **kwargs)
                link.attach(net.ingress[dst].port(link_index))
            else:
                from .parallel.boundary import BoundaryLink

                link = BoundaryLink(sim, shard.outbox, link_index, **kwargs)
            net.links[(src, dst)] = link

    if shard is None:
        net.next_hops = shortest_path_next_hops(net.edges)
    else:
        net.next_hops = shard.next_hops
    install_routes(net_nodes, host_addrs, net.links, net.next_hops)
    return net
