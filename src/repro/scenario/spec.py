"""The declarative scenario specification tree.

A :class:`ScenarioSpec` is a complete, validated, JSON-serialisable
description of one simulation: the hosts, the links between them (or a
dumbbell preset), which hosts run a Congestion Manager, the application
instances with their typed parameters, the stop condition and the metrics to
collect.  Every consumer of the construction layer — the experiment
harnesses, the ``python -m repro.scenario`` CLI, the tests and any future
multi-hop study — builds its testbed from one of these specs instead of
hand-wiring :class:`~repro.netsim.engine.Simulator` /
:class:`~repro.netsim.node.Host` / :class:`~repro.netsim.channel.Channel`
objects.

Design rules:

* **Eager validation** — :meth:`ScenarioSpec.validate` checks the whole tree
  (host references, rate/loss ranges, application names and parameter types
  against the :mod:`repro.scenario.applications` registry) and raises
  :class:`SpecError` with a path-qualified, actionable message.
* **Strict JSON round-trip** — ``spec.to_dict()`` and
  ``ScenarioSpec.from_dict`` are inverses; ``from_dict`` rejects unknown
  keys, naming the offending key and listing the valid ones.
* **Seeds are external** — the spec carries a default ``seed``, but
  :func:`repro.scenario.builder.build` takes the run seed as an argument so
  one spec can drive a multi-seed sweep.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Type, TypeVar

__all__ = [
    "SpecError",
    "HostSpec",
    "LinkSpec",
    "DumbbellSpec",
    "GraphNodeSpec",
    "GraphLinkSpec",
    "RerouteSpec",
    "GraphSpec",
    "AppSpec",
    "WorkloadSpec",
    "StopSpec",
    "TelemetrySpec",
    "EngineSpec",
    "ScenarioSpec",
    "CM_CONTROLLERS",
    "CM_SCHEDULERS",
    "METRIC_GROUPS",
    "NODE_KINDS",
    "TELEMETRY_EVENT_RECORDERS",
    "LOSS_MODEL_KINDS",
    "AQM_KINDS",
]

#: Congestion-controller choices for CM-enabled hosts (see ``repro.core.congestion``).
CM_CONTROLLERS: Tuple[str, ...] = ("aimd_window", "aimd_rate")

#: Intra-macroflow scheduler choices (see ``repro.core.scheduler``).
CM_SCHEDULERS: Tuple[str, ...] = ("round_robin", "weighted")

#: Metric groups the runner knows how to collect.
METRIC_GROUPS: Tuple[str, ...] = ("apps", "links", "hosts")

#: Bounded recorder shapes a telemetry block may route events into.
TELEMETRY_EVENT_RECORDERS: Tuple[str, ...] = ("ring", "reservoir")

#: Node roles a graph topology may declare.
NODE_KINDS: Tuple[str, ...] = ("host", "router")

#: Burst-loss models a link's ``loss`` block may select (see
#: :class:`repro.netsim.link.GilbertElliottLoss`).
LOSS_MODEL_KINDS: Tuple[str, ...] = ("gilbert_elliott",)

#: Active-queue-management kinds a link's ``aqm`` block may select (see
#: :class:`repro.netsim.link.RedQueue`).
AQM_KINDS: Tuple[str, ...] = ("red",)


class SpecError(ValueError):
    """A scenario spec failed validation; the message says where and why."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def default_addr(index: int) -> str:
    """Address assigned to the ``index``-th host when ``addr`` is left empty.

    ``10.<index+1>.0.1`` reproduces the seed testbeds' sender/receiver
    addresses (``10.1.0.1`` / ``10.2.0.1``) for the common two-host case.
    The validator uses the same scheme as the builder so an explicit addr
    cannot silently collide with a generated one.
    """
    return f"10.{index + 1}.0.1"


_T = TypeVar("_T")

#: Per-class field-name cache: ``dataclasses.fields`` walks descriptors on
#: every call, which is measurable on the per-trial ``from_dict``/validate
#: paths; field sets never change after class definition.
_FIELD_NAMES: Dict[type, frozenset] = {}


def _field_names(cls: type) -> frozenset:
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = frozenset(f.name for f in dataclasses.fields(cls))
        _FIELD_NAMES[cls] = names
    return names


def _reject_unknown_keys(cls: type, data: Mapping[str, Any], path: str) -> None:
    """Raise a path-qualified SpecError for keys no field of ``cls`` matches."""
    if not isinstance(data, Mapping):
        raise SpecError(path, f"expected a mapping for {cls.__name__}, got {type(data).__name__}")
    known = _field_names(cls)
    unknown = sorted(set(data) - known)
    if unknown:
        raise SpecError(
            path,
            f"unknown key{'s' if len(unknown) > 1 else ''} {', '.join(map(repr, unknown))} "
            f"for {cls.__name__}; valid keys: {', '.join(sorted(known))}",
        )


def _from_mapping(cls: Type[_T], data: Mapping[str, Any], path: str) -> _T:
    """Build a dataclass from a mapping, rejecting unknown keys."""
    _reject_unknown_keys(cls, data, path)
    return cls(**dict(data))  # type: ignore[arg-type]


def _require(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise SpecError(path, message)


def _check_number(value: Any, path: str, minimum: Optional[float] = None,
                  maximum: Optional[float] = None) -> None:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             path, f"expected a number, got {value!r}")
    if minimum is not None:
        _require(value >= minimum, path, f"must be >= {minimum}, got {value!r}")
    if maximum is not None:
        _require(value <= maximum, path, f"must be <= {maximum}, got {value!r}")


def _check_integer(value: Any, path: str, minimum: int) -> None:
    _require(isinstance(value, int) and not isinstance(value, bool),
             path, f"expected an integer, got {value!r}")
    _require(value >= minimum, path, f"must be >= {minimum}, got {value!r}")


def _check_block_fields(block: Mapping[str, Any], allowed: Sequence[str],
                        required: Sequence[str], path: str) -> None:
    unknown = sorted(set(block) - set(allowed))
    _require(not unknown, path,
             f"unknown key{'s' if len(unknown) > 1 else ''} "
             f"{', '.join(map(repr, unknown))}; valid keys: {', '.join(allowed)}")
    for name in required:
        _require(name in block, f"{path}.{name}", "is required")


def _check_loss_block(loss: Any, path: str) -> None:
    """Validate a ``loss`` mapping (burst-loss model selection) on a link."""
    _require(isinstance(loss, Mapping), path,
             f"expected a mapping with a 'kind' key, got {loss!r}")
    kind = loss.get("kind")
    _require(kind in LOSS_MODEL_KINDS, f"{path}.kind",
             f"unknown loss model {kind!r}; choose from {', '.join(LOSS_MODEL_KINDS)}")
    _check_block_fields(loss, ("kind", "p_good_bad", "p_bad_good", "loss_good", "loss_bad"),
                        ("p_good_bad", "p_bad_good"), path)
    for name in ("p_good_bad", "p_bad_good"):
        _check_number(loss[name], f"{path}.{name}", maximum=1.0)
        _require(loss[name] > 0.0, f"{path}.{name}", f"must be > 0, got {loss[name]!r}")
    if "loss_good" in loss:
        _check_number(loss["loss_good"], f"{path}.loss_good", minimum=0.0)
        _require(loss["loss_good"] < 1.0, f"{path}.loss_good",
                 f"must be < 1, got {loss['loss_good']!r}")
    if "loss_bad" in loss:
        _check_number(loss["loss_bad"], f"{path}.loss_bad", minimum=0.0, maximum=1.0)


def _check_aqm_block(aqm: Any, path: str) -> None:
    """Validate an ``aqm`` mapping (active queue management) on a link."""
    _require(isinstance(aqm, Mapping), path,
             f"expected a mapping with a 'kind' key, got {aqm!r}")
    kind = aqm.get("kind")
    _require(kind in AQM_KINDS, f"{path}.kind",
             f"unknown aqm {kind!r}; choose from {', '.join(AQM_KINDS)}")
    _check_block_fields(aqm, ("kind", "min_th", "max_th", "max_p", "w_q", "mean_packet_bytes"),
                        ("min_th", "max_th"), path)
    _check_number(aqm["min_th"], f"{path}.min_th", minimum=1)
    _check_number(aqm["max_th"], f"{path}.max_th")
    _require(aqm["max_th"] > aqm["min_th"], f"{path}.max_th",
             f"must be > min_th ({aqm['min_th']!r}), got {aqm['max_th']!r}")
    if "max_p" in aqm:
        _check_number(aqm["max_p"], f"{path}.max_p", maximum=1.0)
        _require(aqm["max_p"] > 0.0, f"{path}.max_p", f"must be > 0, got {aqm['max_p']!r}")
    if "w_q" in aqm:
        _check_number(aqm["w_q"], f"{path}.w_q", maximum=1.0)
        _require(aqm["w_q"] > 0.0, f"{path}.w_q", f"must be > 0, got {aqm['w_q']!r}")
    if "mean_packet_bytes" in aqm:
        _check_number(aqm["mean_packet_bytes"], f"{path}.mean_packet_bytes", minimum=1)


@dataclass
class HostSpec:
    """One end system.

    ``addr`` defaults to ``10.<index+1>.0.1`` when left empty.  ``cm``
    attaches a :class:`~repro.core.manager.CongestionManager` (with the named
    controller/scheduler) after the topology is wired; experiments that need
    to control CM construction order themselves leave it ``False`` and attach
    one by hand.
    """

    name: str
    addr: str = ""
    costs: bool = True
    cm: bool = False
    cm_controller: str = "aimd_window"
    cm_scheduler: str = "round_robin"

    def validate(self, path: str) -> None:
        _require(isinstance(self.name, str) and bool(self.name), path, "host name must be a non-empty string")
        _require(isinstance(self.addr, str), f"{path}.addr", "must be a string")
        _require(isinstance(self.costs, bool), f"{path}.costs", "must be a boolean")
        _require(isinstance(self.cm, bool), f"{path}.cm", "must be a boolean")
        _require(self.cm_controller in CM_CONTROLLERS, f"{path}.cm_controller",
                 f"unknown controller {self.cm_controller!r}; choose from {', '.join(CM_CONTROLLERS)}")
        _require(self.cm_scheduler in CM_SCHEDULERS, f"{path}.cm_scheduler",
                 f"unknown scheduler {self.cm_scheduler!r}; choose from {', '.join(CM_SCHEDULERS)}")

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclass
class LinkSpec:
    """A bidirectional Dummynet-style channel between two named hosts.

    ``delay`` is the one-way propagation delay; ``loss_rate`` applies to the
    ``a -> b`` direction and ``reverse_loss_rate`` to ``b -> a`` (``None``
    means symmetric, matching :class:`~repro.netsim.channel.Channel`).
    ``seed_offset`` is added to the run seed for this link's random-loss RNG
    so multiple links in one scenario draw independent streams; leaving it
    at ``0`` auto-derives an offset from the link's position (``2 * index``,
    since each channel consumes two consecutive seeds), which keeps the
    first link byte-identical to the legacy single-link testbeds while
    making additional links independent by default.
    ``rate_schedule`` is a sequence of ``(time, rate_bps)`` steps applied by
    the runner while the scenario executes (Figures 8/9-style bandwidth
    changes).

    ``loss`` selects a stateful burst-loss model per direction (currently
    ``{"kind": "gilbert_elliott", "p_good_bad": ..., "p_bad_good": ...,
    "loss_good": 0.0, "loss_bad": 1.0}``); it replaces the Bernoulli
    ``loss_rate``, which must stay 0.  ``aqm`` selects active queue
    management (currently ``{"kind": "red", "min_th": ..., "max_th": ...,
    "max_p": 0.1, "w_q": 0.002, "mean_packet_bytes": 1000}``), which
    ECN-marks capable packets and drops the rest; it replaces the simple
    ``ecn_threshold``, which must stay unset.
    """

    a: str
    b: str
    rate_bps: float
    delay: float
    queue_limit: Optional[int] = 100
    loss_rate: float = 0.0
    reverse_loss_rate: Optional[float] = None
    ecn_threshold: Optional[int] = None
    seed_offset: int = 0
    rate_schedule: Tuple[Tuple[float, float], ...] = ()
    loss: Optional[Dict[str, Any]] = None
    aqm: Optional[Dict[str, Any]] = None

    def __post_init__(self) -> None:
        # Normalize JSON lists into tuples; malformed steps (including
        # non-sequence entries) are preserved so validate() can report them
        # with a path-qualified message rather than a raw TypeError here.
        self.rate_schedule = tuple(
            tuple(step) if isinstance(step, (list, tuple)) else (step,)
            for step in self.rate_schedule
        )

    def validate(self, path: str, host_names: Sequence[str]) -> None:
        for end, label in ((self.a, "a"), (self.b, "b")):
            _require(end in host_names, f"{path}.{label}",
                     f"unknown host {end!r}; declared hosts: {', '.join(host_names) or '(none)'}")
        _require(self.a != self.b, path, f"link endpoints must differ, both are {self.a!r}")
        _check_number(self.rate_bps, f"{path}.rate_bps", minimum=1.0)
        _check_number(self.delay, f"{path}.delay", minimum=0.0)
        _check_number(self.loss_rate, f"{path}.loss_rate", minimum=0.0, maximum=1.0)
        if self.reverse_loss_rate is not None:
            _check_number(self.reverse_loss_rate, f"{path}.reverse_loss_rate", minimum=0.0, maximum=1.0)
        if self.queue_limit is not None:
            _check_integer(self.queue_limit, f"{path}.queue_limit", minimum=1)
        if self.ecn_threshold is not None:
            _check_integer(self.ecn_threshold, f"{path}.ecn_threshold", minimum=1)
        _require(isinstance(self.seed_offset, int), f"{path}.seed_offset", "must be an integer")
        last = -1.0
        for index, step in enumerate(self.rate_schedule):
            step_path = f"{path}.rate_schedule[{index}]"
            _require(len(step) == 2, step_path, "each step must be a (time, rate_bps) pair")
            _check_number(step[0], f"{step_path}.time", minimum=0.0)
            _check_number(step[1], f"{step_path}.rate_bps", minimum=1.0)
            _require(step[0] > last, step_path, "step times must be strictly increasing")
            last = step[0]
        if self.loss is not None:
            _check_loss_block(self.loss, f"{path}.loss")
            _require(self.loss_rate == 0.0, f"{path}.loss_rate",
                     "must stay 0 when a loss model is configured (the model replaces "
                     "the Bernoulli draw)")
            _require(self.reverse_loss_rate is None, f"{path}.reverse_loss_rate",
                     "must stay unset when a loss model is configured (each direction "
                     "gets its own model instance)")
        if self.aqm is not None:
            _check_aqm_block(self.aqm, f"{path}.aqm")
            _require(self.ecn_threshold is None, f"{path}.ecn_threshold",
                     "must stay unset when an aqm is configured (the aqm owns marking)")

    def to_dict(self) -> Dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["rate_schedule"] = [list(step) for step in self.rate_schedule]
        # Absent optional blocks are omitted so pre-existing specs render
        # (and digest) exactly as before the fields were introduced.
        if self.loss is None:
            payload.pop("loss")
        if self.aqm is None:
            payload.pop("aqm")
        return payload


@dataclass
class DumbbellSpec:
    """The classic shared-bottleneck topology, generated instead of listed.

    Builds ``n_pairs`` sender/receiver host pairs (named ``sender0`` /
    ``receiver0`` ...) around one constrained router-to-router link via
    :func:`repro.netsim.channel.build_dumbbell`.  ``cm_senders`` lists the
    sender indices that get a Congestion Manager attached after wiring.
    """

    n_pairs: int
    bottleneck_bps: float
    bottleneck_delay: float
    access_bps: float = 1e9
    access_delay: float = 0.1e-3
    queue_limit: int = 64
    loss_rate: float = 0.0
    ecn_threshold: Optional[int] = None
    with_costs: bool = True
    cm_senders: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        self.cm_senders = tuple(int(i) for i in self.cm_senders)

    def host_names(self) -> List[str]:
        """The generated host names, senders first (matching build order)."""
        names = [f"sender{i}" for i in range(self.n_pairs)]
        names += [f"receiver{i}" for i in range(self.n_pairs)]
        return names

    def validate(self, path: str) -> None:
        _require(isinstance(self.n_pairs, int) and self.n_pairs >= 1, f"{path}.n_pairs",
                 f"need at least one sender/receiver pair, got {self.n_pairs!r}")
        _check_number(self.bottleneck_bps, f"{path}.bottleneck_bps", minimum=1.0)
        _check_number(self.bottleneck_delay, f"{path}.bottleneck_delay", minimum=0.0)
        _check_number(self.access_bps, f"{path}.access_bps", minimum=1.0)
        _check_number(self.access_delay, f"{path}.access_delay", minimum=0.0)
        _check_integer(self.queue_limit, f"{path}.queue_limit", minimum=1)
        _check_number(self.loss_rate, f"{path}.loss_rate", minimum=0.0, maximum=1.0)
        if self.ecn_threshold is not None:
            _check_integer(self.ecn_threshold, f"{path}.ecn_threshold", minimum=1)
        for index in self.cm_senders:
            _require(0 <= index < self.n_pairs, f"{path}.cm_senders",
                     f"sender index {index} out of range 0..{self.n_pairs - 1}")

    def to_dict(self) -> Dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["cm_senders"] = list(self.cm_senders)
        return payload


@dataclass
class GraphNodeSpec:
    """One named node of a graph topology: an end system or a router.

    Hosts carry applications, CPU cost ledgers and (optionally) a Congestion
    Manager; routers only forward.  ``addr`` defaults to ``10.<i+1>.0.1``
    where ``i`` counts the *host* nodes declared before this one (routers
    default to ``router:<name>``, which never appears in a packet header).
    """

    name: str
    kind: str = "host"
    addr: str = ""
    costs: bool = True
    cm: bool = False
    cm_controller: str = "aimd_window"
    cm_scheduler: str = "round_robin"

    def validate(self, path: str) -> None:
        _require(isinstance(self.name, str) and bool(self.name), path,
                 "node name must be a non-empty string")
        _require(self.kind in NODE_KINDS, f"{path}.kind",
                 f"unknown node kind {self.kind!r}; choose from {', '.join(NODE_KINDS)}")
        _require(isinstance(self.addr, str), f"{path}.addr", "must be a string")
        _require(isinstance(self.costs, bool), f"{path}.costs", "must be a boolean")
        _require(isinstance(self.cm, bool), f"{path}.cm", "must be a boolean")
        if self.kind == "router":
            _require(not self.cm, f"{path}.cm",
                     "routers cannot run a Congestion Manager (the CM is an end-system module)")
        _require(self.cm_controller in CM_CONTROLLERS, f"{path}.cm_controller",
                 f"unknown controller {self.cm_controller!r}; choose from {', '.join(CM_CONTROLLERS)}")
        _require(self.cm_scheduler in CM_SCHEDULERS, f"{path}.cm_scheduler",
                 f"unknown scheduler {self.cm_scheduler!r}; choose from {', '.join(CM_SCHEDULERS)}")

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclass
class GraphLinkSpec:
    """A bidirectional link between two named graph nodes.

    Semantics match :class:`LinkSpec` (one :class:`~repro.netsim.link.Link`
    per direction, ``seed_offset`` staggering the loss RNGs, ``loss_rate``
    on the ``a -> b`` direction); there is no ``rate_schedule`` — graph
    scenarios change conditions through workload churn instead.  ``loss``
    and ``aqm`` select the burst-loss model / active queue management per
    direction exactly as on :class:`LinkSpec`.
    """

    a: str
    b: str
    rate_bps: float
    delay: float
    queue_limit: Optional[int] = 100
    loss_rate: float = 0.0
    reverse_loss_rate: Optional[float] = None
    ecn_threshold: Optional[int] = None
    seed_offset: int = 0
    loss: Optional[Dict[str, Any]] = None
    aqm: Optional[Dict[str, Any]] = None

    def validate(self, path: str, node_names: Sequence[str]) -> None:
        for end, label in ((self.a, "a"), (self.b, "b")):
            _require(end in node_names, f"{path}.{label}",
                     f"unknown node {end!r}; declared nodes: {', '.join(node_names) or '(none)'}")
        _require(self.a != self.b, path, f"link endpoints must differ, both are {self.a!r}")
        _check_number(self.rate_bps, f"{path}.rate_bps", minimum=1.0)
        _check_number(self.delay, f"{path}.delay", minimum=0.0)
        _check_number(self.loss_rate, f"{path}.loss_rate", minimum=0.0, maximum=1.0)
        if self.reverse_loss_rate is not None:
            _check_number(self.reverse_loss_rate, f"{path}.reverse_loss_rate",
                          minimum=0.0, maximum=1.0)
        if self.queue_limit is not None:
            _check_integer(self.queue_limit, f"{path}.queue_limit", minimum=1)
        if self.ecn_threshold is not None:
            _check_integer(self.ecn_threshold, f"{path}.ecn_threshold", minimum=1)
        _require(isinstance(self.seed_offset, int), f"{path}.seed_offset", "must be an integer")
        if self.loss is not None:
            _check_loss_block(self.loss, f"{path}.loss")
            _require(self.loss_rate == 0.0, f"{path}.loss_rate",
                     "must stay 0 when a loss model is configured (the model replaces "
                     "the Bernoulli draw)")
            _require(self.reverse_loss_rate is None, f"{path}.reverse_loss_rate",
                     "must stay unset when a loss model is configured (each direction "
                     "gets its own model instance)")
        if self.aqm is not None:
            _check_aqm_block(self.aqm, f"{path}.aqm")
            _require(self.ecn_threshold is None, f"{path}.ecn_threshold",
                     "must stay unset when an aqm is configured (the aqm owns marking)")

    def to_dict(self) -> Dict[str, Any]:
        payload = dataclasses.asdict(self)
        if self.loss is None:
            payload.pop("loss")
        if self.aqm is None:
            payload.pop("aqm")
        return payload


@dataclass
class RerouteSpec:
    """A scheduled mid-run routing change on one graph link.

    At simulated ``time`` the link between ``a`` and ``b`` changes its
    one-way propagation delay (the routing cost) to ``delay`` in both
    directions; shortest-path next-hops are then recomputed over the whole
    graph and reinstalled into every node — the mobility-style handoff: a
    path that got slower sheds its traffic onto the now-shorter alternative
    mid-run.  ``a``/``b`` must name a declared link (either orientation).
    """

    time: float
    a: str
    b: str
    delay: float

    def validate(self, path: str, link_pairs: Sequence[Tuple[str, str]]) -> None:
        _check_number(self.time, f"{path}.time", minimum=1e-9)
        _check_number(self.delay, f"{path}.delay", minimum=0.0)
        pair = (min(self.a, self.b), max(self.a, self.b))
        _require(pair in link_pairs, path,
                 f"no declared link between {self.a!r} and {self.b!r}; reroutes "
                 "change the cost of an existing link, they do not create one")

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclass
class GraphSpec:
    """An arbitrary topology: named nodes joined by bidirectional links.

    Compiled by the builder through :func:`repro.netsim.graph.build_graph`:
    static shortest-path routes (delay metric, deterministic name-level
    tie-breaks) are installed into the hosts' and routers' routing tables,
    so parking-lot, star and multi-bottleneck mesh scenarios forward
    through the exact same :class:`~repro.iplayer.ip.IPLayer` machinery as
    the two-host testbeds.  Applications and workloads may only be placed
    on ``host`` nodes.
    """

    nodes: List[GraphNodeSpec] = field(default_factory=list)
    links: List[GraphLinkSpec] = field(default_factory=list)
    reroutes: List[RerouteSpec] = field(default_factory=list)

    def node_names(self) -> List[str]:
        """Every node name (hosts and routers), in declaration order."""
        return [node.name for node in self.nodes]

    def host_names(self) -> List[str]:
        """Host-kind node names in declaration order (valid app placements)."""
        return [node.name for node in self.nodes if node.kind == "host"]

    def routing(self) -> Dict[str, Dict[str, str]]:
        """The name-level next-hop tables the builder will install.

        Pure function of the link set — declaration-order independent (the
        property test layer permutes nodes/links and asserts equality).
        """
        from ..netsim.graph import shortest_path_next_hops

        edges: Dict[Tuple[str, str], float] = {}
        for link in self.links:
            edges[(link.a, link.b)] = link.delay
            edges[(link.b, link.a)] = link.delay
        return shortest_path_next_hops(edges)

    def validate(self, path: str) -> None:
        _require(bool(self.nodes), f"{path}.nodes", "a graph needs at least one node")
        seen: Dict[str, int] = {}
        seen_addrs: Dict[str, str] = {}
        host_count = 0
        for index, node in enumerate(self.nodes):
            node_path = f"{path}.nodes[{index}]"
            _require(isinstance(node, GraphNodeSpec), node_path,
                     f"expected a GraphNodeSpec, got {type(node).__name__}")
            node.validate(node_path)
            _require(node.name not in seen, node_path,
                     f"duplicate node name {node.name!r} (also {path}.nodes[{seen.get(node.name)}])")
            seen[node.name] = index
            if node.kind == "host":
                addr = node.addr or default_addr(host_count)
                _require(addr not in seen_addrs, f"{node_path}.addr",
                         f"duplicate address {addr!r} (also used by {seen_addrs.get(addr)!r})")
                seen_addrs[addr] = node.name
                host_count += 1
        _require(host_count >= 1, f"{path}.nodes",
                 "a graph needs at least one host node (routers cannot run applications)")
        names = self.node_names()
        adjacency: Dict[str, List[str]] = {name: [] for name in names}
        seen_pairs: Dict[Tuple[str, str], int] = {}
        for index, link in enumerate(self.links):
            link_path = f"{path}.links[{index}]"
            _require(isinstance(link, GraphLinkSpec), link_path,
                     f"expected a GraphLinkSpec, got {type(link).__name__}")
            link.validate(link_path, names)
            pair = (min(link.a, link.b), max(link.a, link.b))
            _require(pair not in seen_pairs, link_path,
                     f"duplicate link between {link.a!r} and {link.b!r} "
                     f"(also {path}.links[{seen_pairs.get(pair)}]); parallel links "
                     "would make the static routing ambiguous")
            seen_pairs[pair] = index
            adjacency[link.a].append(link.b)
            adjacency[link.b].append(link.a)
        if len(names) > 1:
            # Reject disconnected graphs eagerly: an unreachable destination
            # would otherwise surface mid-run as a NoRouteError on the first
            # send, far from the spec mistake that caused it.
            reached = {names[0]}
            frontier = [names[0]]
            while frontier:
                node = frontier.pop()
                for neighbour in adjacency[node]:
                    if neighbour not in reached:
                        reached.add(neighbour)
                        frontier.append(neighbour)
            unreachable = [name for name in names if name not in reached]
            _require(not unreachable, f"{path}.links",
                     f"graph is disconnected: no path from {names[0]!r} to "
                     f"{', '.join(map(repr, unreachable))}")
        link_pairs = tuple(seen_pairs)
        last_time = 0.0
        for index, reroute in enumerate(self.reroutes):
            reroute_path = f"{path}.reroutes[{index}]"
            _require(isinstance(reroute, RerouteSpec), reroute_path,
                     f"expected a RerouteSpec, got {type(reroute).__name__}")
            reroute.validate(reroute_path, link_pairs)
            _require(reroute.time >= last_time, f"{reroute_path}.time",
                     "reroute times must be non-decreasing (declaration order is "
                     "the tie-break for same-instant changes)")
            last_time = reroute.time

    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "nodes": [node.to_dict() for node in self.nodes],
            "links": [link.to_dict() for link in self.links],
        }
        # Omitted when empty so pre-reroute specs render/digest unchanged.
        if self.reroutes:
            payload["reroutes"] = [reroute.to_dict() for reroute in self.reroutes]
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], path: str = "graph") -> "GraphSpec":
        _reject_unknown_keys(cls, data, path)
        payload = dict(data)
        nodes = [_from_mapping(GraphNodeSpec, item, f"{path}.nodes[{i}]")
                 for i, item in enumerate(payload.pop("nodes", []) or [])]
        links = [_from_mapping(GraphLinkSpec, item, f"{path}.links[{i}]")
                 for i, item in enumerate(payload.pop("links", []) or [])]
        reroutes = [_from_mapping(RerouteSpec, item, f"{path}.reroutes[{i}]")
                    for i, item in enumerate(payload.pop("reroutes", []) or [])]
        return cls(nodes=nodes, links=links, reroutes=reroutes)


@dataclass
class WorkloadSpec:
    """One stochastic traffic generator from the workload registry.

    Unlike an :class:`AppSpec` — one application wired at build time — a
    workload *churns*: driven by the event engine, it attaches application
    instances (flows, web sessions, audio bursts) at seeded random arrival
    times and detaches them again while the scenario runs.  ``params`` is
    validated against the generator's declared schema in
    :mod:`repro.workloads`.  ``start``/``stop`` bound the generator's active
    window in simulated seconds (``stop=None`` means the scenario horizon);
    ``seed_offset`` decorrelates multiple workloads under one run seed
    (``0`` auto-staggers by declaration order).
    """

    kind: str
    host: str
    peer: str = ""
    label: str = ""
    start: float = 0.0
    stop: Optional[float] = None
    seed_offset: int = 0
    params: Dict[str, Any] = field(default_factory=dict)

    def normalized_params(self) -> Dict[str, Any]:
        """The defaults-applied params cached by the last :meth:`validate`."""
        cached = getattr(self, "_normalized_params", None)
        if cached is None:
            raise SpecError("params", f"workload {self.kind!r} has not been validated yet")
        return cached

    def validate(self, path: str, host_names: Sequence[str]) -> Dict[str, Any]:
        """Validate, cache and return the normalized (defaults-applied) params."""
        from ..workloads import get_workload, known_workloads, validate_workload_params

        _require(isinstance(self.kind, str) and bool(self.kind), f"{path}.kind",
                 "workload kind must be a non-empty string")
        try:
            workload_cls = get_workload(self.kind)
        except KeyError:
            raise SpecError(f"{path}.kind",
                            f"unknown workload {self.kind!r}; registered: "
                            f"{', '.join(known_workloads())}") from None
        _require(self.host in host_names, f"{path}.host",
                 f"unknown host {self.host!r}; declared hosts: {', '.join(host_names) or '(none)'}")
        if workload_cls.needs_peer:
            _require(bool(self.peer), f"{path}.peer",
                     f"workload {self.kind!r} needs a peer host")
        if self.peer:
            _require(self.peer in host_names, f"{path}.peer",
                     f"unknown host {self.peer!r}; declared hosts: {', '.join(host_names) or '(none)'}")
            _require(self.peer != self.host, f"{path}.peer", "peer must differ from host")
        _check_number(self.start, f"{path}.start", minimum=0.0)
        if self.stop is not None:
            _check_number(self.stop, f"{path}.stop", minimum=0.0)
            _require(self.stop > self.start, f"{path}.stop",
                     f"must be later than start ({self.start!r}), got {self.stop!r}")
        _require(isinstance(self.seed_offset, int), f"{path}.seed_offset", "must be an integer")
        _require(isinstance(self.params, dict), f"{path}.params", "must be a mapping")
        normalized = validate_workload_params(self.kind, self.params, path=f"{path}.params")
        self._normalized_params = normalized
        return normalized

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "host": self.host,
            "peer": self.peer,
            "label": self.label,
            "start": self.start,
            "stop": self.stop,
            "seed_offset": self.seed_offset,
            "params": dict(self.params),
        }


@dataclass
class AppSpec:
    """One application instance from the registry.

    ``host`` is where the application runs; ``peer`` names the remote host
    for applications that address one (senders, clients).  ``params`` is
    validated against the application's declared parameter schema — unknown
    parameters, missing required ones and type mismatches are all eager
    :class:`SpecError`\\ s.  ``label`` distinguishes multiple instances of
    the same application in the result (defaults to ``app[index]``).
    """

    app: str
    host: str
    peer: str = ""
    label: str = ""
    params: Dict[str, Any] = field(default_factory=dict)

    def normalized_params(self) -> Dict[str, Any]:
        """The defaults-applied params cached by the last :meth:`validate`.

        The builder runs once per trial, so it reuses the dict the eager
        validation pass already produced instead of re-walking the schema.
        """
        cached = getattr(self, "_normalized_params", None)
        if cached is None:
            raise SpecError("params", f"app {self.app!r} has not been validated yet")
        return cached

    def validate(self, path: str, host_names: Sequence[str]) -> Dict[str, Any]:
        """Validate, cache and return the normalized (defaults-applied) params."""
        from .applications import get_application, known_applications, validate_params

        _require(isinstance(self.app, str) and bool(self.app), f"{path}.app",
                 "application name must be a non-empty string")
        try:
            app_cls = get_application(self.app)
        except KeyError:
            raise SpecError(f"{path}.app",
                            f"unknown application {self.app!r}; registered: "
                            f"{', '.join(known_applications())}") from None
        _require(self.host in host_names, f"{path}.host",
                 f"unknown host {self.host!r}; declared hosts: {', '.join(host_names) or '(none)'}")
        if app_cls.needs_peer:
            _require(bool(self.peer), f"{path}.peer",
                     f"application {self.app!r} needs a peer host")
        if self.peer:
            _require(self.peer in host_names, f"{path}.peer",
                     f"unknown host {self.peer!r}; declared hosts: {', '.join(host_names) or '(none)'}")
            _require(self.peer != self.host, f"{path}.peer", "peer must differ from host")
        _require(isinstance(self.params, dict), f"{path}.params", "must be a mapping")
        normalized = validate_params(self.app, self.params, path=f"{path}.params")
        self._normalized_params = normalized
        return normalized

    def to_dict(self) -> Dict[str, Any]:
        return {
            "app": self.app,
            "host": self.host,
            "peer": self.peer,
            "label": self.label,
            "params": dict(self.params),
        }


@dataclass
class StopSpec:
    """When the runner stops the simulation.

    ``until`` is the hard horizon in simulated seconds.  With
    ``when_apps_done`` the runner additionally polls every
    ``check_interval`` simulated seconds and stops early once every
    application that reports a completion state is done.
    """

    until: float = 10.0
    when_apps_done: bool = False
    check_interval: float = 1.0

    def validate(self, path: str) -> None:
        _check_number(self.until, f"{path}.until", minimum=1e-9)
        _check_number(self.check_interval, f"{path}.check_interval", minimum=1e-9)
        _require(isinstance(self.when_apps_done, bool), f"{path}.when_apps_done", "must be a boolean")

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


@dataclass
class TelemetrySpec:
    """What the unified telemetry layer records during the run.

    ``samplers`` selects the periodic state samplers (driven by the event
    engine every ``sample_interval`` simulated seconds):

    * ``macroflows`` — per-macroflow cwnd, CM rate estimate, loss EWMA and
      outstanding bytes;
    * ``schedulers`` — per-macroflow scheduler backlog (pending requests);
    * ``links`` — per-link queue depth;
    * ``apps`` — whatever each application reports via
      ``telemetry_sample()`` (goodput counters, current layer, ...).

    ``events`` lists event probes (from the
    :data:`repro.telemetry.probes.EVENTS` catalog) whose emissions are kept
    in a bounded event log — a ring of the newest ``ring_capacity`` records
    or, with ``event_recorder="reservoir"``, a seeded uniform sample of the
    whole run.  Every recorder is bounded: ``max_samples`` caps each sampled
    series, ``ring_capacity`` the event log.
    """

    sample_interval: float = 0.25
    samplers: Tuple[str, ...] = ("macroflows", "links", "apps")
    events: Tuple[str, ...] = ()
    max_samples: int = 4096
    ring_capacity: int = 4096
    event_recorder: str = "ring"

    def __post_init__(self) -> None:
        self.samplers = tuple(self.samplers)
        self.events = tuple(self.events)

    def validate(self, path: str) -> None:
        from ..telemetry.probes import EVENT_NAMES
        from ..telemetry.samplers import SAMPLER_GROUPS

        _check_number(self.sample_interval, f"{path}.sample_interval", minimum=1e-9)
        for index, group in enumerate(self.samplers):
            _require(group in SAMPLER_GROUPS, f"{path}.samplers[{index}]",
                     f"unknown sampler group {group!r}; choose from {', '.join(SAMPLER_GROUPS)}")
        for index, event in enumerate(self.events):
            _require(event in EVENT_NAMES, f"{path}.events[{index}]",
                     f"unknown telemetry event {event!r}; catalog: {', '.join(EVENT_NAMES)}")
        _require(isinstance(self.max_samples, int) and self.max_samples >= 1,
                 f"{path}.max_samples", f"must be an integer >= 1, got {self.max_samples!r}")
        _require(isinstance(self.ring_capacity, int) and self.ring_capacity >= 1,
                 f"{path}.ring_capacity", f"must be an integer >= 1, got {self.ring_capacity!r}")
        _require(self.event_recorder in TELEMETRY_EVENT_RECORDERS, f"{path}.event_recorder",
                 f"unknown event recorder {self.event_recorder!r}; "
                 f"choose from {', '.join(TELEMETRY_EVENT_RECORDERS)}")

    def to_dict(self) -> Dict[str, Any]:
        payload = dataclasses.asdict(self)
        payload["samplers"] = list(self.samplers)
        payload["events"] = list(self.events)
        return payload


@dataclass
class EngineSpec:
    """How the simulation executes — never *what* it simulates.

    ``shards`` > 1 partitions a graph scenario across that many worker
    processes (conservative-lookahead sync along cut links; see
    ``docs/parallel_engine.md``).  Because the engine block only selects an
    execution strategy, it is excluded from the result ``spec_digest``: the
    same scenario at any shard count digests — and must byte-compare —
    identically.
    """

    shards: int = 1

    def validate(self, path: str) -> None:
        _require(isinstance(self.shards, int) and not isinstance(self.shards, bool)
                 and self.shards >= 1,
                 f"{path}.shards", f"must be an integer >= 1, got {self.shards!r}")

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


#: Sealed (frozen) class variants, created lazily per spec class by
#: :meth:`ScenarioSpec.seal`.
_SEALED_VARIANTS: Dict[type, type] = {}


def _sealed_setattr(self, name: str, value: Any) -> None:
    raise SpecError(
        "", f"{type(self).__name__} is shared and sealed; build a fresh spec instead of mutating"
    )


def _sealed_validate(self) -> "ScenarioSpec":
    # Sealing proved the content valid and the class swap makes mutation
    # impossible, so re-validation is a no-op (the per-trial fast path).
    return self


def _sealed_variant(cls: type) -> type:
    sealed = _SEALED_VARIANTS.get(cls)
    if sealed is None:
        namespace: Dict[str, Any] = {"__setattr__": _sealed_setattr, "_is_sealed": True}
        if cls is ScenarioSpec:
            namespace["validate"] = _sealed_validate
        sealed = type(f"Sealed{cls.__name__}", (cls,), namespace)
        _SEALED_VARIANTS[cls] = sealed
    return sealed


@dataclass
class ScenarioSpec:
    """The root of the declarative scenario tree."""

    name: str
    description: str = ""
    hosts: List[HostSpec] = field(default_factory=list)
    links: List[LinkSpec] = field(default_factory=list)
    dumbbell: Optional[DumbbellSpec] = None
    graph: Optional[GraphSpec] = None
    apps: List[AppSpec] = field(default_factory=list)
    workloads: List[WorkloadSpec] = field(default_factory=list)
    stop: StopSpec = field(default_factory=StopSpec)
    telemetry: Optional[TelemetrySpec] = None
    engine: Optional[EngineSpec] = None
    metrics: Tuple[str, ...] = ("apps",)
    seed: int = 0

    def __post_init__(self) -> None:
        self.metrics = tuple(self.metrics)

    # ------------------------------------------------------------ validation
    def host_names(self) -> List[str]:
        """All host names the apps/links may reference, in build order."""
        if self.dumbbell is not None:
            return self.dumbbell.host_names()
        if self.graph is not None:
            return self.graph.host_names()
        return [host.name for host in self.hosts]

    def validate(self) -> "ScenarioSpec":
        """Validate the whole tree eagerly; returns ``self`` for chaining."""
        _require(isinstance(self.name, str) and bool(self.name), "name",
                 "scenario name must be a non-empty string")
        _require(isinstance(self.seed, int), "seed", "must be an integer")
        if self.dumbbell is not None:
            _require(not self.hosts and not self.links, "dumbbell",
                     "a dumbbell scenario generates its hosts; drop the explicit hosts/links")
            _require(self.graph is None, "graph",
                     "a scenario declares either a dumbbell or a graph, not both")
            self.dumbbell.validate("dumbbell")
        elif self.graph is not None:
            _require(not self.hosts and not self.links, "graph",
                     "a graph scenario declares its nodes/links inside the graph block; "
                     "drop the explicit hosts/links")
            self.graph.validate("graph")
        else:
            _require(bool(self.hosts), "hosts", "need at least one host (or a dumbbell)")
            seen_names: Dict[str, int] = {}
            seen_addrs: Dict[str, str] = {}
            for index, host in enumerate(self.hosts):
                path = f"hosts[{index}]"
                host.validate(path)
                _require(host.name not in seen_names, path,
                         f"duplicate host name {host.name!r} (also hosts[{seen_names.get(host.name)}])")
                seen_names[host.name] = index
                # Check the *effective* address: an explicit addr must not
                # collide with another host's builder-generated default.
                addr = host.addr or default_addr(index)
                _require(addr not in seen_addrs, f"{path}.addr",
                         f"duplicate address {addr!r} (also used by {seen_addrs.get(addr)!r})")
                seen_addrs[addr] = host.name
        names = self.host_names()
        for index, link in enumerate(self.links):
            link.validate(f"links[{index}]", names)
        seen_labels: Dict[str, int] = {}
        for index, app in enumerate(self.apps):
            app.validate(f"apps[{index}]", names)
            if app.label:
                _require(app.label not in seen_labels, f"apps[{index}].label",
                         f"duplicate label {app.label!r} (also apps[{seen_labels.get(app.label)}]); "
                         "labels address app entries in the result, so they must be unique")
                seen_labels[app.label] = index
        seen_workload_labels: Dict[str, int] = {}
        for index, workload in enumerate(self.workloads):
            workload.validate(f"workloads[{index}]", names)
            if workload.label:
                _require(workload.label not in seen_workload_labels, f"workloads[{index}].label",
                         f"duplicate label {workload.label!r} "
                         f"(also workloads[{seen_workload_labels.get(workload.label)}]); "
                         "labels address workload entries in the result, so they must be unique")
                seen_workload_labels[workload.label] = index
        self.stop.validate("stop")
        if self.telemetry is not None:
            self.telemetry.validate("telemetry")
        if self.engine is not None:
            self.engine.validate("engine")
            if self.engine.shards > 1:
                _require(self.graph is not None, "engine.shards",
                         "sharded execution needs a graph topology "
                         "(hosts/links and dumbbell scenarios run single-process)")
        for metric in self.metrics:
            _require(metric in METRIC_GROUPS, "metrics",
                     f"unknown metric group {metric!r}; choose from {', '.join(METRIC_GROUPS)}")
        return self

    def seal(self) -> "ScenarioSpec":
        """Validate, then freeze this spec tree in place; returns ``self``.

        Sealing swaps the spec and its children to ``Sealed*`` subclasses
        whose ``__setattr__`` raises and whose root ``validate`` is a no-op
        — the fast path for factories that hand one shared, immutable spec
        to many trials (``repro.experiments.topology``).  Note that sealing
        changes ``type(spec)``, so sealed and unsealed specs with equal
        content compare unequal under the dataclass ``__eq__``.
        """
        if getattr(self, "_is_sealed", False):
            return self
        self.validate()
        children: List[Any] = [*self.hosts, *self.links, *self.apps, *self.workloads, self.stop]
        if self.dumbbell is not None:
            children.append(self.dumbbell)
        if self.graph is not None:
            children.extend([*self.graph.nodes, *self.graph.links,
                             *self.graph.reroutes, self.graph])
        if self.telemetry is not None:
            children.append(self.telemetry)
        if self.engine is not None:
            children.append(self.engine)
        for child in children:
            child.__class__ = _sealed_variant(child.__class__)
        self.__class__ = _sealed_variant(ScenarioSpec)
        return self

    # --------------------------------------------------------- serialisation
    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON rendering; ``from_dict(to_dict(spec))`` == ``spec``.

        The ``telemetry``, ``graph``, ``workloads`` and ``engine`` keys are
        only present when the corresponding block is configured, so specs
        without them render (and digest) exactly as they did before the
        blocks existed.
        """
        payload = {
            "name": self.name,
            "description": self.description,
            "hosts": [host.to_dict() for host in self.hosts],
            "links": [link.to_dict() for link in self.links],
            "dumbbell": self.dumbbell.to_dict() if self.dumbbell is not None else None,
            "apps": [app.to_dict() for app in self.apps],
            "stop": self.stop.to_dict(),
            "metrics": list(self.metrics),
            "seed": self.seed,
        }
        if self.graph is not None:
            payload["graph"] = self.graph.to_dict()
        if self.workloads:
            payload["workloads"] = [workload.to_dict() for workload in self.workloads]
        if self.telemetry is not None:
            payload["telemetry"] = self.telemetry.to_dict()
        if self.engine is not None:
            payload["engine"] = self.engine.to_dict()
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Strict inverse of :meth:`to_dict`; unknown keys raise :class:`SpecError`."""
        _reject_unknown_keys(cls, data, "")
        payload = dict(data)
        hosts = [_from_mapping(HostSpec, item, f"hosts[{i}]")
                 for i, item in enumerate(payload.pop("hosts", []) or [])]
        links_data = payload.pop("links", []) or []
        links: List[LinkSpec] = []
        for i, item in enumerate(links_data):
            link = _from_mapping(LinkSpec, dict(item), f"links[{i}]")
            links.append(link)
        dumbbell_data = payload.pop("dumbbell", None)
        dumbbell = (_from_mapping(DumbbellSpec, dumbbell_data, "dumbbell")
                    if dumbbell_data is not None else None)
        graph_data = payload.pop("graph", None)
        graph = GraphSpec.from_dict(graph_data, "graph") if graph_data is not None else None
        apps = [_from_mapping(AppSpec, item, f"apps[{i}]")
                for i, item in enumerate(payload.pop("apps", []) or [])]
        workloads = [_from_mapping(WorkloadSpec, item, f"workloads[{i}]")
                     for i, item in enumerate(payload.pop("workloads", []) or [])]
        stop_data = payload.pop("stop", None)
        stop = _from_mapping(StopSpec, stop_data, "stop") if stop_data is not None else StopSpec()
        telemetry_data = payload.pop("telemetry", None)
        telemetry = (_from_mapping(TelemetrySpec, telemetry_data, "telemetry")
                     if telemetry_data is not None else None)
        engine_data = payload.pop("engine", None)
        engine = (_from_mapping(EngineSpec, engine_data, "engine")
                  if engine_data is not None else None)
        metrics_data = payload.pop("metrics", ("apps",))
        if not isinstance(metrics_data, (list, tuple)):
            # tuple("apps") would silently explode a string into characters.
            raise SpecError("metrics",
                            f"expected a list of metric groups, got {type(metrics_data).__name__} "
                            f"({metrics_data!r})")
        metrics = tuple(metrics_data)
        return cls(
            name=payload.pop("name", ""),
            description=payload.pop("description", ""),
            hosts=hosts,
            links=links,
            dumbbell=dumbbell,
            graph=graph,
            apps=apps,
            workloads=workloads,
            stop=stop,
            telemetry=telemetry,
            engine=engine,
            metrics=metrics,
            seed=payload.pop("seed", 0),
        )
