"""The workload registry and the :class:`Workload` base class.

Mirrors :mod:`repro.scenario.applications`: a generator declares a typed
``PARAMS`` schema (reusing :class:`~repro.scenario.applications.Param`),
registers under a kind name, and the spec validator / builder / CLI all
resolve it from here.  The schema walk is shared with the application
registry so both layers reject bad parameters with identical,
path-qualified messages.
"""

from __future__ import annotations

import random
from typing import Any, ClassVar, Dict, List, Optional, Tuple, Type

# Param and the schema walk are deliberately shared with the application
# registry: one validation dialect for both "apps" and "workloads" blocks.
from ..scenario.applications import Param, validate_schema_params
from ..scenario.spec import SpecError, WorkloadSpec

__all__ = [
    "Workload",
    "WORKLOADS",
    "register_workload",
    "get_workload",
    "known_workloads",
    "describe_workloads",
    "validate_workload_params",
]


class Workload:
    """Base class every registered stochastic traffic generator implements.

    Lifecycle (all driven by the scenario runner and the event engine):

    * constructed by the builder from a validated
      :class:`~repro.scenario.spec.WorkloadSpec` with a private
      :class:`random.Random` derived from the run seed;
    * :meth:`start` is called once before the simulator runs; the base
      implementation schedules :meth:`_begin` at ``spec.start``;
    * the generator then attaches/detaches applications at event-engine
      time via :meth:`spawn_app` / :meth:`detach_app`;
    * :meth:`stop` tears everything down after the horizon (cancel pending
      timers, detach survivors, fold their counters into the metrics);
    * :meth:`metrics` returns the aggregate measurement dict for the
      scenario result's ``workloads`` section.
    """

    #: Registry name (set by subclasses, used in :class:`WorkloadSpec.kind`).
    name: ClassVar[str] = ""
    #: One-line description shown by ``python -m repro.scenario list``.
    description: ClassVar[str] = ""
    #: Typed parameter schema validated before build.
    PARAMS: ClassVar[Dict[str, Param]] = {}
    #: Whether :class:`WorkloadSpec.peer` must name a remote host.
    needs_peer: ClassVar[bool] = True
    #: Whether the generator's host must have a Congestion Manager.
    needs_cm: ClassVar[bool] = False
    #: Whether the generator spawns apps *on* the live peer object (rather
    #: than only passing ``peer.addr`` along).  The sharded engine keeps such
    #: host/peer pairs in the same shard.
    colocate_peer: ClassVar[bool] = False

    def __init__(self, scenario, spec: WorkloadSpec, params: Dict[str, Any],
                 rng: random.Random):
        host = scenario.hosts[spec.host]
        if self.needs_cm and host.cm is None:
            raise SpecError(
                f"workloads[{spec.label or spec.kind}]",
                f"workload {self.name!r} requires a Congestion Manager on host "
                f"{spec.host!r}; set cm=true on the host (or node) spec",
            )
        self.scenario = scenario
        self.spec = spec
        self.params = params
        self.rng = rng
        self.host = host
        self.peer = scenario.peer(spec.peer) if spec.peer else None
        self.sim = scenario.sim
        self.label = spec.label or spec.kind
        self._stopped = False
        self._pending_events: List[Any] = []

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        """Arm the generator (called before the simulator runs)."""
        if self.spec.start > 0.0:
            self._schedule(self.spec.start, self._begin)
        else:
            self._begin()

    def _begin(self) -> None:
        """Start generating traffic; subclasses override."""

    def stop(self) -> None:
        """Tear the generator down after the horizon (idempotent)."""
        if self._stopped:
            return
        self._stopped = True
        for event in self._pending_events:
            if event.pending:
                event.cancel()
        self._pending_events.clear()
        self._teardown()

    def _teardown(self) -> None:
        """Detach whatever is still active; subclasses override."""

    def metrics(self) -> Dict[str, Any]:
        """Flat, JSON-able aggregate measurements for the scenario result."""
        return {}

    # --------------------------------------------------------------- helpers
    @property
    def window_end(self) -> Optional[float]:
        """Simulated time after which no new arrivals are generated."""
        return self.spec.stop

    def _schedule(self, delay: float, fn, *args) -> None:
        """Schedule ``fn`` through the event engine, tracked for teardown."""
        self._pending_events.append(self.sim.schedule(delay, fn, *args))
        if len(self._pending_events) > 64:
            self._pending_events = [e for e in self._pending_events if e.pending]

    def _arrival_allowed(self, at_time: float) -> bool:
        """Whether an arrival at ``at_time`` falls inside the active window."""
        return self.window_end is None or at_time <= self.window_end

    def spawn_app(self, app_name: str, host, peer, params: Dict[str, Any], label: str):
        """Attach one application instance from the registry, started.

        The instance goes through the exact same path a static ``apps:``
        entry does — registry lookup, schema-validated params, construction
        against live hosts — and is bound to the scenario's telemetry hub
        when one is attached, so dynamically-churned flows show up in event
        probes just like build-time ones.
        """
        from ..scenario.applications import get_application, validate_params
        from ..scenario.spec import AppSpec

        app_cls = get_application(app_name)
        app_spec = AppSpec(
            app=app_name,
            host=host.name,
            peer=peer.name if peer is not None else "",
            label=label,
            params=dict(params),
        )
        normalized = validate_params(app_name, app_spec.params, path=f"{label}.params")
        app = app_cls(host, peer, app_spec, normalized)
        app.label = label
        telemetry = self.scenario.telemetry
        if telemetry is not None:
            app.attach_telemetry(telemetry.hub)
        app.start()
        return app

    def detach_app(self, app) -> None:
        """Detach one previously spawned application instance."""
        app.detach()


WORKLOADS: Dict[str, Type[Workload]] = {}


def register_workload(cls: Type[Workload]) -> Type[Workload]:
    """Class decorator adding a generator to the registry."""
    if not cls.name:
        raise ValueError(f"{cls.__name__} must set a registry name")
    WORKLOADS[cls.name] = cls
    return cls


def get_workload(name: str) -> Type[Workload]:
    """Look up a workload class; raises KeyError for unknown kinds."""
    if name not in WORKLOADS:
        raise KeyError(f"unknown workload {name!r}; registered: {', '.join(known_workloads())}")
    return WORKLOADS[name]


def known_workloads() -> List[str]:
    """Sorted registry names."""
    return sorted(WORKLOADS)


def validate_workload_params(kind: str, params: Dict[str, Any],
                             path: str = "params") -> Dict[str, Any]:
    """Validate ``params`` against the workload's schema; return defaults-applied dict."""
    return validate_schema_params(get_workload(kind), kind, params, path)


def describe_workloads() -> List[Tuple[str, str, List[str]]]:
    """(kind, description, parameter summaries) rows for the CLI listing."""
    rows = []
    for name in known_workloads():
        cls = WORKLOADS[name]
        param_lines = []
        for pname, param in sorted(cls.PARAMS.items()):
            bits = [param.type.__name__]
            if param.required:
                bits.append("required")
            else:
                bits.append(f"default={param.default!r}")
            if param.choices:
                bits.append(f"one of {'/'.join(map(str, param.choices))}")
            summary = f"{pname} ({', '.join(bits)})"
            if param.help:
                summary += f": {param.help}"
            param_lines.append(summary)
        rows.append((name, cls.description, param_lines))
    return rows
