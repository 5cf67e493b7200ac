"""Span tracer for the benchmark's traced run.

The tracer wraps layer-boundary methods of the simulator's classes from the
outside (nothing in ``src/`` knows about it).  Every wrapped call is counted
exactly and timed as a span; a span's *self time* is its duration minus the
part covered by its child spans, and it is credited to the layer the wrapped
method belongs to.  Time spent inside ``Simulator.run`` that no wrapped
method covers -- the dispatch loop plus every private callback the engine
dispatches directly -- stays with the ``engine`` layer and is reported as
``engine.other_self_s``.

Wrappers must be installed *before* a scenario is built: the builders capture
bound methods (``Link.attach(ip.receive)``, ingress sequencer ports, CM send
callbacks), and only a method looked up after installation is the wrapped one.

Spans are kept in memory and written out when the run ends.  Coarse spans
(scenario, trial, job, build, validate, shard worker) are always kept; the
per-packet layer spans are kept up to :data:`MAX_FINE_SPANS` per process
(:data:`SHARD_FINE_SPANS` per shard worker) and counted beyond that, because
a full paper battery makes millions of them.
Counts, self times and inclusive times are exact either way: they are
accumulated when each span closes.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time

#: Fine-grained (per-packet) spans kept per process; the rest are only counted.
MAX_FINE_SPANS = 20_000
#: The same budget in each forked shard worker (a sharded run forks many).
SHARD_FINE_SPANS = 1_000

#: Layers whose spans are always kept (a handful per scenario or trial).
COARSE_LAYERS = frozenset({"scenario", "experiments", "parallel", "bench"})

# (layer, module path, class name, attribute, kind).  Kinds:
#   span      time and count the call
#   unit      a span that opens a new scenario/trial/job id and, on exit,
#             harvests the counters of objects created inside it
#   count     count only (no timing)
#   register  wrap ``__init__`` to remember the instance for harvesting
#   classmeth a span around a classmethod
METHOD_HOOKS = (
    ("engine", "repro.netsim.engine", "Simulator", "run", "span"),
    ("engine", "repro.netsim.engine", "Simulator", "step", "span"),
    ("engine", "repro.netsim.engine", "Simulator", "push_late", "count"),
    ("engine", "repro.netsim.engine", "Simulator", "__init__", "register"),
    ("link", "repro.netsim.link", "Link", "send", "span"),
    ("link", "repro.netsim.link", "Link", "__init__", "register"),
    ("ingress", "repro.netsim.ingress", "IngressSequencer", "inject", "span"),
    ("ip", "repro.iplayer.ip", "IPLayer", "send", "span"),
    ("ip", "repro.iplayer.ip", "IPLayer", "receive", "span"),
    ("ip", "repro.iplayer.ip", "IPLayer", "__init__", "register"),
    ("tcp", "repro.transport.tcp.sender", "TCPSenderBase", "send", "span"),
    ("tcp", "repro.transport.tcp.sender", "TCPSenderBase", "_handle_packet", "span"),
    ("tcp", "repro.transport.tcp.receiver", "TCPListener", "_handle_packet", "span"),
    ("udp", "repro.transport.udp.socket", "UDPSocket", "sendto", "span"),
    ("udp", "repro.transport.udp.socket", "UDPSocket", "_deliver", "span"),
    ("udp", "repro.transport.udp.udpcc", "CMUDPSocket", "sendto", "span"),
    ("udp", "repro.transport.udp.feedback", "AckReflector", "_handle_packet", "span"),
    ("udp", "repro.transport.udp.feedback", "AppFeedbackTracker", "on_ack", "span"),
    ("udp", "repro.transport.udp.feedback", "AppFeedbackTracker", "on_cumulative_ack", "span"),
    ("core", "repro.core.manager", "CongestionManager", "cm_open", "span"),
    ("core", "repro.core.manager", "CongestionManager", "cm_close", "span"),
    ("core", "repro.core.manager", "CongestionManager", "cm_request", "span"),
    ("core", "repro.core.manager", "CongestionManager", "cm_bulk_request", "span"),
    ("core", "repro.core.manager", "CongestionManager", "cm_notify", "span"),
    ("core", "repro.core.manager", "CongestionManager", "cm_update", "span"),
    ("core", "repro.core.manager", "CongestionManager", "cm_query", "span"),
    ("core", "repro.core.manager", "CongestionManager", "lookup_flow", "span"),
    ("core", "repro.core.flow", "DirectChannel", "post_send_grant", "span"),
    ("libcm", "repro.core.libcm", "ControlSocketChannel", "post_send_grant", "span"),
    ("libcm", "repro.core.libcm", "LibCM", "cm_open", "span"),
    ("libcm", "repro.core.libcm", "LibCM", "cm_close", "span"),
    ("libcm", "repro.core.libcm", "LibCM", "cm_request", "span"),
    ("libcm", "repro.core.libcm", "LibCM", "cm_bulk_request", "span"),
    ("libcm", "repro.core.libcm", "LibCM", "cm_update", "span"),
    ("libcm", "repro.core.libcm", "LibCM", "cm_notify", "span"),
    ("libcm", "repro.core.libcm", "LibCM", "cm_query", "span"),
    ("libcm", "repro.core.libcm", "LibCM", "poll", "span"),
    ("hostmodel", "repro.hostmodel.ledger", "HostCosts", "charge_operation", "span"),
    ("hostmodel", "repro.hostmodel.ledger", "HostCosts", "charge_copy", "span"),
    ("hostmodel", "repro.hostmodel.ledger", "HostCosts", "charge_checksum", "span"),
    ("hostmodel", "repro.hostmodel.ledger", "HostCosts", "syscall", "span"),
    ("hostmodel", "repro.hostmodel.ledger", "HostCosts", "kernel_tx", "span"),
    ("hostmodel", "repro.hostmodel.ledger", "HostCosts", "kernel_rx", "span"),
    ("scenario", "repro.scenario.spec", "ScenarioSpec", "validate", "span"),
    ("scenario", "repro.scenario.spec", "ScenarioSpec", "from_dict", "classmeth"),
)

# Module-level functions: (layer, span name, kind, function's home module,
# attribute, every module that re-exports it under the same name).
FUNCTION_HOOKS = (
    ("scenario", "scenario.build", "span", "repro.scenario.builder", "build",
     ("repro.scenario", "repro.scenario.runner")),
    ("scenario", "scenario.run_built", "unit", "repro.scenario.runner", "run_built",
     ("repro.scenario",)),
    ("parallel", "parallel.run_sharded", "span", "repro.netsim.parallel.runner", "run_sharded",
     ("repro.netsim.parallel",)),
    ("parallel", "parallel.partition_graph", "span", "repro.netsim.parallel.partition",
     "partition_graph", ("repro.netsim.parallel",)),
)


class _ThreadState:
    __slots__ = ("stack", "counts", "self_s", "incl_s", "spans", "dropped",
                 "instances", "harvest")

    def __init__(self):
        #: Open spans: [span id, unit id, child seconds].
        self.stack = []
        self.counts = {}
        self.self_s = {}
        self.incl_s = {}
        self.spans = []
        self.dropped = 0
        #: Objects created inside the current unit, harvested when it closes.
        self.instances = []
        self.harvest = {"events": 0, "link_delivered": 0, "link_dropped": 0,
                        "link_queue_delay_s": 0.0, "link_dequeued": 0,
                        "ip_forward_drops": 0}


def _harvest_instances(st):
    totals = st.harvest
    for kind, obj in st.instances:
        if kind == "Simulator":
            totals["events"] += obj.events_dispatched
        elif kind == "Link":
            stats = obj.stats
            totals["link_delivered"] += stats.delivered_packets
            totals["link_dropped"] += stats.dropped_packets
            totals["link_queue_delay_s"] += stats.queue_delay_total
            totals["link_dequeued"] += stats.dequeued_packets
        elif kind == "IPLayer":
            totals["ip_forward_drops"] += obj.forward_drops
    st.instances = []


class Tracer:
    """Counts, self times and spans of the wrapped layer boundaries."""

    def __init__(self):
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._restore = []
        self.origin = time.perf_counter()
        self.fine_left = MAX_FINE_SPANS

    # ---------------------------------------------------------------- state
    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState()
            with self._lock:
                self._states.append(st)
            self._local.st = st
        return st

    def reset_after_fork(self):
        """Forget the parent's state in a forked child process."""
        self._local = threading.local()
        self._states = []
        self._lock = threading.Lock()
        self.fine_left = SHARD_FINE_SPANS

    # ------------------------------------------------------------- wrappers
    def wrap(self, layer, name, fn, kind="span"):
        """Return ``fn`` wrapped as a counted, timed span of ``layer``."""
        tracer = self
        ids = self._ids
        perf = time.perf_counter
        keep_all = layer in COARSE_LAYERS
        unit = kind == "unit"

        def traced(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            sid = next(ids)
            parent = stack[-1] if stack else None
            frame = [sid, sid if (unit or parent is None) else parent[1], 0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                duration = end - start
                st.self_s[layer] = st.self_s.get(layer, 0.0) + duration - frame[2]
                st.incl_s[name] = st.incl_s.get(name, 0.0) + duration
                st.counts[name] = st.counts.get(name, 0) + 1
                if parent is not None:
                    parent[2] += duration
                if keep_all or tracer.fine_left > 0:
                    if not keep_all:
                        tracer.fine_left -= 1
                    st.spans.append((sid, parent[0] if parent else 0, frame[1], name,
                                     start - tracer.origin, end - tracer.origin))
                else:
                    st.dropped += 1
                if unit:
                    _harvest_instances(st)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _counter(self, name, fn):
        tracer = self

        def counted(*args, **kwargs):
            counts = tracer._state().counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _registrar(self, kind, init):
        tracer = self

        def registering_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            tracer._state().instances.append((kind, obj))

        registering_init.__wrapped__ = init
        return registering_init

    def span(self, layer, name, fn, *args, unit=False, **kwargs):
        """Call ``fn`` inside a span opened by the benchmark itself."""
        return self.wrap(layer, name, fn, kind="unit" if unit else "span")(*args, **kwargs)

    # --------------------------------------------------------- installation
    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, dump_dir=None):
        """Wrap every hook; ``dump_dir`` collects forked shard workers' data."""
        import importlib

        for layer, module_name, class_name, attr, kind in METHOD_HOOKS:
            cls = getattr(importlib.import_module(module_name), class_name)
            original = cls.__dict__[attr]
            name = f"{class_name}.{attr}"
            if kind == "span":
                self._set(cls, attr, self.wrap(layer, name, original))
            elif kind == "count":
                self._set(cls, attr, self._counter(name, original))
            elif kind == "register":
                self._set(cls, attr, self._registrar(class_name, original))
            elif kind == "classmeth":
                self._set(cls, attr, classmethod(self.wrap(layer, name, original.__func__)))

        from repro.netsim.ingress import IngressSequencer

        original_port = IngressSequencer.__dict__["port"]
        tracer = self

        def port(sequencer, link_rank):
            # The closure a Link delivers into is the ingress entry point.
            return tracer.wrap("ingress", "IngressSequencer.deliver",
                               original_port(sequencer, link_rank))

        self._set(IngressSequencer, "port", port)

        for layer, name, kind, home, attr, reexports in FUNCTION_HOOKS:
            original = getattr(importlib.import_module(home), attr)
            wrapped = self.wrap(layer, name, original, kind=kind)
            for module_name in (home,) + reexports:
                module = importlib.import_module(module_name)
                if module.__dict__.get(attr) is original:
                    self._set(module, attr, wrapped)

        self._install_experiments()
        if dump_dir is not None:
            self._install_shard_dump(dump_dir)

    def _install_experiments(self):
        import dataclasses

        from repro.experiments import registry

        for name, spec in list(registry.SPECS.items()):
            self._restore.append((registry, "__register__", spec))
            registry.register(dataclasses.replace(
                spec,
                trial=self.wrap("experiments", "experiments.trial", spec.trial, kind="unit"),
                reduce=self.wrap("experiments", "experiments.reduce", spec.reduce),
            ))

    def _install_shard_dump(self, dump_dir):
        from repro.netsim.parallel import runner

        original = runner.__dict__["_worker_main"]
        tracer = self

        def worker_main(*args, **kwargs):
            # A forked shard worker inherits the coordinator's open spans;
            # start clean, run the shard as one unit, and leave the data in
            # a file for the coordinator to merge.
            tracer.reset_after_fork()
            try:
                tracer.span("parallel", "parallel.shard_worker", original, *args,
                            unit=True, **kwargs)
            finally:
                path = os.path.join(dump_dir, f"shard-{os.getpid()}.json")
                tracer.dump(path)

        self._set(runner, "_worker_main", worker_main)

    def uninstall(self):
        from repro.experiments import registry

        for owner, attr, original in reversed(self._restore):
            if attr == "__register__":
                registry.register(original)
            else:
                setattr(owner, attr, original)
        self._restore = []

    # -------------------------------------------------------------- results
    def summary(self):
        """Merged counts, self/inclusive seconds and harvested counters."""
        with self._lock:
            states = list(self._states)
        parts = []
        for st in states:
            _harvest_instances(st)
            parts.append({"counts": st.counts, "self_s": st.self_s, "incl_s": st.incl_s,
                          "harvest": st.harvest, "spans_kept": len(st.spans),
                          "spans_dropped": st.dropped})
        return merge_summaries(parts)

    def spans(self):
        with self._lock:
            states = list(self._states)
        for st in states:
            yield from st.spans

    def dump(self, path):
        """Write the summary plus every kept span as one JSON document."""
        document = {"pid": os.getpid(), "summary": self.summary(),
                    "spans": [list(span) for span in self.spans()]}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)


def write_spans(path, dumps):
    """Write ``[(pid, spans)]`` as JSON lines, one span per line."""
    with open(path, "w", encoding="utf-8") as handle:
        for pid, spans in dumps:
            for span_id, parent, unit, name, start, end in spans:
                handle.write(json.dumps({"pid": pid, "id": span_id, "parent": parent, "unit": unit,
                                         "name": name, "start": start, "end": end}) + "\n")


def merge_summaries(summaries):
    """Add up summaries from several processes (coordinator + shards)."""
    merged = {"counts": {}, "self_s": {}, "incl_s": {}, "harvest": {},
              "spans_kept": 0, "spans_dropped": 0}
    for summary in summaries:
        for key in ("counts", "self_s", "incl_s", "harvest"):
            target = merged[key]
            for name, value in summary[key].items():
                target[name] = target.get(name, 0) + value
        merged["spans_kept"] += summary["spans_kept"]
        merged["spans_dropped"] += summary["spans_dropped"]
    return merged
