"""Conservative-lookahead coordinator and worker processes.

One worker process per shard, each running an ordinary
:class:`~repro.netsim.engine.Simulator` over its slice of the graph
(:mod:`.shard`).  The coordinator advances everyone in lockstep windows of
length ``L`` — the minimum cut-link one-way delay (:mod:`.partition`):

* every event executed in the window ``(s, e]`` has time ``> s``, so a
  packet finishing serialization at ``t`` arrives remotely at
  ``t + delay > s + L >= e`` — strictly after the barrier;
* therefore messages collected at barrier ``e`` can be injected into their
  destination shards before the next window with no risk of a causality
  violation (the classic CMB argument, with the barrier playing the role
  of the null message).

Determinism: inbound messages are injected in sorted
``(deliver_ts, global_link_index, emit_seq)`` order, so the destination
simulator sees one canonical schedule no matter how pipe traffic
interleaved.  The stop condition replicates ``run_built`` exactly — the
``when_apps_done`` predicate and the drained-idle test are evaluated only
on the same ``check_interval`` grid the single-process loop uses, and the
final time is forced to a common barrier so every shard's clock agrees.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import traceback
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["run_sharded"]


# ------------------------------------------------------------------ worker
def _worker_main(conn, spec_payload, run_seed, shard_index, part_fields,
                 next_hops, trace_path) -> None:
    """Worker process entry point: build the shard, then serve commands.

    Protocol (coordinator → worker / worker → coordinator):

    * build → ``("ready", done_states, idle)``
    * ``("advance", until, want_done, inbox)`` →
      ``("ok", outbox, idle, done_states_or_None, now)``
    * ``("finish", final_time)`` → ``("result", ScenarioResult)`` then exit
    * any exception → ``("spec_error", path, str)`` / ``("error", traceback)``
    """
    from ...scenario import builder
    from ...scenario.runner import _collect
    from ...scenario.spec import ScenarioSpec, SpecError
    from .boundary import BoundaryLink
    from .partition import Partition
    from .shard import ShardSlice
    from .wire import decode_packet

    try:
        spec = ScenarioSpec.from_dict(spec_payload)
        shard = ShardSlice(Partition(*part_fields), shard_index, next_hops)
        scenario = builder.build(spec, run_seed, trace_path, shard=shard)
        sim = scenario.sim
        inbound = scenario.graph_net.inbound
        if scenario.telemetry is not None:
            scenario.telemetry.start()
        for app in scenario.apps:
            app.start()
        for workload in scenario.workloads:
            workload.start()
        want_done_states = spec.stop.when_apps_done

        def done_states() -> Optional[List[Any]]:
            if not want_done_states:
                return None
            return [app.done() for app in scenario.apps]

        conn.send(("ready", done_states(), sim.idle_except_control()))
        while True:
            message = conn.recv()
            command = message[0]
            if command == "advance":
                _, until, want_done, inbox = message
                for deliver_ts, link_index, seq, wire in inbox:
                    # Into the destination node's ingress sequencer, with
                    # the sender's per-link emission seq — exactly the
                    # (link, seq) key the local arrival would have carried.
                    inbound[link_index].inject(
                        deliver_ts, link_index, seq, decode_packet(wire))
                sim.run(until=until)
                outbox = shard.outbox[:]
                shard.outbox.clear()
                conn.send(("ok", outbox, sim.idle_except_control(),
                           done_states() if want_done else None, sim.now))
            elif command == "finish":
                _, final_time = message
                if final_time > sim.now:
                    sim.run(until=final_time)
                if scenario.telemetry is not None:
                    scenario.telemetry.stop()
                for workload in scenario.workloads:
                    workload.stop()
                for app in scenario.apps:
                    app.stop()
                for link in scenario.graph_net.links.values():
                    if isinstance(link, BoundaryLink):
                        link.finalize(final_time)
                result = _collect(scenario, duration=final_time)
                if scenario.telemetry is not None:
                    scenario.telemetry.close()
                conn.send(("result", result))
                return
            else:  # pragma: no cover - protocol misuse
                raise RuntimeError(f"unknown command {command!r}")
    except SpecError as exc:
        conn.send(("spec_error", exc.path, str(exc)))
    except BaseException:
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


# ------------------------------------------------------------- coordinator
class _WorkerPool:
    """The coordinator's handle on its shard worker processes."""

    def __init__(self, spec, run_seed: int, part, next_hops, trace_path):
        self.count = part.shards
        self.trace_paths = [
            f"{trace_path}.shard{k}" if trace_path else None
            for k in range(self.count)
        ]
        context = multiprocessing.get_context()
        spec_payload = spec.to_dict()
        part_fields = (part.shards, dict(part.shard_of), part.cut_pairs, part.lookahead)
        self.pipes = []
        self.processes = []
        for k in range(self.count):
            parent_end, child_end = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(child_end, spec_payload, run_seed, k, part_fields,
                      next_hops, self.trace_paths[k]),
                daemon=True,
            )
            process.start()
            child_end.close()
            self.pipes.append(parent_end)
            self.processes.append(process)

    def recv(self, shard_index: int):
        from ...scenario.spec import SpecError

        try:
            reply = self.pipes[shard_index].recv()
        except EOFError:
            raise RuntimeError(
                f"shard worker {shard_index} exited without replying")
        if reply[0] == "spec_error":
            raise SpecError(reply[1], reply[2].split(": ", 1)[-1])
        if reply[0] == "error":
            raise RuntimeError(
                f"shard worker {shard_index} failed:\n{reply[1]}")
        return reply

    def send_all(self, message) -> None:
        for pipe in self.pipes:
            pipe.send(message)

    def recv_all(self) -> List:
        return [self.recv(k) for k in range(self.count)]

    def shutdown(self, abort: bool = False) -> None:
        """Close the pipes and reap the workers; ``abort`` kills them first.

        Closing the pipes does not wake a worker blocked in ``recv``: every
        forked worker inherited the coordinator's end of its own pipe.  So a
        run that failed or was cancelled terminates its workers instead of
        waiting out the join timeout.
        """
        for pipe in self.pipes:
            try:
                pipe.close()
            except OSError:  # pragma: no cover - teardown best effort
                pass
        for process in self.processes:
            if abort:
                process.terminate()
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - teardown best effort
                process.terminate()
                process.join(timeout=5.0)


def _dest_shard_of_links(spec, part) -> Dict[int, int]:
    """Global directed link index → shard owning the *destination* node."""
    table: Dict[int, int] = {}
    for index, link in enumerate(spec.graph.links):
        table[2 * index] = part.shard_of[link.b]
        table[2 * index + 1] = part.shard_of[link.a]
    return table


def _section_owners(spec, part) -> Dict[str, List[int]]:
    """Per result section: the owning shard of each entry, in global order.

    A worker's ``_collect`` lists its own entries in declaration order, so
    these sequences are all the merge needs to interleave them back into
    the single-process order.  Links belong to the shard of their source
    node (2*i forward, 2*i+1 reverse), hosts, apps and workloads to the
    shard of their host.
    """
    shard_of = part.shard_of
    graph = spec.graph
    return {
        "apps": [shard_of[app.host] for app in spec.apps],
        "links": [shard_of[src] for link in graph.links for src in (link.a, link.b)],
        "hosts": [shard_of[node.name] for node in graph.nodes if node.kind == "host"],
        "workloads": [shard_of[workload.host] for workload in spec.workloads],
    }


def _interleave(per_shard: List[List], owners: List[int]) -> List:
    """Merge per-shard entry lists into global order (see _section_owners)."""
    if not any(per_shard):  # the section is switched off in spec.metrics
        return []
    streams = [iter(entries) for entries in per_shard]
    return [next(streams[shard]) for shard in owners]


def _merge_traces(trace_path: str, shard_paths: List[Optional[str]]) -> None:
    """Merge per-shard JSONL traces into one file, ordered by time.

    Best-effort by design: within one timestamp, lines order by shard index
    (single-process runs interleave same-time events across the whole graph
    instead), and cut-link ``packet.deliver`` events are absent — the
    delivery end of a boundary link lives on no shard.  Result *metrics*
    are exempt from both caveats; see docs/parallel_engine.md.
    """
    lines: List[Tuple[float, int, int, str]] = []
    for shard_index, path in enumerate(shard_paths):
        if path is None or not os.path.exists(path):
            continue
        with open(path, "r", encoding="utf-8") as handle:
            for line_index, line in enumerate(handle):
                when = json.loads(line).get("t", 0.0)
                lines.append((when, shard_index, line_index, line))
        os.remove(path)
    lines.sort(key=lambda item: (item[0], item[1], item[2]))
    with open(trace_path, "w", encoding="utf-8") as handle:
        for _when, _shard, _index, line in lines:
            handle.write(line)


def run_sharded(spec, seed: Optional[int] = None, *,
                shards: Optional[int] = None,
                trace_path: Optional[str] = None,
                progress_cb=None):
    """Run ``spec`` across shard worker processes; single-process fallback.

    Returns the same :class:`~repro.scenario.runner.ScenarioResult` (byte
    for byte) as ``run(spec, seed)``.  Falls back to the single-process
    runner when the request or the partition collapses to one shard.
    """
    from ...scenario.runner import ScenarioResult, run_streaming, spec_digest
    from .partition import partition_graph

    spec.validate()
    requested = spec.shard_count(shards)
    part = partition_graph(spec, requested) if requested > 1 else None
    if part is None or part.shards <= 1:
        # shards=1 keeps run_streaming from bouncing back here.
        return run_streaming(spec, seed, trace_path=trace_path,
                             progress_cb=progress_cb, shards=1)

    run_seed = spec.seed if seed is None else int(seed)
    next_hops = spec.graph.routing()
    dest_shard = _dest_shard_of_links(spec, part)
    stop = spec.stop
    horizon = stop.until
    lookahead = part.lookahead
    assert lookahead is not None and lookahead > 0.0

    pool = _WorkerPool(spec, run_seed, part, next_hops, trace_path)
    try:
        pending: List[List[Tuple]] = [[] for _ in range(pool.count)]
        states: List[Any] = [None] * pool.count
        idle = [False] * pool.count

        def route(outbox) -> None:
            for item in outbox:
                pending[dest_shard[item[1]]].append(item)

        for k, reply in enumerate(pool.recv_all()):   # "ready"
            _tag, done, worker_idle = reply
            states[k] = done
            idle[k] = worker_idle
        if progress_cb is not None:
            progress_cb(0.0, horizon)

        def all_apps_done() -> bool:
            flat = [state for shard_states in states for state in shard_states]
            return (any(state is not None for state in flat)
                    and all(state in (None, True) for state in flat))

        def advance_to(target: float, cur: float, want_done: bool) -> float:
            """Drive every shard from ``cur`` to ``target`` in ≤L windows."""
            while cur < target:
                edge = min(target, cur + lookahead)
                final_window = edge == target
                for k, pipe in enumerate(pool.pipes):
                    # (deliver_ts, link_index, emit_seq) is a unique total
                    # order; never compare the wire payload itself.
                    inbox = sorted(pending[k], key=lambda item: item[:3])
                    pending[k] = []
                    pipe.send(("advance", edge, want_done and final_window, inbox))
                for k, reply in enumerate(pool.recv_all()):
                    _tag, outbox, worker_idle, done, _now = reply
                    route(outbox)
                    idle[k] = worker_idle
                    if done is not None:
                        states[k] = done
                cur = edge
                if progress_cb is not None:
                    progress_cb(cur, horizon)
            return cur

        now = 0.0
        if stop.when_apps_done:
            # Mirror run_built: predicate first, then the drained test, both
            # only ever at the start/check-grid points; otherwise advance one
            # check interval (in ≤L sub-windows).
            while now < horizon:
                if all_apps_done():
                    break
                if all(idle) and not any(pending):
                    break
                now = advance_to(min(horizon, now + stop.check_interval),
                                 now, want_done=True)
        else:
            now = advance_to(horizon, now, want_done=False)

        pool.send_all(("finish", now))
        parts = [reply[1] for reply in pool.recv_all()]
        result = ScenarioResult(
            name=spec.name,
            seed=run_seed,
            spec_digest=spec_digest(spec),
            duration_s=now,
        )
        for section, owners in _section_owners(spec, part).items():
            setattr(result, section, _interleave(
                [getattr(shard_result, section) for shard_result in parts], owners))
        if progress_cb is not None:
            progress_cb(now, horizon)
    except BaseException:
        pool.shutdown(abort=True)
        raise
    pool.shutdown()
    if trace_path:
        _merge_traces(trace_path, pool.trace_paths)
    return result
