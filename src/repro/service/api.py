"""Socket-free JSON API over the :class:`~repro.service.jobs.JobManager`.

The :class:`Router` and :class:`ServiceApi` are deliberately independent of
any HTTP machinery: ``api.dispatch("GET", "/v1/jobs", b"")`` is the whole
interface, so tests drive the full endpoint surface without opening a
socket (the same pattern the flow-manager tests use).  The stdlib HTTP
front end in :mod:`repro.service.server` is a thin adapter on top.

Every live-inspection and mutation endpoint goes through
:meth:`Job.request` — the mailbox the simulation's control tick drains —
so handlers here never touch engine objects from the HTTP thread.  The
closures passed to the mailbox run inside the event loop and may raise
:class:`ApiError` / :class:`SpecError`; both surface as structured JSON
errors with the right status code.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple
from urllib.parse import unquote

from ..scenario.presets import get_preset
from ..scenario.spec import ScenarioSpec, SpecError
from .jobs import Job, JobManager, JobNotLive, JobState, attach_app_in_loop

__all__ = ["ApiError", "Response", "Router", "ServiceApi"]

#: Telemetry streams poll the trace file at this wall-clock period.
STREAM_POLL_S = 0.05
#: A telemetry stream never outlives this many wall seconds.
STREAM_MAX_WALL_S = 600.0


class ApiError(Exception):
    """An error with an HTTP status and a JSON body."""

    def __init__(self, status: int, message: str, **extra: Any):
        super().__init__(message)
        self.status = status
        self.payload = {"error": message, **extra}


class Response:
    """What a handler returns: JSON payload, raw bytes, or a byte stream."""

    def __init__(self, status: int = 200, payload: Any = None,
                 body: Optional[bytes] = None,
                 stream: Optional[Iterator[bytes]] = None,
                 content_type: str = "application/json",
                 after: Optional[Callable[[], None]] = None):
        self.status = status
        self.payload = payload
        self.body = body
        self.stream = stream
        self.content_type = content_type
        # Invoked by the transport after the body is fully written — the
        # shutdown endpoint uses it so the teardown can never race the
        # response onto a dying process.
        self.after = after

    def encoded(self) -> bytes:
        """The response body as bytes (not valid for streams)."""
        if self.stream is not None:
            raise ValueError("streaming responses have no fixed body")
        if self.body is not None:
            return self.body
        return (json.dumps(self.payload, indent=2, sort_keys=True) + "\n").encode("utf-8")

    def json(self) -> Any:
        """Decode the body as JSON (test convenience)."""
        return json.loads(self.encoded())


class Router:
    """Method + path-template dispatch (``<name>`` segments capture)."""

    def __init__(self):
        self._routes: List[Tuple[str, Tuple[str, ...], Callable]] = []

    def add(self, method: str, pattern: str, handler: Callable) -> None:
        segments = tuple(seg for seg in pattern.strip("/").split("/") if seg)
        self._routes.append((method.upper(), segments, handler))

    def match(self, method: str, path: str) -> Tuple[Optional[Callable], Dict[str, str], bool]:
        """Resolve ``(handler, params, path_known)`` for a request.

        ``path_known`` distinguishes 404 (no route has this shape) from 405
        (the path exists but not for this method).
        """
        segments = [unquote(seg) for seg in path.strip("/").split("/") if seg]
        path_known = False
        for route_method, template, handler in self._routes:
            if len(template) != len(segments):
                continue
            params: Dict[str, str] = {}
            for expected, actual in zip(template, segments):
                if expected.startswith("<") and expected.endswith(">"):
                    params[expected[1:-1]] = actual
                elif expected != actual:
                    break
            else:
                path_known = True
                if route_method == method.upper():
                    return handler, params, True
        return None, {}, path_known


class ServiceApi:
    """The ``/v1`` endpoint surface over one :class:`JobManager`."""

    #: How long a mailbox request may wait for a control tick before the
    #: endpoint reports 504 (the job is wedged or between events).
    INSPECT_TIMEOUT_S = 10.0

    def __init__(self, manager: JobManager,
                 on_shutdown: Optional[Callable[[], None]] = None):
        self.manager = manager
        self.on_shutdown = on_shutdown
        self.started_at = time.time()
        self.router = Router()
        add = self.router.add
        add("GET", "/", self._handle_index)
        add("POST", "/v1/jobs", self._handle_submit)
        add("GET", "/v1/jobs", self._handle_list)
        add("GET", "/v1/jobs/<id>", self._handle_status)
        add("DELETE", "/v1/jobs/<id>", self._handle_cancel)
        add("GET", "/v1/jobs/<id>/result", self._handle_result)
        add("GET", "/v1/jobs/<id>/telemetry", self._handle_telemetry)
        add("GET", "/v1/jobs/<id>/hosts", self._handle_hosts)
        add("GET", "/v1/jobs/<id>/hosts/<host>/macroflows", self._handle_macroflows)
        add("GET", "/v1/jobs/<id>/macroflows/<mfid>/flows", self._handle_flows)
        add("POST", "/v1/jobs/<id>/hosts/<host>/apps", self._handle_attach_app)
        add("PATCH", "/v1/jobs/<id>/links/<link>", self._handle_patch_link)
        add("POST", "/v1/shutdown", self._handle_shutdown)

    # -------------------------------------------------------------- dispatch
    def dispatch(self, method: str, path: str, body: bytes = b"") -> Response:
        """Route one request; every error becomes a structured JSON response."""
        handler, params, path_known = self.router.match(method, path)
        if handler is None:
            if path_known:
                return Response(405, {"error": f"method {method} not allowed on {path}"})
            return Response(404, {"error": f"no such endpoint: {method} {path}"})
        try:
            payload = self._decode_body(body)
            return handler(params, payload)
        except ApiError as exc:
            return Response(exc.status, exc.payload)
        except SpecError as exc:
            return Response(400, {"error": str(exc), "path": exc.path})
        except JobNotLive as exc:
            return Response(409, {"error": str(exc)})
        except TimeoutError as exc:
            return Response(504, {"error": str(exc)})
        except Exception as exc:  # surfaced, not raised: the router is a server
            return Response(500, {"error": f"{type(exc).__name__}: {exc}"})

    @staticmethod
    def _decode_body(body: bytes) -> Dict[str, Any]:
        if not body:
            return {}
        try:
            decoded = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ApiError(400, f"request body is not valid JSON: {exc}")
        if not isinstance(decoded, dict):
            raise ApiError(400, "request body must be a JSON object")
        return decoded

    # --------------------------------------------------------------- helpers
    def _job(self, params: Dict[str, str]) -> Job:
        raw = params["id"]
        try:
            job_id = int(raw)
        except ValueError:
            raise ApiError(400, f"job id must be an integer, got {raw!r}")
        job = self.manager.get(job_id)
        if job is None:
            raise ApiError(404, f"no such job: {job_id}")
        return job

    def _job_id(self, params: Dict[str, str]) -> int:
        try:
            return int(params["id"])
        except ValueError:
            raise ApiError(400, f"job id must be an integer, got {params['id']!r}")

    def _inspect(self, job: Job, fn: Callable) -> Any:
        """Run ``fn(scenario)`` inside the job's event loop (mailbox hop)."""
        return job.request(fn, timeout=self.INSPECT_TIMEOUT_S)

    # -------------------------------------------------------------- handlers
    def _handle_index(self, params, payload) -> Response:
        jobs = self.manager.jobs()
        return Response(200, {
            "service": "repro.service",
            "slots": self.manager.slots,
            "store": self.manager.store_path,
            "uptime_s": time.time() - self.started_at,
            "jobs": {
                state: sum(1 for job in jobs if job.state == state)
                for state in (JobState.QUEUED, JobState.RUNNING, JobState.DONE,
                              JobState.FAILED, JobState.CANCELLED)
            },
        })

    def _handle_submit(self, params, payload) -> Response:
        if ("preset" in payload) == ("spec" in payload):
            raise ApiError(400, "submit exactly one of 'preset' or 'spec'")
        if "preset" in payload:
            try:
                spec = get_preset(str(payload["preset"]))
            except KeyError as exc:
                raise ApiError(400, str(exc.args[0]))
        else:
            if not isinstance(payload["spec"], dict):
                raise ApiError(400, "'spec' must be a JSON object")
            # Strict round-trip: from_dict rejects unknown keys, validate()
            # walks the whole tree eagerly; a SpecError surfaces as a 400
            # carrying the offending path.
            spec = ScenarioSpec.from_dict(payload["spec"])
        spec.validate()
        if "seed" in payload and "seeds" in payload:
            raise ApiError(400, "pass either 'seed' or 'seeds', not both")
        if "seeds" in payload:
            seeds = payload["seeds"]
            if (not isinstance(seeds, list) or not seeds
                    or not all(_is_int(seed) for seed in seeds)):
                raise ApiError(400, "'seeds' must be a non-empty list of integers")
        else:
            seed = payload.get("seed")
            if seed is not None and not _is_int(seed):
                raise ApiError(400, "'seed' must be an integer")
            seeds = [seed]
        trace = bool(payload.get("trace", False))
        shards = payload.get("shards")
        if shards is not None and (not _is_int(shards) or shards < 1):
            raise ApiError(400, "'shards' must be a positive integer")
        jobs = [self.manager.submit(spec, seed=seed, trace=trace, shards=shards)
                for seed in seeds]
        body: Dict[str, Any] = {"jobs": [job.status() for job in jobs]}
        if len(jobs) == 1:
            body["job"] = body["jobs"][0]
        return Response(201, body)

    def _handle_list(self, params, payload) -> Response:
        return Response(200, {"jobs": [job.status() for job in self.manager.jobs()]})

    def _handle_status(self, params, payload) -> Response:
        job_id = self._job_id(params)
        job = self.manager.get(job_id)
        if job is not None:
            return Response(200, job.status())
        stored = self.manager.store_status(job_id)
        if stored is not None:
            return Response(200, stored)
        raise ApiError(404, f"no such job: {job_id}")

    def _handle_cancel(self, params, payload) -> Response:
        job = self._job(params)
        if job.finished:
            raise ApiError(409, f"job {job.id} already {job.state}")
        self.manager.cancel(job.id)
        return Response(202, job.status())

    def _handle_result(self, params, payload) -> Response:
        job_id = self._job_id(params)
        job = self.manager.get(job_id)
        if job is None:
            stored = self.manager.store_result_json(job_id)
            if stored is None:
                raise ApiError(404, f"no such job: {job_id}")
            return Response(200, body=stored.encode("utf-8"))
        if job.state in JobState.LIVE:
            raise ApiError(409, f"job {job.id} is {job.state}; no result yet")
        if job.state != JobState.DONE:
            raise ApiError(409, f"job {job.id} {job.state}: {job.error}")
        # ScenarioResult.to_json() — byte-identical to the batch CLI's file
        # for the same (spec, seed); the smoke test in CI compares them.
        return Response(200, body=job.result.to_json().encode("utf-8"))

    def _handle_telemetry(self, params, payload) -> Response:
        job = self._job(params)
        if job.trace_path is None:
            raise ApiError(409, f"job {job.id} was not submitted with trace=true")
        return Response(200, stream=self._tail_trace(job),
                        content_type="application/x-ndjson")

    def _tail_trace(self, job: Job) -> Iterator[bytes]:
        """Yield trace lines as they land, until the job finishes and EOF.

        Pure wall-clock file tailing — the sink writes from the worker
        thread, we read the file; no shared state beyond ``job.finished``.
        """
        deadline = time.time() + STREAM_MAX_WALL_S
        while not os.path.exists(job.trace_path):
            if job.finished or time.time() > deadline:
                return
            time.sleep(STREAM_POLL_S)
        with open(job.trace_path, "rb") as handle:
            while True:
                chunk = handle.read(65536)
                if chunk:
                    yield chunk
                    continue
                if job.finished or time.time() > deadline:
                    # One final read: the worker may have flushed between our
                    # empty read and the finished check.
                    chunk = handle.read(65536)
                    if chunk:
                        yield chunk
                        continue
                    return
                time.sleep(STREAM_POLL_S)

    # ------------------------------------------------------- live inspection
    def _handle_hosts(self, params, payload) -> Response:
        job = self._job(params)

        def snapshot(scenario):
            hosts = []
            for name in sorted(scenario.hosts):
                host = scenario.hosts[name]
                entry: Dict[str, Any] = {
                    "host": name,
                    "addr": host.addr,
                    "cm": host.cm is not None,
                }
                if host.cm is not None:
                    entry["open_flows"] = host.cm.open_flow_count
                    entry["macroflows"] = len(host.cm.macroflows)
                hosts.append(entry)
            return {"sim_time": scenario.sim.now, "hosts": hosts}

        return Response(200, self._inspect(job, snapshot))

    def _handle_macroflows(self, params, payload) -> Response:
        job = self._job(params)
        host_name = params["host"]

        def snapshot(scenario):
            if host_name not in scenario.hosts:
                raise ApiError(404, f"job {job.id} has no host {host_name!r}; "
                                    f"have {sorted(scenario.hosts)}")
            host = scenario.hosts[host_name]
            if host.cm is None:
                raise ApiError(409, f"host {host_name!r} has no Congestion Manager")
            return {
                "sim_time": scenario.sim.now,
                "host": host_name,
                "macroflows": [_macroflow_entry(mf) for mf in host.cm.macroflows],
            }

        return Response(200, self._inspect(job, snapshot))

    def _handle_flows(self, params, payload) -> Response:
        job = self._job(params)
        try:
            mf_id = int(params["mfid"])
        except ValueError:
            raise ApiError(400, f"macroflow id must be an integer, got {params['mfid']!r}")

        def snapshot(scenario):
            for name in sorted(scenario.hosts):
                cm = scenario.hosts[name].cm
                if cm is None:
                    continue
                for mf in cm.macroflows:
                    if mf.macroflow_id == mf_id:
                        return {
                            "sim_time": scenario.sim.now,
                            "host": name,
                            "macroflow_id": mf_id,
                            "flows": [_flow_entry(mf, flow)
                                      for _, flow in sorted(mf.flows.items())],
                        }
            raise ApiError(404, f"job {job.id} has no macroflow {mf_id}")

        return Response(200, self._inspect(job, snapshot))

    # --------------------------------------------------------- live mutation
    def _handle_attach_app(self, params, payload) -> Response:
        job = self._job(params)
        host_name = params["host"]
        app_name = payload.get("app")
        if not isinstance(app_name, str) or not app_name:
            raise ApiError(400, "'app' (registry application name) is required")
        peer = str(payload.get("peer", "") or "")
        label = str(payload.get("label", "") or "")
        app_params = payload.get("params", {})
        if not isinstance(app_params, dict):
            raise ApiError(400, "'params' must be a JSON object")

        def attach(scenario):
            return attach_app_in_loop(scenario, app_name, host_name,
                                      peer_name=peer, label=label,
                                      params=app_params)

        return Response(201, self._inspect(job, attach))

    def _handle_patch_link(self, params, payload) -> Response:
        job = self._job(params)
        link_name = params["link"]
        rate_bps = payload.get("rate_bps")
        delay = payload.get("delay")
        at = payload.get("at")
        if rate_bps is None and delay is None:
            raise ApiError(400, "nothing to change: pass 'rate_bps' and/or 'delay'")
        for field, value in (("rate_bps", rate_bps), ("delay", delay), ("at", at)):
            if value is not None and (not isinstance(value, (int, float))
                                      or isinstance(value, bool) or value < 0):
                raise ApiError(400, f"'{field}' must be a non-negative number")
        if rate_bps is not None and rate_bps <= 0:
            raise ApiError(400, "'rate_bps' must be positive")

        def patch(scenario):
            link = _find_link(scenario, link_name)
            if link is None:
                raise ApiError(404, f"job {job.id} has no link {link_name!r}; "
                                    f"have {[name for name, _ in _iter_links(scenario)]}")

            def apply() -> None:
                if rate_bps is not None:
                    link.rate_bps = float(rate_bps)
                if delay is not None:
                    link.delay = float(delay)

            now = scenario.sim.now
            if at is not None and at > now:
                scenario.sim.at(float(at), apply)
                applied_at = float(at)
            else:
                apply()
                applied_at = now
            return {
                "link": link_name,
                "rate_bps": link.rate_bps,
                "delay": link.delay,
                "applies_at": applied_at,
                "sim_time": now,
            }

        return Response(200, self._inspect(job, patch))

    def _handle_shutdown(self, params, payload) -> Response:
        # Deferred via Response.after: the transport triggers the teardown
        # only once the 202 body is on the wire, otherwise the process can
        # exit before the client has read its answer.
        return Response(202, {"ok": True, "message": "shutting down"},
                        after=self.on_shutdown)


def _is_int(value: Any) -> bool:
    """A JSON integer; ``true``/``false`` decode to bools, which are not."""
    return isinstance(value, int) and not isinstance(value, bool)


# ---------------------------------------------------------- snapshot shaping
def _jsonable(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def _macroflow_entry(mf) -> Dict[str, Any]:
    status = mf.status()
    scheduler = mf.scheduler
    entry = {
        "macroflow_id": mf.macroflow_id,
        "key": _jsonable(mf.key),
        "mtu": mf.mtu,
        "flows": sorted(mf.flows),
        "cwnd_bytes": status.cwnd_bytes,
        "rate_bps": status.rate,
        "srtt_s": status.srtt,
        "rttvar_s": status.rttvar,
        "loss_rate": status.loss_rate,
        "outstanding_bytes": mf.outstanding_bytes,
        "reserved_bytes": mf.reserved_bytes,
        "bytes_sent_total": mf.bytes_sent_total,
        "bytes_acked_total": mf.bytes_acked_total,
        "updates_received": mf.updates_received,
        "congestion_reactions": mf.congestion_reactions,
        "scheduler": type(scheduler).__name__,
        "pending_grants": scheduler.pending_requests(),
    }
    if hasattr(scheduler, "weight_of"):
        entry["shares"] = {
            str(flow_id): scheduler.weight_of(flow_id) for flow_id in sorted(mf.flows)
        }
    return entry


def _flow_entry(mf, flow) -> Dict[str, Any]:
    return {
        "flow_id": flow.flow_id,
        "src": flow.src,
        "dst": flow.dst,
        "sport": flow.sport,
        "dport": flow.dport,
        "protocol": flow.protocol,
        "state": flow.state,
        "granted_unnotified": flow.granted_unnotified,
        "outstanding_bytes": flow.outstanding_bytes,
        "pending_requests": mf.scheduler.pending_requests(flow.flow_id),
        "stats": dataclasses.asdict(flow.stats),
    }


def _iter_links(scenario) -> List[Tuple[str, Any]]:
    """Every (name, Link) pair, the same naming the telemetry layer uses."""
    links: List[Tuple[str, Any]] = []
    for (a, b), channel in scenario.channels.items():
        links.append((f"{a}->{b}", channel.forward))
        links.append((f"{b}->{a}", channel.reverse))
    if scenario.dumbbell is not None:
        links.append(("bottleneck", scenario.dumbbell.bottleneck))
        links.append(("bottleneck-rev", scenario.dumbbell.bottleneck_reverse))
    if scenario.graph_net is not None:
        for (a, b), link in scenario.graph_net.links.items():
            links.append((f"{a}->{b}", link))
    return links


def _find_link(scenario, name: str):
    for link_name, link in _iter_links(scenario):
        if link_name == name:
            return link
    return None
