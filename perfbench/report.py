"""Statistics, per-layer metric definitions and the platform fingerprint."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
from statistics import median  # noqa: F401  (re-exported for run.py)

from workloads import ROOT

BENCHMARK_PATH = os.path.join(ROOT, "BENCHMARK.json")

#: Latency recorded for an operation that failed: it misses every limit.
FAILED = math.inf


def load_benchmark() -> dict:
    with open(BENCHMARK_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def tail(values, min_count=None):
    """``(value, percentile)``: the tail percentile every run of a workload supports.

    The percentile is the highest with at least ten samples beyond it when
    a run has its minimum number of samples, ``min_count`` (default: all of
    ``values``).  A run that made more passes reports the same percentile,
    with more samples beyond it, so runs stay comparable.  Below 11 samples
    no percentile has ten beyond it; the maximum is returned, labelled 100.
    """
    ordered = sorted(values)
    n = len(ordered)
    base = min_count or n
    if base < 11:
        return ordered[-1], 100.0
    # The sample at percentile (base - 10) / base, in integer arithmetic.
    index = ((base - 10) * n + base - 1) // base - 1
    return ordered[index], 100.0 * (base - 10) / base


def finite(value: float) -> float:
    """JSON-safe number: a failed operation's infinite latency becomes 1e9 s."""
    return value if math.isfinite(value) else 1e9


def source_digest() -> str:
    """sha256 over ``src/`` — identifies the code when there is no git."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for filename in sorted(filenames):
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                digest.update(os.path.relpath(path, src).encode("utf-8"))
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def _commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        completed = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                   text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return completed.stdout.strip() if completed.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> dict:
    """Where a number was measured; numbers from different fingerprints never compare."""
    return {
        "commit": _commit(),
        "source_sha256": source_digest(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


def _count(counts, *names):
    return sum(counts.get(name, 0) for name in names)


def layer_metrics(summary: dict, busy_s: float) -> dict:
    """Per-layer metrics from a tracer summary.

    ``busy_s`` is the untraced host time the same input took; it turns the
    link hop count into ``engine.us_per_packet_hop``.  ``*.self_s`` values
    are self times; ``scenario.*_s`` and ``experiments.*_s`` are inclusive.
    """
    counts = summary["counts"]
    self_s = summary["self_s"]
    incl = summary["incl_s"]
    harvest = summary["harvest"]
    hops = harvest.get("link_delivered", 0) + harvest.get("link_dropped", 0)
    late = _count(counts, "Simulator.push_late")
    deliveries = _count(counts, "IngressSequencer.deliver", "IngressSequencer.inject")
    requests = _count(counts, "CongestionManager.cm_request", "CongestionManager.cm_bulk_request")
    grants = _count(counts, "DirectChannel.post_send_grant", "ControlSocketChannel.post_send_grant")
    dequeued = harvest.get("link_dequeued", 0)
    return {
        "engine.events": harvest.get("events", 0),
        "engine.late_pushes": late,
        "engine.other_self_s": self_s.get("engine", 0.0),
        "engine.us_per_packet_hop": busy_s * 1e6 / hops if hops else 0.0,
        "link.sends": _count(counts, "Link.send"),
        "link.self_s": self_s.get("link", 0.0),
        "link.drops": harvest.get("link_dropped", 0),
        "link.mean_queue_delay_s": harvest.get("link_queue_delay_s", 0.0) / dequeued if dequeued else 0.0,
        "ingress.deliveries": deliveries,
        "ingress.batch_ratio": deliveries / late if late else 0.0,
        "ingress.self_s": self_s.get("ingress", 0.0),
        "ip.sends": _count(counts, "IPLayer.send"),
        "ip.receives": _count(counts, "IPLayer.receive"),
        "ip.forward_drops": harvest.get("ip_forward_drops", 0),
        "ip.self_s": self_s.get("ip", 0.0),
        "tcp.segments": _count(counts, "TCPSenderBase._handle_packet", "TCPListener._handle_packet"),
        "tcp.self_s": self_s.get("tcp", 0.0),
        "udp.sends": _count(counts, "UDPSocket.sendto", "CMUDPSocket.sendto"),
        "udp.feedback_acks": _count(counts, "AppFeedbackTracker.on_ack",
                                    "AppFeedbackTracker.on_cumulative_ack"),
        "udp.self_s": self_s.get("udp", 0.0),
        "cm.requests": requests,
        "cm.notifies": _count(counts, "CongestionManager.cm_notify"),
        "cm.updates": _count(counts, "CongestionManager.cm_update"),
        "cm.grants": grants,
        "cm.grants_per_request": grants / requests if requests else 0.0,
        "cm.self_s": self_s.get("core", 0.0),
        "libcm.polls": _count(counts, "LibCM.poll"),
        "libcm.self_s": self_s.get("libcm", 0.0),
        "hostmodel.charges": _count(counts, "HostCosts.charge_operation", "HostCosts.charge_copy",
                                    "HostCosts.charge_checksum"),
        "hostmodel.self_s": self_s.get("hostmodel", 0.0),
        "scenario.validate_s": incl.get("ScenarioSpec.validate", 0.0),
        "scenario.build_s": incl.get("scenario.build", 0.0),
        "experiments.trials": _count(counts, "experiments.trial"),
        "experiments.trial_s": incl.get("experiments.trial", 0.0),
        "experiments.reduce_s": incl.get("experiments.reduce", 0.0),
        "parallel.partition_s": incl.get("parallel.partition_graph", 0.0),
    }


#: Per-layer metrics that only one workload can produce, and why.
WORKLOAD_ONLY = {
    "experiments.": ("paper_smoke", "no experiment trials run in this workload"),
    "parallel.": ("graph_mix", "only graph_mix's traced run runs presets sharded"),
    "service.": ("service_jobs", "this workload submits no service jobs"),
    "loadgen.": ("service_jobs", "this workload has no load generator"),
}


def not_measured(workload: str, name: str):
    """The reason ``name`` is not measured on ``workload``, or ``None``."""
    for prefix, (owner, reason) in WORKLOAD_ONLY.items():
        if name.startswith(prefix) and workload != owner:
            return reason
    return None
