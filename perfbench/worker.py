"""Child process of the benchmark: one set-up, or the measured batch passes.

``worker.py setup`` times a cold set-up (import, spec construction and
validation, build) and prints ``{"setup_s": ...}``.  ``worker.py work``
runs passes of a batch workload's fixed input for ``--seconds`` and writes
per-operation timings, verdicts and peak RSS to ``--out``; with
``--trace 1`` it runs one untraced pass, then one traced pass, and adds the
per-layer metrics (graph_mix also runs its sharded-pinned presets on the
sharded engine, for the ``parallel.*`` metrics).  Running the work in its
own process keeps its peak RSS apart from the benchmark driver's.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import glob
import json
import os
import resource
import sys
import tempfile
import time

import workloads
from report import FAILED, layer_metrics
from tracer import Tracer, merge_summaries, write_spans

sys.path.insert(0, os.path.join(workloads.ROOT, "src"))

#: Passes every untraced run makes at least, so each operation has a median.
MIN_PASSES = 2


def _peak_rss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class Checker:
    """Counts operations and judges each result's bytes.

    The first correct result of an operation becomes the expected bytes of
    every later pass (and of the traced pass), so a pass that drifts from
    the first one fails even at seeds with no recorded reference.
    """

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.reference = workloads.load_reference()
        self.expected = {}
        self.attempted = 0
        self.failures = []

    def judge(self, item, text, error) -> bool:
        self.attempted += 1
        if error is None:
            digest = workloads.sha256(text)
            if item.key in self.expected:
                if digest != self.expected[item.key]:
                    error = f"{item.key}: bytes differ from the first pass"
            else:
                error = workloads.check_item(self.workload, self.seed, item, text, self.reference)
                if error is None:
                    self.expected[item.key] = digest
        if error is not None:
            self.failures.append(error)
        return error is None


def _timed(fn, *args):
    """``(text, seconds)`` of ``fn(*args)``.

    Every operation starts after a full garbage collection, so one
    operation's garbage is not collected on the next one's clock.
    """
    gc.collect()
    start = time.perf_counter()
    text = fn(*args)
    return text, time.perf_counter() - start


class TrialClock:
    """Times every experiment trial: a paper_smoke *job* is one trial.

    The 15 experiments of a pass are too few, and too unlike each other,
    for a steady median; their ~60 trials are not.  The clock goes on
    through ``registry.register`` (the registry's public hook), costs one
    ``perf_counter`` pair per trial, and stays on in untraced runs.
    """

    def __init__(self):
        from repro.experiments import registry

        self.durations = []
        for spec in list(registry.SPECS.values()):
            registry.register(dataclasses.replace(spec, trial=self._timed(spec.trial)))

    def _timed(self, trial):
        def timed_trial(params):
            start = time.perf_counter()
            try:
                return trial(params)
            finally:
                self.durations.append(time.perf_counter() - start)

        return timed_trial

    def take(self):
        durations, self.durations = self.durations, []
        return durations


def batch_operation(workload):
    """``operation(item, spec) -> (text, seconds, job seconds)`` for a workload.

    graph_mix builds (untimed) and runs one preset, which is also its one
    job; a paper_smoke operation is one experiment and its jobs are trials.
    """
    if workload == "paper_smoke":
        clock = TrialClock()

        def operation(item, spec):
            clock.take()
            text, seconds = _timed(workloads.run_item, workload, item, spec, None)
            return text, seconds, clock.take()
    else:
        def operation(item, spec):
            built = workloads.build_item(workload, item, spec)
            text, seconds = _timed(workloads.run_item, workload, item, spec, built)
            return text, seconds, [seconds]

    return operation


def sharded_operation(item, spec):
    text, seconds = _timed(workloads.run_sharded_item, item, spec)
    return text, seconds, [seconds]


def run_pass(items, prepared, checker, operation, tracer=None):
    """One pass over ``items``; returns ``[(key, seconds, job seconds)]``.

    Only the operation itself is timed; checking happens outside the timed
    region.  A failed operation's time, and one job of it, are
    :data:`FAILED`.
    """
    timings = []
    for item, spec in zip(items, prepared):
        text, seconds, jobs, error = None, FAILED, [], None
        try:
            if tracer is None:
                text, seconds, jobs = operation(item, spec)
            else:
                text, seconds, jobs = tracer.span("bench", f"bench.{item.key}", operation,
                                                  item, spec, unit=True)
        except Exception as exc:  # a failed operation is counted, not fatal
            error = f"{item.key}: {type(exc).__name__}: {exc}"
        if not checker.judge(item, text, error):
            seconds, jobs = FAILED, jobs + [FAILED]
        timings.append((item.key, seconds, jobs))
    return timings


def traced_pass(items, prepared, checker, operation, dump_dir):
    """One pass with the tracer installed: ``(timings, summary, spans)``.

    ``spans`` is ``[(pid, spans)]`` for this process and every shard worker.
    """
    tracer = Tracer()
    tracer.install(dump_dir=dump_dir)
    try:
        timings = run_pass(items, prepared, checker, operation, tracer=tracer)
    finally:
        tracer.uninstall()
    dumps = []
    for path in sorted(glob.glob(os.path.join(dump_dir, "shard-*.json"))):
        with open(path, "r", encoding="utf-8") as handle:
            dumps.append(json.load(handle))
        os.remove(path)
    summary = merge_summaries([tracer.summary()] + [d["summary"] for d in dumps])
    spans = [(os.getpid(), list(tracer.spans()))] + [(d["pid"], d["spans"]) for d in dumps]
    return timings, summary, spans


def _busy(timings) -> float:
    return sum(seconds for _key, seconds, _jobs in timings)


def _parallel_layer(items, prepared, untraced, checker, dump_dir):
    """netsim.parallel metrics, from the graph_mix presets tier-1 pins sharded.

    Those presets, at their first-slot seeds, run once on the sharded
    engine untraced (their bytes must equal the single-process run's) and
    once traced (for the partitioner's time).
    """
    first = len(workloads.GRAPH_MIX)
    chosen = [(item, spec, seconds) for item, spec, (_key, seconds, _jobs)
              in zip(items[:first], prepared[:first], untraced[:first])
              if item.name in workloads.GRAPH_SHARDED]
    sharded_items = [item for item, _spec, _s in chosen]
    sharded_specs = [spec for _item, spec, _s in chosen]
    sharded = run_pass(sharded_items, sharded_specs, checker, sharded_operation)
    layers = {
        "parallel.sharded_over_single": _busy(sharded) / sum(s for _i, _p, s in chosen),
        "parallel.coordinator_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF),
        "parallel.worker_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN),
    }
    _timings, summary, spans = traced_pass(sharded_items, sharded_specs, checker,
                                           sharded_operation, dump_dir)
    layers["parallel.partition_s"] = summary["incl_s"].get("parallel.partition_graph", 0.0)
    return layers, summary, spans


def cmd_setup(args) -> int:
    start = time.perf_counter()
    workloads.setup(args.workload, args.seed)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def cmd_work(args) -> int:
    workload = args.workload
    items = workloads.items_for(workload, args.seed)
    prepared = workloads.prepare(workload, items)
    checker = Checker(workload, args.seed)
    operation = batch_operation(workload)
    out = {"workload": workload, "seed": args.seed, "operations": [i.key for i in items]}

    if not args.trace:
        passes = []
        window = time.perf_counter()
        while True:
            passes.append(run_pass(items, prepared, checker, operation))
            elapsed = time.perf_counter() - window
            if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
        out["passes"] = passes
        out["min_passes"] = MIN_PASSES
        out["window_s"] = time.perf_counter() - window
    else:
        untraced = run_pass(items, prepared, checker, operation)
        busy = _busy(untraced)
        dump_dir = tempfile.mkdtemp(prefix="shards-", dir=os.path.dirname(args.out))
        parallel, parallel_spans = {}, []
        if workload == "graph_mix":
            # Before the main traced pass, so the RSS split excludes its spans.
            parallel, out["parallel_summary"], parallel_spans = _parallel_layer(
                items, prepared, untraced, checker, dump_dir)
        traced, summary, spans = traced_pass(items, prepared, checker, operation, dump_dir)
        os.rmdir(dump_dir)
        layers = layer_metrics(summary, busy)
        layers.update(parallel)
        layers["trace.overhead"] = _busy(traced) / busy
        write_spans(args.spans, spans + parallel_spans)
        out.update({"passes": [untraced], "traced_pass": traced, "layers": layers,
                    "summary": summary})

    out["attempted"] = checker.attempted
    out["failures"] = checker.failures
    out["rss_self_mb"] = _peak_rss_mb(resource.RUSAGE_SELF)
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    setup = sub.add_parser("setup")
    work = sub.add_parser("work")
    for command in (setup, work):
        command.add_argument("--workload", choices=workloads.BATCH_WORKLOADS, required=True)
        command.add_argument("--seed", type=int, required=True)
    work.add_argument("--seconds", type=float, required=True)
    work.add_argument("--trace", type=int, choices=(0, 1), default=0)
    work.add_argument("--out", required=True)
    work.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    return cmd_setup(args) if args.command == "setup" else cmd_work(args)


if __name__ == "__main__":
    sys.exit(main())
