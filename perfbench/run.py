"""Benchmark of the Congestion Manager simulator: one workload, one seed, one run.

Run from the repository root::

    python3 perfbench/run.py --service-rate 3 --workload graph_mix --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``).  The line before it is the full report: the platform
fingerprint, the sample count behind every median and tail, and the reason
for every per-layer metric a workload cannot measure.  Reports and spans are
also written under ``.perfbench/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import service_load
import workloads
from report import (FAILED, fingerprint, finite, layer_metrics, load_benchmark, median,
                    not_measured, tail)
from tracer import write_spans

#: Cold set-ups measured per run; ``setup_s`` is their median.
SETUP_REPEATS = 5
#: Everything a run does must end within this many seconds.
RUN_BUDGET_S = 170.0
RUN_DIR = os.path.join(workloads.ROOT, ".perfbench")
WORKER = os.path.join(workloads.BENCH_DIR, "worker.py")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(workloads.ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _worker(argv, deadline: float) -> str:
    """Run ``worker.py`` to completion and return its standard output."""
    completed = subprocess.run([sys.executable, WORKER] + argv, cwd=workloads.ROOT, env=_child_env(),
                               capture_output=True, text=True,
                               timeout=max(1.0, deadline - time.monotonic()))
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise RuntimeError(f"worker {' '.join(argv[:3])} exited with {completed.returncode}")
    return completed.stdout


def _label(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}"


# ------------------------------------------------------------ batch workloads
def run_batch(args, deadline: float):
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            lines = _worker(["setup"] + common, deadline).strip().splitlines()
            setups.append(json.loads(lines[-1])["setup_s"])
    out_path = os.path.join(RUN_DIR, f"work-{_label(args)}.json")
    spans_path = os.path.join(RUN_DIR, f"spans-{_label(args)}.jsonl")
    _worker(["work"] + common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                                 "--out", out_path, "--spans", spans_path], deadline)
    with open(out_path, "r", encoding="utf-8") as handle:
        work = json.load(handle)
    os.remove(out_path)

    failures = work["failures"]
    report = {"attempted": work["attempted"], "failed": len(failures), "failures": failures[:20]}
    if args.trace:
        report["layers"] = work["layers"]
        report["trace_summary"] = work["summary"]
        report["spans_file"] = os.path.relpath(spans_path, workloads.ROOT)
        report["samples"] = {"operations": len(work["operations"]), "untraced_passes": 1,
                             "traced_passes": 1}
        return report

    # run_s adds up each operation's median over the passes, so one slow
    # pass of one operation (a neighbour's burst of load) does not move it.
    passes = work["passes"]
    per_operation = list(zip(*[[seconds for _key, seconds, _jobs in timings] for timings in passes]))
    totals = [sum(seconds for _key, seconds, _jobs in timings) for timings in passes]
    latencies = [job for timings in passes for _key, _seconds, jobs in timings for job in jobs]
    jobs_per_pass = sum(len(jobs) for _key, _seconds, jobs in passes[0])
    tail_value, tail_pct = tail(latencies, min_count=work["min_passes"] * jobs_per_pass)
    report["metrics"] = {
        "setup_s": median(setups),
        "run_s": sum(median(timings) for timings in per_operation),
        "job_latency_p50_s": median(latencies),
        "job_latency_tail_s": tail_value,
        "peak_rss_mb": work["rss_self_mb"],
    }
    report["samples"] = {
        "setup_s": len(setups), "run_s": len(totals), "job_latency_p50_s": len(latencies),
        "job_latency_tail_s": len(latencies), "job_latency_tail_percentile": tail_pct,
        "peak_rss_mb": 1,
    }
    report["peak_rss_process"] = "the benchmark worker"
    report["raw"] = {"setup_s": setups, "pass_s": totals, "window_s": work["window_s"],
                     "operation_s": dict(zip(work["operations"], per_operation))}
    return report


# ------------------------------------------------------------ service workload
def _service_bodies(args):
    sys.path.insert(0, os.path.join(workloads.ROOT, "src"))
    from repro import scenario

    count = max(1, int(round(args.service_rate * args.seconds)))
    jobs = workloads.service_jobs(args.seed, count)
    specs = {name: scenario.get_preset(name).to_dict() for name in set(workloads.SERVICE_PATTERN)}
    return jobs, [{"spec": specs[name], "seed": seed} for name, seed in jobs]


def _expected_results(jobs):
    """Batch ``run()`` bytes of every distinct (preset, seed) pair."""
    from repro import scenario

    return {pair: scenario.run(scenario.get_preset(pair[0]), seed=pair[1]).to_json().encode("utf-8")
            for pair in sorted(set(jobs))}


def _service_pass(args, bodies, deadline, trace_out=None, setups=None):
    """Start a server, send the load, collect statuses and results, stop it."""
    starts = SETUP_REPEATS if setups is not None else 1
    for index in range(starts):
        server = service_load.Server(RUN_DIR, trace_out=trace_out)
        if setups is not None:
            setups.append(server.setup_s)
        if index < starts - 1:
            server.stop()
    try:
        records = service_load.send_open_loop(server.url, bodies, args.service_rate)
        drained = service_load.wait_idle(server.url, deadline)
        statuses, results = service_load.collect(server.url, records)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    if not drained:
        raise RuntimeError("service jobs did not finish before the run's deadline")
    return records, statuses, results, rss


def _judge_service(jobs, records, statuses, results, expected, failures):
    """Per job: (latency, admit, queue wait, run) with failures as infinite."""
    rows = []
    for pair, record in zip(jobs, records):
        status = statuses.get(record["job"], {})
        problem = None
        if record["status"] != 201:
            problem = f"POST /v1/jobs answered {record['status']}: {record['error']}"
        elif status.get("state") != "done":
            problem = f"job {record['job']} ended {status.get('state')}: {status.get('error')}"
        elif results.get(record["job"]) != expected[pair]:
            problem = f"job {record['job']} {pair}: result bytes differ from batch run()"
        if problem is not None:
            failures.append(problem)
            rows.append((FAILED, FAILED, FAILED, FAILED))
            continue
        rows.append((status["finished_at"] - record["due"],
                     status["submitted_at"] - record["due"],
                     status["started_at"] - status["submitted_at"],
                     status["finished_at"] - status["started_at"]))
    return rows


def run_service(args, deadline: float):
    jobs, bodies = _service_bodies(args)
    failures = []
    setups = [] if not args.trace else None
    records, statuses, results, rss = _service_pass(args, bodies, deadline, setups=setups)
    # Everything below is outside the timed window.
    expected = _expected_results(jobs)
    rows = _judge_service(jobs, records, statuses, results, expected, failures)
    attempted = len(jobs)
    latencies = [row[0] for row in rows]
    lags = [record["sent"] - record["due"] for record in records]
    report = {"service_rate_per_s": args.service_rate, "slots": service_load.SLOTS}

    if not args.trace:
        tail_value, tail_pct = tail(latencies)
        report["metrics"] = {
            "setup_s": median(setups),
            # The slot's busy seconds: the makespan would only echo the rate.
            "run_s": sum(row[3] for row in rows),
            "job_latency_p50_s": median(latencies),
            "job_latency_tail_s": tail_value,
            "peak_rss_mb": rss,
        }
        report["samples"] = {
            "setup_s": len(setups), "run_s": 1, "job_latency_p50_s": len(latencies),
            "job_latency_tail_s": len(latencies), "job_latency_tail_percentile": tail_pct,
            "peak_rss_mb": 1,
        }
        report["peak_rss_process"] = "the service process"
        report["raw"] = {"setup_s": setups}
    else:
        trace_out = os.path.join(RUN_DIR, f"server-trace-{_label(args)}.json")
        t_records, t_statuses, t_results, _ = _service_pass(args, bodies, deadline, trace_out=trace_out)
        t_rows = _judge_service(jobs, t_records, t_statuses, t_results, expected, failures)
        attempted += len(jobs)
        with open(trace_out, "r", encoding="utf-8") as handle:
            dump = json.load(handle)
        os.remove(trace_out)
        busy = sum(row[3] for row in rows)
        summary = dump["summary"]
        layers = layer_metrics(summary, busy)
        layers.update({
            "service.admit_s": median(row[1] for row in rows),
            "service.queue_wait_s": median(row[2] for row in rows),
            "service.job_run_s": median(row[3] for row in rows),
            "loadgen.lag_p50_s": median(lags),
            "loadgen.lag_max_s": max(lags),
            "trace.overhead": sum(row[3] for row in t_rows) / busy,
        })
        spans_path = os.path.join(RUN_DIR, f"spans-{_label(args)}.jsonl")
        write_spans(spans_path, [(dump["pid"], dump["spans"])])
        report["layers"] = layers
        report["trace_summary"] = summary
        report["spans_file"] = os.path.relpath(spans_path, workloads.ROOT)
        report["samples"] = {"service": len(rows), "loadgen": len(lags)}
    report.update({"attempted": attempted, "failed": len(failures), "failures": failures[:20]})
    return report


# -------------------------------------------------------------------- output
def select_metrics(args, report, benchmark):
    """Exactly the metrics ``BENCHMARK.json`` lists for this mode, with units."""
    if not args.trace:
        values = report["metrics"]
        return {m["name"]: {"value": finite(values[m["name"]]), "unit": m["unit"]}
                for m in benchmark["end_to_end"]}
    layers = report["layers"]
    selected, notes = {}, {}
    for metric in benchmark["per_layer"]:
        name = metric["name"]
        reason = not_measured(args.workload, name)
        if reason is not None:
            notes[name] = f"not measured: {reason}"
            value = 0
        else:
            value = layers[name]
        selected[name] = {"value": finite(value), "unit": metric["unit"]}
    report["not_measured"] = notes
    return selected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--service-rate", type=float, default=None, metavar="JOBS_PER_S",
                        help="open-loop submission rate of service_jobs (fixed in BENCHMARK.json)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(workloads.ROOT, "src", "repro", "__init__.py")):
        print("perfbench: no src/repro here; run from the root of a repository checkout",
              file=sys.stderr)
        return 2
    if args.workload == "service_jobs" and not args.service_rate:
        parser.error("service_jobs needs --service-rate")

    benchmark = load_benchmark()
    os.makedirs(RUN_DIR, exist_ok=True)
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    if args.workload == "service_jobs":
        report = run_service(args, deadline)
    else:
        report = run_batch(args, deadline)
    metrics = select_metrics(args, report, benchmark)
    report.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "fingerprint": fingerprint(),
                   "elapsed_s": time.monotonic() - started})
    with open(os.path.join(RUN_DIR, f"report-{_label(args)}.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
    print(json.dumps({key: report[key] for key in ("workload", "seed", "fingerprint", "samples",
                                                  "failures") if key in report}
                     | {"not_measured": report.get("not_measured", {})}))
    print(json.dumps({"correct": report["failed"] == 0, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
