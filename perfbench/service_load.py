"""The ``service_jobs`` harness: a ``repro.service`` server under open-loop load.

One client thread sends ``POST /v1/jobs`` with an inline ``spec`` body at a
fixed rate: request ``i`` is *due* at ``start + i / rate`` whether or not
earlier jobs have finished (an open loop, like independent users).  Every
job's latency runs from its due time, so a stall also charges the wait it
imposes on later requests, and the generator's own lateness is reported.
Job timestamps (``submitted_at``, ``started_at``, ``finished_at``) are read
once, after the last job finished; nothing is polled while jobs are sent.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import urllib.error
import urllib.request

from workloads import BENCH_DIR, ROOT

#: Finished jobs the server keeps in memory; must exceed the jobs of one run.
KEEP_FINISHED = 100_000
#: Concurrently running jobs.  Job threads share one interpreter lock, so a
#: second slot adds no throughput; one slot never exceeds ``nproc``.
SLOTS = 1


class Server:
    """A ``python -m repro.service serve`` child process on an ephemeral port."""

    def __init__(self, run_dir: str, trace_out: str = None):
        self.endpoint_file = os.path.join(run_dir, f"endpoint-{os.getpid()}-{time.monotonic_ns()}.json")
        serve = ["serve", "--port", "0", "--slots", str(SLOTS),
                 "--keep-finished", str(KEEP_FINISHED), "--endpoint-file", self.endpoint_file]
        if trace_out is None:
            command = [sys.executable, "-m", "repro.service"] + serve
        else:
            command = [sys.executable, os.path.join(BENCH_DIR, "traced_serve.py"), trace_out] + serve
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
        self.log_path = self.endpoint_file[:-len(".json")] + ".log"
        self._log = open(self.log_path, "w", encoding="utf-8")
        start = time.perf_counter()
        self.process = subprocess.Popen(command, cwd=ROOT, env=env, stdout=self._log,
                                        stderr=subprocess.STDOUT)
        self.url = self._wait_ready(deadline=time.monotonic() + 60.0)
        #: Server start until ``GET /`` answers.
        self.setup_s = time.perf_counter() - start

    def _wait_ready(self, deadline: float) -> str:
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(f"server exited with {self.process.returncode}; see {self.log_path}")
            try:
                with open(self.endpoint_file, "r", encoding="utf-8") as handle:
                    url = json.load(handle)["address"]
                status, _body = request(url, "GET", "/")
                if status == 200:
                    return url
            except (OSError, ValueError, KeyError):
                pass
            time.sleep(0.005)
        raise RuntimeError("server did not answer GET / within 60 s")

    def peak_rss_mb(self) -> float:
        """The server's peak RSS so far (Linux ``VmHWM``)."""
        with open(f"/proc/{self.process.pid}/status", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not reported")

    def stop(self) -> None:
        """``POST /v1/shutdown``, then wait for the process to end."""
        try:
            if self.process.poll() is None:
                request(self.url, "POST", "/v1/shutdown", {})
                self.process.wait(timeout=30.0)
        except (OSError, subprocess.TimeoutExpired):
            pass
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait(timeout=30.0)
            self._log.close()
            if os.path.exists(self.endpoint_file):
                os.remove(self.endpoint_file)
            if self.process.returncode == 0:
                os.remove(self.log_path)  # kept when the server failed


def request(url: str, method: str, path: str, body=None, timeout: float = 60.0):
    """One HTTP request; returns ``(status, body bytes)`` for any status."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    req = urllib.request.Request(url + path, data=data, method=method,
                                 headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def send_open_loop(url: str, bodies, rate: float):
    """Send ``bodies`` at ``rate`` per second; one record per request."""
    records = []
    start = time.time() + 0.05
    for index, body in enumerate(bodies):
        due = start + index / rate
        pause = due - time.time()
        if pause > 0:
            time.sleep(pause)
        sent = time.time()
        try:
            status, raw = request(url, "POST", "/v1/jobs", body)
            reply = json.loads(raw) if status == 201 else {"error": raw.decode("utf-8", "replace")}
        except (OSError, ValueError) as exc:
            status, reply = None, {"error": f"{type(exc).__name__}: {exc}"}
        records.append({"due": due, "sent": sent, "status": status,
                        "job": reply.get("job", {}).get("id"), "error": reply.get("error")})
    return records


def wait_idle(url: str, deadline: float) -> bool:
    """After the last send: wait until no job is queued or running."""
    while time.monotonic() < deadline:
        status, raw = request(url, "GET", "/")
        if status == 200:
            jobs = json.loads(raw)["jobs"]
            if jobs["queued"] == 0 and jobs["running"] == 0:
                return True
        time.sleep(0.05)
    return False


def collect(url: str, records):
    """Every job's status in one ``GET /v1/jobs``, then each job's result bytes."""
    status, raw = request(url, "GET", "/v1/jobs")
    statuses = {entry["id"]: entry for entry in json.loads(raw)["jobs"]} if status == 200 else {}
    results = {}
    for record in records:
        job_id = record["job"]
        if job_id is not None and statuses.get(job_id, {}).get("state") == "done":
            code, body = request(url, "GET", f"/v1/jobs/{job_id}/result")
            if code == 200:
                results[job_id] = body
    return statuses, results
