"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q`` from the repo root.

They check the benchmark, not the simulator: that a corrupted result counts
as a failed operation, that tracing leaves result bytes alone, and that the
seed argument really changes the generated inputs.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import Checker  # noqa: E402


def _flip(text: str) -> str:
    middle = len(text) // 2
    return text[:middle] + chr(ord(text[middle]) ^ 1) + text[middle + 1:]


class TestFailedOperations:
    def test_flipped_byte_against_golden_is_a_failure(self):
        item = workloads.items_for("graph_mix", workloads.DEFAULT_SEED)[0]
        with open(workloads.golden_path(item), "r", encoding="utf-8") as handle:
            golden = handle.read()
        checker = Checker("graph_mix", workloads.DEFAULT_SEED)
        assert checker.judge(item, golden, None)
        assert not checker.judge(item, _flip(golden), None)
        assert checker.attempted == 2 and len(checker.failures) == 1

    def test_flipped_byte_against_reference_digest_is_a_failure(self):
        item = [i for i in workloads.items_for("paper_smoke", workloads.HELDOUT_SEED)
                if i.name == "figure7"][0]
        from repro.experiments import registry

        text = workloads.run_item("paper_smoke", item, registry.get_spec(item.name), None)
        checker = Checker("paper_smoke", workloads.HELDOUT_SEED)
        assert checker.judge(item, text, None)
        assert not checker.judge(item, _flip(text), None)

    def test_flipped_byte_in_a_later_pass_is_a_failure(self):
        # A seed with no recorded reference: pass 1 passes the schema check
        # and becomes the expected bytes of every later pass.
        item = workloads.items_for("graph_mix", 7)[3]
        from repro import scenario

        text = scenario.run(scenario.get_preset(item.name), seed=item.seed).to_json()
        checker = Checker("graph_mix", 7)
        assert checker.judge(item, text, None)
        assert not checker.judge(item, _flip(text), None)
        assert checker.judge(item, text, None)

    def test_exception_is_a_failure(self):
        item = workloads.items_for("graph_mix", 7)[0]
        checker = Checker("graph_mix", 7)
        assert not checker.judge(item, None, "boom")

    def test_flipped_service_result_is_a_failure(self):
        pair = ("web_vat_mix", 5)
        expected = {pair: b'{"ok": 1}\n'}
        record = {"job": 1, "status": 201, "error": None, "due": 0.0}
        status = {1: {"state": "done", "submitted_at": 0.1, "started_at": 0.2, "finished_at": 0.3}}
        failures = []
        good = run._judge_service([pair], [record], status, {1: b'{"ok": 1}\n'}, expected, failures)
        assert good[0][0] == pytest.approx(0.3) and failures == []
        bad = run._judge_service([pair], [record], status, {1: b'{"ok": 0}\n'}, expected, failures)
        assert bad[0][0] == float("inf") and len(failures) == 1


class TestTracing:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_traced_run_reproduces_untraced_bytes(self, tmp_path, shards):
        from repro import scenario

        spec = scenario.get_preset("gilbert_wireless_bulk")
        untraced = scenario.run(spec, seed=spec.seed, shards=shards).to_json()
        tracer = Tracer()
        tracer.install(dump_dir=str(tmp_path))
        try:
            traced = scenario.run(spec, seed=spec.seed, shards=shards).to_json()
        finally:
            tracer.uninstall()
        assert traced == untraced
        counts = tracer.summary()["counts"]
        if shards == 1:
            assert counts["Link.send"] > 0 and counts["IngressSequencer.deliver"] > 0
        else:
            assert counts["parallel.partition_graph"] == 1
            assert len(list(tmp_path.glob("shard-*.json"))) == 2

    def test_uninstall_restores_every_hook(self):
        from repro.experiments import registry
        from repro.netsim.link import Link

        send, trial = Link.send, registry.get_spec("figure3").trial
        tracer = Tracer()
        tracer.install()
        assert Link.send is not send and registry.get_spec("figure3").trial is not trial
        tracer.uninstall()
        assert Link.send is send and registry.get_spec("figure3").trial is trial


class TestSeeds:
    def test_seed_changes_batch_inputs(self):
        for workload in workloads.BATCH_WORKLOADS:
            assert workloads.items_for(workload, 3) == workloads.items_for(workload, 3)
            assert workloads.items_for(workload, 3) != workloads.items_for(workload, 4)

    def test_seed_changes_service_jobs(self):
        assert workloads.service_jobs(3, 40) == workloads.service_jobs(3, 40)
        assert workloads.service_jobs(3, 40) != workloads.service_jobs(4, 40)

    def test_default_seed_runs_the_golden_seeds(self):
        from repro import scenario

        items = workloads.items_for("graph_mix", workloads.DEFAULT_SEED)
        first_slot = items[:len(workloads.GRAPH_MIX)]
        assert [item.name for item in first_slot] == list(workloads.GRAPH_MIX)
        for item in first_slot:
            assert item.seed == scenario.get_preset(item.name).seed
            assert os.path.exists(workloads.golden_path(item))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(workloads.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        command = json.load(handle)["command"]
    completed = subprocess.run(
        [sys.executable] + command[1:] + ["--workload", "graph_mix", "--seed", "1",
                                          "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert completed.returncode != 0
    assert completed.stdout == ""
