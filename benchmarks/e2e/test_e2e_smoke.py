"""Smoke test of the end-to-end benchmark: ``pytest benchmarks/e2e``.

Runs ``run.py --smoke`` (two segments at one tenth of the operations,
every check on) and asserts that every declared metric is reported.
Everything goes through subprocesses, exactly as the benchmark is used.
"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")

WORKLOADS = ("sim_steady", "sim_indoubt", "sim_paxos", "live_durable", "live_volatile")
END_TO_END = (
    "commits_per_s", "commit_latency_p50_ms", "commit_latency_p99_ms",
    "failure_ratio", "setup_s", "peak_rss_mb", "drain_sim_s",
    "restart_to_commit_ms",
)
#: The only workload each workload-specific metric is a number on.
ONLY_ON = {"drain_sim_s": "sim_indoubt", "restart_to_commit_ms": "live_durable"}


def run(*arguments, cwd=REPO, script=RUN):
    return subprocess.run(
        [sys.executable, script, *arguments],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )


def manifest():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke_report():
    done = run("--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    with open(os.path.join(HERE, "out", "report.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_manifest_matches_the_declarations(smoke_report):
    declared = manifest()
    assert smoke_report["declared"]["end_to_end"] == declared["end_to_end"]
    assert smoke_report["declared"]["per_layer"] == declared["per_layer"]
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert declared["paths"] == ["benchmarks/e2e"]


def test_every_declared_metric_is_reported(smoke_report):
    assert smoke_report["correct"]
    per_layer_names = [m["name"] for m in manifest()["per_layer"]]
    for workload in WORKLOADS:
        result = smoke_report["workloads"][workload]
        assert set(result["end_to_end"]) == set(END_TO_END)
        for name, value in result["end_to_end"].items():
            if name in ONLY_ON and ONLY_ON[name] != workload:
                assert value is None, (workload, name)
            else:
                assert math.isfinite(value), (workload, name)
        assert set(result["per_layer"]) == set(per_layer_names)
        for name, value in result["per_layer"].items():
            assert value is None or math.isfinite(value), (workload, name)
        assert result["failed"] == 0
        assert result["trace"]["unresolved"] == []


def test_workloads_exercise_what_they_claim(smoke_report):
    layers = {w: smoke_report["workloads"][w]["per_layer"] for w in WORKLOADS}
    assert layers["sim_indoubt"]["core.polyvalue.installed"] > 0
    assert layers["sim_indoubt"]["core.polytransaction.polytxn_share"] > 0
    assert layers["sim_steady"]["core.polyvalue.installed"] == 0
    assert layers["sim_steady"]["core.polytransaction.polytxn_share"] == 0
    assert layers["sim_paxos"]["txn.paxos.calls_per_commit"] > 0
    assert layers["sim_steady"]["txn.paxos.calls_per_commit"] == 0
    assert layers["live_durable"]["runtime.aio.checkpoint.writes_per_commit"] > 5
    assert layers["live_volatile"]["runtime.aio.checkpoint.writes_per_commit"] == 0
    assert layers["live_durable"]["runtime.aio.handler_errors"] == 0
    for workload in ("sim_steady", "sim_indoubt", "sim_paxos"):
        assert layers[workload]["trace.untraced_share"] <= 0.25


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_contract_line(trace, section):
    done = run("--workload", "sim_steady", "--seed", "3", "--seconds", "1",
               "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    declared = manifest()[section]
    assert list(line["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        reported = line["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"])
        if section == "end_to_end":
            assert reported["value"] > 0


def test_same_seed_same_run_other_seed_other_inputs():
    def fingerprint(seed):
        done = run("--workload", "sim_indoubt", "--seed", seed, "--trace", "0", "--smoke")
        assert done.returncode == 0, done.stderr
        with open(os.path.join(HERE, "out", "sim_indoubt.json"), encoding="utf-8") as fh:
            result = json.load(fh)
        deterministic = [result["end_to_end"][name] for name in (
            "commit_latency_p50_ms", "commit_latency_p99_ms", "failure_ratio",
            "drain_sim_s")]
        return result["info"]["fingerprint"], deterministic

    assert fingerprint("5") == fingerprint("5")
    assert fingerprint("5")[0] != fingerprint("6")[0]


def test_drivers_import_only_the_api_facade():
    deep = re.compile(r"^\s*(?:from|import)\s+repro(?!\.api\b)", re.MULTILINE)
    reach = re.compile(r"\.(?:sim|network|runtime|catalog|metrics)\.")
    for name in sorted(os.listdir(HERE)):
        if not name.endswith(".py") or name in ("layers.py", os.path.basename(__file__)):
            continue
        with open(os.path.join(HERE, name), encoding="utf-8") as fh:
            source = fh.read()
        assert not deep.search(source), f"{name} imports deeper than repro.api"
        assert not reach.search(source), f"{name} reaches into a cluster's internals"


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = run("--workload", "sim_steady", "--seed", "0", "--seconds", "1",
               "--trace", "0", cwd=tmp_path,
               script=str(tmp_path / "benchmarks" / "e2e" / "run.py"))
    assert done.returncode != 0
    assert "{" not in done.stdout
