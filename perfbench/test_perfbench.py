"""Tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402

run.load_program()

import layers  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------
@pytest.fixture
def square():
    """a -> b -> d costs 2, a -> c -> d costs 3, a -> d costs 5."""
    return oracle.CostTable([
        ("a", "b", 1.0), ("b", "d", 1.0),
        ("a", "c", 1.0), ("c", "d", 2.0),
        ("a", "d", 5.0),
    ])


def test_oracle_accepts_an_optimal_route(square):
    optimal = square.distances("a")
    assert optimal["d"] == 2.0
    assert oracle.check_route(square, optimal, "a", "d", True, 2.0, ["a", "b", "d"]) is None


def test_oracle_flags_a_planted_wrong_cost(square):
    optimal = square.distances("a")
    complaint = oracle.check_route(square, optimal, "a", "d", True, 3.0, ["a", "c", "d"])
    assert complaint is not None and "optimal" in complaint


def test_oracle_flags_a_planted_broken_path(square):
    optimal = square.distances("a")
    missing = oracle.check_route(square, optimal, "a", "d", True, 2.0, ["a", "d", "b", "d"])
    assert missing is not None and "missing edge" in missing
    mispriced = oracle.check_route(square, optimal, "a", "d", True, 2.0, ["a", "c", "d"])
    assert mispriced is not None and "walks" in mispriced
    wrong_end = oracle.check_route(square, optimal, "a", "d", True, 2.0, ["a", "b"])
    assert wrong_end is not None and "endpoints" in wrong_end


def test_oracle_inexact_methods_may_not_undercut_the_optimum(square):
    optimal = square.distances("a")
    assert oracle.check_route(
        square, optimal, "a", "d", True, 3.0, ["a", "c", "d"], exact=False
    ) is None
    assert oracle.check_route(
        square, optimal, "a", "d", True, 1.5, ["a", "b", "d"], exact=False
    ) is not None


def test_oracle_follows_epochs_and_flags_a_stale_skim_cell(square):
    square.apply([("b", "d", 4.0)])
    assert square.distances("a")["d"] == 3.0
    assert oracle.check_skim(square, ["a"], ["d"], [3.0]) == []
    assert oracle.check_skim(square, ["a"], ["d"], [2.0])


def test_oracle_gap_and_conservation():
    table = oracle.CostTable([("o", "x", 1.0), ("x", "d", 1.0), ("o", "d", 2.0)])
    demand = {("o", "d"): 10.0}
    split = {("o", "x"): 4.0, ("x", "d"): 4.0, ("o", "d"): 6.0}
    assert oracle.relative_gap(table, split, demand) == 0.0
    assert oracle.conservation_residual(split, demand) == 0.0
    leaky = {**split, ("x", "d"): 3.0}
    assert oracle.conservation_residual(leaky, demand) == pytest.approx(1.0)
    table.apply([("o", "d", 3.0)])
    assert oracle.relative_gap(table, split, demand) > 0.0


# ----------------------------------------------------------------------
# the workloads, on a tiny run length
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_each_workload_completes_a_tiny_run(name):
    outcome = run.run(name, seed=3, seconds=0.01, traced=False)
    result = outcome["result"]
    assert result["attempted"] >= 1
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"]) and metric["value"] > 0


def test_commute_fails_only_the_fixed_probe_share():
    """The known fault fails the same operations in every round."""
    one = run.run("commute", seed=5, seconds=0.01, traced=False)["result"]
    other = run.run("commute", seed=6, seconds=0.01, traced=False)["result"]
    assert one["failed"] > 0
    assert one["failed"] * other["attempted"] == other["failed"] * one["attempted"]


def test_an_operation_that_raises_counts_as_failed(monkeypatch):
    asked = []
    original = workloads.Commute.ask

    def flaky(self, source, destination):
        asked.append(source)
        if len(asked) == 5:
            raise RuntimeError("planted")
        return original(self, source, destination)

    monkeypatch.setattr(workloads.Commute, "ask", flaky)
    outcome = run.run("commute", seed=3, seconds=0.01, traced=False)
    assert not outcome["result"]["correct"]
    assert any("planted" in line for line in outcome["lines"])


def test_traced_run_reports_every_layer_and_accounts_for_its_time():
    result = run.run("commute", seed=3, seconds=0.01, traced=True)["result"]
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in BENCHMARK["per_layer"]]
    assert metrics["kernel.search_ms"]["value"] > 0
    assert metrics["service.handle_epoch_ms"]["value"] > 0
    shares = [v["value"] for k, v in metrics.items() if k.startswith("share.")]
    assert sum(shares) == pytest.approx(100.0)
    assert abs(metrics["share.unattributed"]["value"]) < 10.0


def test_tracer_restores_every_wrapped_function():
    from repro.kernel import csr, fastpath
    from repro.service.service import RouteService

    originals = (csr.sssp, fastpath.sssp, RouteService.plan)
    tracer = layers.Tracer()
    tracer.install()
    assert csr.sssp is not originals[0] and fastpath.sssp is csr.sssp
    tracer.uninstall()
    assert (csr.sssp, fastpath.sssp, RouteService.plan) == originals


# ----------------------------------------------------------------------
# the command line and BENCHMARK.json
# ----------------------------------------------------------------------
def test_metric_names_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_command_prints_the_benchmark_json_metrics_last():
    command = BENCHMARK["command"] + [
        "--workload", "commute", "--seed", "4", "--seconds", "0.01", "--trace", "0",
    ]
    done = subprocess.run(
        command, cwd=HERE.parent, capture_output=True, text=True, timeout=180, check=True
    )
    lines = done.stdout.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert list(last["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    for name, metric in last["metrics"].items():
        assert any(line.startswith(f"{name} ") for line in lines[:-1])
        assert metric["unit"] == dict(run.END_TO_END)[name]


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    command = BENCHMARK["command"] + [
        "--workload", "commute", "--seed", "1", "--seconds", "1", "--trace", "0",
    ]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert "{" not in done.stdout
