"""Tests of the benchmark itself, on cut-down inputs.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(*args):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=300, check=True,
    )
    return out.stdout.strip().splitlines()


def test_declared_metrics_match_the_code():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_prints_every_metric_with_its_unit(name, trace):
    lines = _run("--workload", name, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--size", "tiny")
    assert all(line.startswith("#") for line in lines[:-1])
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert any(line.startswith("# machine ") for line in lines)
    assert any(line.startswith("# failed_frac 0.0 ") for line in lines)


def test_failed_operation_is_counted(monkeypatch, tmp_path):
    cells = json.loads(workloads.REFERENCE_PATH.read_text())["cells"]
    for cell in cells:
        if (cell["pmf"], cell["n_bins"], cell["eps"]) == ("uniform", 16, 8.0):
            cell["lp_objective"] = 1.0
    fake = tmp_path / "wrong_reference.json"
    fake.write_text(json.dumps({"cells": cells}))
    monkeypatch.setattr(workloads, "REFERENCE_PATH", fake)
    result, lines = run.measure("design-n16", 1, 0.0, trace=False, tiny=True)
    passes = int(lines[-1].split()[2])
    assert result["attempted"] == 3 * passes
    assert result["failed"] == passes
    assert result["correct"] is False
    assert any("uniform/n=16/eps=8.0" in line and "reference" in line for line in lines)


def test_sweep_csv_is_identical_traced_and_untraced():
    run.load_package()
    argv = ["sweep", "--parameter", "bin_size", "--grid", "0.5,0.25", "--eps", "1",
            "--runs", "1", "--n", "10000", "--seed", "5", "--out", "-"]
    untraced = workloads.run_cli(argv)
    tracer = Tracer(TARGETS)
    tracer.activate()
    try:
        traced = workloads.run_cli(argv)
    finally:
        tracer.deactivate()
    assert untraced[0] == 0 and untraced == traced
    assert {s.name for s in tracer.take()} >= {"cli.main", "adaptive.run_protocol", "lp.solve"}


def test_missing_target_yields_no_span():
    run.load_package()
    tracer = Tracer(("adaptive.no_such_function", "no_such_module.f", "adaptive.build_lp"))
    assert tracer.missing == ["adaptive.no_such_function", "no_such_module.f"]
