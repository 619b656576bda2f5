import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import pointideal as pi
from perfbench import harness
from perfbench.harness import end_to_end, traced
from perfbench.layers import PER_LAYER, install, layer_metrics
from perfbench.tracer import Tracer
from perfbench.workloads import WORKLOADS, InstanceStream

ROOT = Path(__file__).resolve().parents[2]
SMALL = {"generic2": 16, "grid4": 14, "rational3": 10}


@pytest.fixture(autouse=True)
def _two_instances(monkeypatch):
    monkeypatch.setattr(harness, "PREFIX", 2)


def _small(name):
    return replace(WORKLOADS[name], size=SMALL[name])


def _benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_per_layer_counts_repeat_and_digests_match(name, tmp_path):
    workload = _small(name)
    runs = [
        traced(pi, InstanceStream(workload, 3, 2), tmp_path / f"{i}.jsonl")
        for i in range(2)
    ]
    counts = [
        {k: v for k, (v, unit) in metrics.items() if unit == "count"}
        for _, _, metrics in runs
    ]
    assert counts[0] == counts[1]
    for plain, loop, _ in runs:
        assert plain.failed == loop.failed == 0
        assert plain.digest.hexdigest() == loop.digest.hexdigest()
    assert runs[0][1].digest.hexdigest() == runs[1][1].digest.hexdigest()
    assert counts[0]["core.build_phi.calls"] > 0 and counts[0]["verify.spairs"] > 0
    assert counts[0]["poly.init.calls"] > 0 and counts[0]["field.vec_sub_scaled.calls"] > 0


def test_poly_metrics_count_the_staircase_engine_only(tmp_path):
    workload = _small("grid4")
    stream = InstanceStream(workload, 3, 2)
    _, _, metrics = traced(pi, stream, tmp_path / "t.jsonl")
    with Tracer() as tracer:
        install(tracer, pi)
        for index in range(2):
            pi.core.staircase_gb(stream[index])
    alone = layer_metrics(tracer)
    for name in ("poly.init.calls", "poly.mul.calls"):
        assert metrics[name][0] == alone[name] > 0


def test_each_stage_is_scaled_by_the_kernel_runs_around_it():
    outcome = harness.run_instance(pi, InstanceStream(_small("grid4"), 1, 1)[0])
    assert outcome.witness is None
    assert len(outcome.kernel) == len(harness.STAGES) + 1
    for i, stage in enumerate(harness.STAGES):
        before, after = outcome.kernel[i:i + 2]
        assert outcome.scaled[stage] == pytest.approx(
            outcome.seconds[stage] * harness.REFERENCE_KERNEL_S / ((before + after) / 2))


def test_install_wraps_and_restores_every_layer():
    def snapshot():
        owners = (pi.core, pi.bm, pi.verify, pi.io, pi.poly.Polynomial,
                  pi.staircase.Staircase, pi.field.PrimeField, pi.field.RationalField)
        return {(id(o), k): v for o in owners for k, v in vars(o).items()}

    before = snapshot()
    with Tracer() as tracer:
        install(tracer, pi)
        assert snapshot() != before
    assert snapshot() == before


def test_reported_metrics_match_the_benchmark_spec(tmp_path):
    spec = _benchmark_spec()
    workload = _small("grid4")
    loop, metrics = end_to_end(pi, InstanceStream(workload, 1, 2), workload, 0.0, 0.1)
    assert loop.failed == 0
    assert list(metrics) == [m["name"] for m in spec["end_to_end"]]
    _, _, layer = traced(pi, InstanceStream(workload, 1, 2), tmp_path / "t.jsonl")
    assert list(layer) == [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(units[k] == u for k, (_, u) in {**metrics, **layer}.items())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {name for name, _ in PER_LAYER} <= set(layer)


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "traces"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert out.returncode != 0
    assert out.stdout == ""
