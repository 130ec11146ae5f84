"""Tests of the benchmark itself: names against BENCHMARK.json, the self-time
identity of the traced run, a tiny-size smoke run of every workload, and the
refusal to run without the condemp checkout.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# Small enough for seconds per workload, large enough that the
# deterministic references still hold.
TINY = {
    "killed_converge": {"modes": 32, "n_quantiles": 4000, "grid_nodes": 1025,
                        "times": [2.0, 4.0, 8.0]},
    "neumann_routes": {"modes": 64, "n_quantiles": 4000, "grid_nodes": 1025,
                       "times": [16.0]},
    "mc_crosscheck": {"grid_nodes": 1025,
                      "mc": {"n_paths": 2048, "islands": 4, "dt": 0.002,
                             "horizon": 0.5}},
}


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == spans.PER_LAYER
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_with_units_emits_exactly_the_declared_metrics():
    e2e = run.with_units(dict.fromkeys(run.END_TO_END, 1.0), trace=False)
    assert e2e == {k: {"value": 1.0, "unit": u} for k, u in run.END_TO_END.items()}
    layer = run.with_units(dict.fromkeys(spans.PER_LAYER, 2.0), trace=True)
    assert list(layer) == list(spans.PER_LAYER)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_traced_run(name):
    record = run.measure(workloads, name, seed=7, seconds=1.0, trace=True,
                         overrides=TINY[name])
    m = record["metrics"]
    assert list(m) == list(spans.PER_LAYER)
    assert all(math.isfinite(v) for v in m.values())
    # self times of every span plus harness.self_s make up the traced pass
    span_total = sum(m[s + "_s"] for s in spans.SPAN_NAMES)
    assert span_total + m["harness.self_s"] == pytest.approx(m["trace.pass_s"], abs=1e-9)
    assert m["harness.self_s"] >= 0.0
    assert record["attempted"] >= 4 and record["correct"], record["checks"]
    if name != "mc_crosscheck":     # no declared-error checks on these two
        assert record["failed"] == 0, record["checks"]


def test_tiny_untraced_run_reports_end_to_end_metrics():
    record = run.measure(workloads, "killed_converge", seed=3, seconds=1e-3,
                         trace=False, overrides=TINY["killed_converge"],
                         setup_times=[0.5, 0.4, 0.6])
    assert record["passes"] == 1
    assert record["metrics"]["setup_s"] == 0.5
    assert set(record["metrics"]) == set(run.END_TO_END)
    assert all(v > 0 for v in record["metrics"].values())


def test_tracer_restores_originals():
    import condemp.harness
    import condemp.mc
    from condemp.measures import GridMeasure
    before = (condemp.harness.w2_quantile_1d, condemp.mc.w2_quantile_1d,
              GridMeasure.__dict__["quantile"], GridMeasure.__dict__["normalized"])
    with spans.Tracer():
        assert condemp.harness.w2_quantile_1d is not before[0]
    after = (condemp.harness.w2_quantile_1d, condemp.mc.w2_quantile_1d,
             GridMeasure.__dict__["quantile"], GridMeasure.__dict__["normalized"])
    assert after == before


def test_slope_se_matches_endpoint_formula_for_two_checkpoints():
    n, t0, t1 = 10_000, 0.1, 0.3
    s0, s1 = workloads.uniform_survival(t0, 1.0), workloads.uniform_survival(t1, 1.0)
    expected = math.sqrt(1 / (n * s1) - 1 / (n * s0)) / (t1 - t0)
    assert workloads.slope_se([t0, t1], n, 1.0) == pytest.approx(expected, rel=1e-12)


def test_refuses_to_run_without_the_checkout(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "killed_converge",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
