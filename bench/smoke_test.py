"""Smoke test of the benchmark itself, outside the tier-1 suite.

Runs every workload at tiny size, traced and untraced, and checks the
output against the schema in BENCHMARK.json.  Run from the root of a
checkout:

    python3 -m pytest -q bench/smoke_test.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_output_schema(workload, trace):
    done = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
                     "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])

    summary = {ln.split()[0]: ln.split()[2] for ln in lines[:-1] if ln.startswith("  ") and len(ln.split()) == 3}
    assert summary["failed_frac"] == "ratio"
    assert summary["wall_s"] == "s" and summary["cal_s"] == "s"
    if workload == "mc-sweep":
        assert summary["trials_per_s"] == "1/s"
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        layers = sum(v for name, v in values.items() if name.endswith(".self_s") and name != "bench.self_s")
        assert layers + values["bench.self_s"] == pytest.approx(values["trace.wall_s"], abs=1e-6)


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import ggmlearn  # noqa: F401  (the tracer rebinds names in loaded modules)
    import tracing

    targets = [t for t in tracing.TARGETS if t[0] != "lbp"]
    targets.append(("lbp", "run", "ggmlearn.lbp", "no_such_function", None))
    monkeypatch.setattr(tracing, "TARGETS", tuple(targets))
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    metrics, absent = tracing.layer_metrics(tracer.take(), tracer.present_groups, 1.0)
    assert tracer.missing == ["ggmlearn.lbp.no_such_function"]
    lbp_metrics = {"lbp.run_s", "lbp.iterations", "lbp.message_bytes", "lbp.s_per_iteration",
                   "lbp.self_s", "lbp.errors"}
    assert lbp_metrics <= set(absent)
    assert not set(absent) & set(metrics)
    assert set(metrics) | set(absent) == set(tracing.PER_LAYER_METRICS) - {"trace.overhead_s"}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seconds", "1", "--size", "tiny")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
