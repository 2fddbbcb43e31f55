"""The benchmark's layer tracer names library functions by path
(``perfbench/layers.py``).  A name that no longer resolves is reported as an
absent hook and its per-layer metrics drop out of the result line, so every
target must resolve, and the memoised Weingarten tables must keep the
``cache_info`` their ``builds`` metric is read from.  A short traced run of
the ``exact`` workload checks the whole contract end to end, and a short
untraced run checks the line the end-to-end metrics are read from."""

import importlib
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("layers")


def resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_hook_target_resolves(layers):
    for hook in layers.HOOKS:
        assert callable(resolve(hook.target)), hook.target


def test_weingarten_hooks_are_memoised(layers):
    weingarten = [hook for hook in layers.HOOKS if hook.name.startswith("weingarten.")]
    assert weingarten
    for hook in weingarten:
        assert hasattr(resolve(hook.target), "cache_info"), hook.target


def test_declared_metrics_come_from_hooks(layers):
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert declared == [name for name, _, _ in layers.PER_LAYER]
    hooked = {hook.name for hook in layers.HOOKS} | {"exact_moments.crosscheck", "trace"}
    for name in declared:
        assert name.rpartition(".")[0] in hooked, name


def test_traced_exact_run_reports_every_declared_metric():
    result = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", "exact",
            "--seed", "1", "--seconds", "2", "--trace", "1",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    lines = [json.loads(line) for line in result.stdout.strip().splitlines()]
    record = lines[-1]
    assert record["correct"] is True
    assert record["failed"] == 0
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    missing = [name for name in declared if name not in record["metrics"]]
    assert not missing, missing
    details = next(line["details"] for line in lines if "details" in line)
    assert details["absent_hooks"] == []


def test_untraced_exact_run_reports_every_end_to_end_metric():
    result = subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", "exact",
            "--seed", "1", "--seconds", "2", "--trace", "0",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    record = json.loads(result.stdout.strip().splitlines()[-1])
    assert record["correct"] is True
    assert record["failed"] == 0
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert len(declared) == 4
    for name in declared:
        value = record["metrics"][name]["value"]
        assert isinstance(value, (int, float)) and math.isfinite(value) and value > 0, (name, value)
