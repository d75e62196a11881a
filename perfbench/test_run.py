"""Self-test of the benchmark: every workload at its smallest size.

    python3 -m pytest perfbench -q

Each run goes through the real entry point, ``perfbench/run.py``, as a
subprocess from the repository root, and its output is held to the format
``BENCHMARK.json`` defines: the last stdout line is one JSON object with exactly
``correct``, ``attempted``, ``failed`` and ``metrics``; every metric
``BENCHMARK.json`` lists for the mode appears once, with its unit; the
operation counts are whole numbers.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(cwd, workload, trace, seed=3):
    command = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--smoke",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def _no_duplicates(pairs):
    keys = [key for key, _ in pairs]
    assert len(keys) == len(set(keys)), f"duplicate keys in {keys}"
    return dict(pairs)


def test_benchmark_json_well_formed():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(WORKLOADS) <= 8
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_run_output_format(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1], object_pairs_hook=_no_duplicates)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert set(reported) == {"value", "unit"}
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        if not trace:
            assert reported["value"] > 0, metric["name"]


def test_cora_dataset_has_stated_size(monkeypatch):
    """A seed in the size band is kept; another is replaced, the same way each time."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import workloads

    workload = workloads.WORKLOADS["cora-fullgraph"]
    assert workload.dataset_seed(101, smoke=False) == 101  # 3,182 edges
    replaced = workload.dataset_seed(103, smoke=False)  # 4,258 edges
    assert replaced != 103 and replaced == workload.dataset_seed(103, smoke=False)
    for seed in (101, replaced):
        edges = workload.generate(seed, smoke=False)["nodes"].adjacency.nnz
        assert abs(edges / workload.node_edges - 1.0) <= workloads.EDGE_BAND


def _copy_benchmark(dest):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), dest / path,
                        ignore=shutil.ignore_patterns("__pycache__"))


def test_fails_without_program_source(tmp_path):
    _copy_benchmark(tmp_path)
    proc = _run(str(tmp_path), WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_program_fault_is_a_failed_operation(tmp_path):
    """A program that raises still ends with the result line, marked failed."""
    _copy_benchmark(tmp_path)
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "repro" / "eval" / "classification.py", "a") as handle:
        handle.write("\n\ndef evaluate_probe(*args, **kwargs):\n"
                     "    raise RuntimeError('injected probe fault')\n")
    proc = _run(str(tmp_path), "cora-fullgraph", 0)
    assert proc.returncode == 1
    assert "injected probe fault" in proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is False and result["failed"] >= 1
    assert result["attempted"] >= result["failed"]


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
