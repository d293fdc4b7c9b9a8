"""Tests for the benchmark itself, at a scale that runs in seconds.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import oracle  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def tiny(workload, trace, *extra):
    out = bench("--workload", workload, "--seed", "3", "--seconds", "0.3",
                "--trace", str(trace), "--scale", "tiny", *extra)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_aggregate_counts_as_failure(workload):
    result = tiny(workload, 0, "--inject", "corrupt-aggregate")
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_traced_run_matches_theorem_3_and_reports_overhead():
    m = tiny("fig7_sparse", 1)["metrics"]
    assert m["cluster.comm_elements"]["value"] == m["cluster.expected_comm_elements"]["value"]
    assert m["cluster.messages"]["value"] >= 1
    assert m["trace.spans"]["value"] > 0
    assert "trace.overhead_ms" in m


@pytest.mark.parametrize("workload", WORKLOADS)
def test_leaves_no_process_running(workload):
    """Every process a run starts (the shared-memory resource tracker
    among them) has ended by the time the run exits."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "2", "--seconds", "0.3", "--trace", "0", "--scale", "tiny"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    assert proc.wait(timeout=170) == 0
    left = []
    for entry in Path("/proc").glob("[0-9]*"):
        try:
            if os.getsid(int(entry.name)) == proc.pid:
                left.append(entry.name)
        except OSError:
            pass
    assert left == []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                "--trace", "0", "--scale", "tiny", cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_same_seed_same_inputs():
    def draw(seed):
        rng = np.random.default_rng(seed)
        coords, values = gen.sparse_facts(rng, (8, 8, 8), 0.25)
        stream = gen.QueryStream(rng, (8, 8, 8), 50)
        return coords, values, stream.templates, stream.draw(100)

    a, b, c = draw(5), draw(5), draw(6)
    assert all(np.array_equal(x, y) for x, y in zip(a[:2], b[:2]))
    assert a[2] == b[2] and np.array_equal(a[3], b[3])
    assert not np.array_equal(a[1], c[1])


def test_oracle_answers_match_a_direct_sum():
    rng = np.random.default_rng(1)
    shape = (3, 4, 5, 2)
    coords, values = gen.sparse_facts(rng, shape, 0.5)
    data = np.zeros(shape)
    np.add.at(data, tuple(coords.T), values)
    orc = oracle.oracle_from_facts(shape, coords, values)
    assert oracle.close(orc[(0, 2)], data.sum(axis=(1, 3)))
    # group by d0, point filter on d1, range on d2 (not grouped)
    want = data.sum(axis=3)[:, 2, 1:4].sum(axis=1)
    assert oracle.close(oracle.answer(orc, (0,), {1: 2, 2: (1, 4)}), want)
    oracle.add_facts(orc, shape, np.array([[0, 0, 0, 0]]), np.array([10.0]))
    assert oracle.close(orc[()], data.sum() + 10.0)
    assert oracle.close(orc[(0,)][0], data[0].sum() + 10.0)
