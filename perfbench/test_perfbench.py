"""Smoke tests for the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

workloads.pin_environment()

import harness  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import verify  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)

with open(os.path.join(workloads.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _run(*args, cwd=workloads.ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _result(workload: str, trace: int) -> tuple:
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    """(stdout, result) per (workload, trace, repeat), tiny sizes."""
    out = {}
    for name in NAMES:
        out[name, 0, 0] = _result(name, 0)
        out[name, 1, 0] = _result(name, 1)
        out[name, 1, 1] = _result(name, 1)
    return out


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == layers.UNITS
    assert {m["name"]: m["better"] for m in BENCHMARK["per_layer"]} == layers.BETTER
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(results, name, trace):
    stdout, result = results[name, trace, 0]
    spec = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    for m in spec:
        assert f"metric {m['name']} = " in stdout
    assert "fail_ratio: 0/" in stdout
    assert "OLDB2D_THREADS=1" in stdout and "L2=" in stdout


@pytest.mark.parametrize("name", NAMES)
def test_counts_repeat_exactly(results, name):
    first = results[name, 1, 0][1]["metrics"]
    second = results[name, 1, 1][1]["metrics"]
    for key in layers.COUNTS:
        assert first[key] == second[key], key
    assert first["integrate.steps"]["value"] > 0
    assert first["spectral.fft_planes"]["value"] > 0
    assert first["spectral.make_grid_calls"]["value"] >= 1
    assert first["diagnostics.records"]["value"] >= 1
    if name == "picard-compare":
        assert first["picard.iterations"]["value"] > 0
    else:
        assert first["picard.iterations"]["value"] == 0


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in (11, 22, 23, 50, 101):
        value, pct, beyond = run.tail(range(n))
        assert beyond >= 10 and sum(1 for x in range(n) if x > value) == beyond
        assert pct == 100 * (n - 10) // n
    assert run.tail([3.0, 1.0]) == (3.0, 100, 0)


@pytest.fixture()
def solved(tmp_path):
    solver = harness.Solver(workloads.get("run-monitored", tiny=True), str(tmp_path),
                            harness.load_reference(), "tiny")
    result = solver.solve(3)
    assert result.errors == []
    return solver, result


def _rewrite_field(path, name, change):
    """Apply `change` in place to one field of a snapshot file."""
    _, fields = verify.read_snapshot(path)
    with open(path, "rb") as fh:
        header = fh.read(verify._HEADER.size)
    with open(path, "wb") as fh:
        fh.write(header)
        for key in verify.FIELDS:
            values = fields[key].copy()
            if key == name:
                change(values)
            fh.write(bytes([len(key)]) + key.encode() + values.astype("<f8").tobytes())


@pytest.mark.parametrize("field,change,message", [
    ("c", lambda v: v.__setitem__((1, 1), v[1, 1] + 1e-3), "field c differs"),
    ("a", lambda v: v.__setitem__((1, 1), 1e3), "min gamma"),
    ("rho", lambda v: v.__iadd__(1e-6), "int(rho) not conserved"),
])
def test_verifier_flags_a_corrupted_snapshot(solved, field, change, message):
    solver, result = solved
    _rewrite_field(os.path.join(solver.out_dir, "final_state.snap"), field, change)
    errors = solver.check(3, result.rc, result.stdout)
    assert any(message in e for e in errors), errors


def test_verifier_flags_a_failed_gate_and_exit_code(solved):
    solver, result = solved
    assert solver.check(3, result.rc, result.stdout.replace("-> PASS", "-> FAIL"))
    assert solver.check(3, 1, result.stdout)
    extra = next(f for f in os.listdir(solver.out_dir) if f.startswith("snapshot_t"))
    os.remove(os.path.join(solver.out_dir, extra))
    assert any("output counts" in e for e in solver.check(3, result.rc, result.stdout))


def test_verifier_flags_a_picard_gap(tmp_path):
    solver = harness.Solver(workloads.get("picard-compare", tiny=True), str(tmp_path),
                            harness.load_reference(), "tiny")
    result = solver.solve(0)
    assert result.errors == []
    ref = solver.reference["0"]
    gaps = verify.picard_gaps(result.stdout)
    worse = result.stdout.replace(f"{gaps['rho']:.3e}", "2.000e-05")
    assert any("gap rho" in e for e in verify.verify_picard(0, worse, ref))
    unconverged = result.stdout.replace("converged in", "stopped after")
    assert verify.verify_picard(0, unconverged, ref)
    moved = dict(ref, norms=[x * (1 + 1e-6) for x in ref["norms"]])
    assert any("norms" in e for e in verify.verify_picard(0, result.stdout, moved))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(workloads.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "run-large", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
