"""Smoke check of the benchmark itself, on tiny inputs, in well under a minute.

    python3 perfbench/smoke.py

* every workload prints every end-to-end metric by name with its unit, and
  ``error_rate``, and its outputs pass the reference checks;
* the traced run prints every per-layer metric, and the exact counts repeat
  bit for bit across two runs of one seed;
* a deliberately corrupted fused result is counted by the reference check,
  so the check is known to be live;
* ``BENCHMARK.json`` lists the metrics of :mod:`metrics`;
* without masscomb's sources next to it the benchmark fails without a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402

EXACT = ("io.input_bytes", "core.input_bytes_resident", "rules.lns.groups",
         "rules.combine_calls", "rules.enum_tuples")


def _run(workload: str, trace: int, cwd: Path = ROOT, script: Path = HERE / "run.py"):
    argv = [sys.executable, str(script), "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, capture_output=True, text=True, cwd=cwd, timeout=300)


def _result(done, expected) -> dict:
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, lines[:20]
    assert [m for m in result["metrics"]] == [name for name, unit, *_ in expected]
    for name, unit, *_ in expected:
        got = result["metrics"][name]
        assert got["unit"] == unit and math.isfinite(got["value"]), (name, got)
        assert any(ln.split()[:1] == [name] and ln.split()[2:3] == [unit]
                   for ln in lines[:-1]), f"{name} not printed with its unit"
    assert any(ln.split()[:1] == ["error_rate"] for ln in lines), "error_rate not printed"
    return result


def check_workloads() -> None:
    for workload in ("gen-combine", "file-roundtrip", "eknn-sweep"):
        result = _result(_run(workload, 0), END_TO_END)
        assert all(m["value"] > 0 for m in result["metrics"].values()), result
        first, second = (_result(_run(workload, 1), PER_LAYER) for _ in range(2))
        for name in EXACT:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            assert a == b, f"{workload}: {name} differs between runs ({a} != {b})"
        print(f"ok   {workload}: metrics printed, outputs correct, counts repeat")


def check_corruption_is_counted() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import GenCombine

    wl = GenCombine(seed=3, tiny=True, workdir=ROOT / ".perfbench")
    rec = wl.run_pass()
    wl.after_pass(rec)
    values, conflict, groups = rec["fused"]["lns"]
    bad = values.copy()
    bad[1] += 1e-6
    bad[-1] -= 1e-6
    rec["fused"]["lns"] = (bad, conflict, groups)
    attempted, failures = wl.check([rec])
    assert len(failures) == 1 and "lns" in failures[0], failures
    print(f"ok   corrupted lns result counted: error_rate {len(failures)}/{attempted}")


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        [(n, u, b) for n, u, b, _ in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(n, u, b) for n, u, b, *_ in PER_LAYER]
    print("ok   BENCHMARK.json matches metrics.py")


def check_needs_sources() -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        done = _run("gen-combine", 0, cwd=bare, script=bare / HERE.name / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0 and '"correct"' not in done.stdout, done.stdout
    print(f"ok   without sources: exit {done.returncode}, no result")


if __name__ == "__main__":
    check_benchmark_json()
    check_corruption_is_counted()
    check_needs_sources()
    check_workloads()
    print("smoke check passed")
