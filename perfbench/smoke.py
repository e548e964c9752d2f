"""Smoke test of the benchmark itself: ``python3 perfbench/smoke.py``.

Runs every workload at ``--scale tiny``: twice untraced and once traced.
Checks that the last line has the contract's keys, that every metric named
in BENCHMARK.json is emitted with its unit, that the run is correct with
no unexpected failure, and that the output digest repeats from run to
run.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7


def run(workload: str, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check(workload: str, trace: int, spec: dict) -> str:
    report, result = run(workload, trace)
    where = f"{workload} trace={trace}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, f"{where}: not correct: {report}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    assert result["failed"] == 0, f"{where}: unexpected failures: {report['failures']}"
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    assert set(got) == set(wanted), f"{where}: metrics differ: {set(got) ^ set(wanted)}"
    for name, unit in wanted.items():
        assert got[name]["unit"] == unit, f"{where}: {name} unit {got[name]['unit']} != {unit}"
        assert isinstance(got[name]["value"], (int, float)), f"{where}: {name} is not a number"
    assert len(report["digest"]) == 1, f"{where}: passes disagree: {report['digest']}"
    return report["digest"][0]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            digests = {check(workload, 0, spec), check(workload, 0, spec), check(workload, 1, spec)}
            assert len(digests) == 1, f"{workload}: digest changed between runs: {digests}"
            print(f"ok {workload} {digests.pop()[:16]}")
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
