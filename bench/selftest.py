#!/usr/bin/env python3
"""Self-test of the round-trip benchmark at toy image sizes.

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json untraced and traced with `--toy`
(image sides divided by 8) for one second each, and checks that:

* the last stdout line has exactly the keys correct/attempted/failed/metrics,
  with no failed round trip and the toy golden digests matched;
* the metric names and units are exactly BENCHMARK.json's end_to_end
  (untraced) or per_layer (traced) lists;
* the plan-build call count per round trip is a whole number of at least
  one (bench/README.md records the baseline: 4, 15 and 27);
* without the program's sources beside it, run.py exits non-zero and
  prints no result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--toy")
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}\n{proc.stderr}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: {result['failed']} of {result['attempted']} failed\n{proc.stderr}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared:
        problems.append(f"{where}: printed metrics {printed} != declared {declared}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            problems.append(f"{where}: {name} value {m['value']!r} is not a number")
    if trace:
        calls = result["metrics"]["ordering.build_order_plan_calls"]["value"]
        if calls < 1 or calls != int(calls):
            problems.append(f"{where}: {calls} plan builds per round trip")
    return problems


def check_bare(spec: dict) -> list[str]:
    """A directory with only BENCHMARK.json and the benchmark must fail."""
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for rel in spec["paths"]:
            shutil.copytree(ROOT / rel, bare / rel,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", spec["workloads"][0]["name"], "--seed", "1",
                   "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems += check_result(spec, w["name"], trace)
            print(f"{w['name']} --trace {trace}: checked", flush=True)
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
