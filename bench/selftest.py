"""Tiny-size self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json at ``--scale tiny`` with tracing off
and on, and checks that each run exits 0 with a correct result whose
metric names and units are exactly those BENCHMARK.json lists.  It also
checks that a repeated seed repeats ``mjhmc.grad_evals_per_sample``
exactly, and that a directory holding only the benchmark (no program
sources) makes the benchmark fail without printing a result.  Takes about
a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(proc, expected: dict) -> tuple[list[str], dict]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"], {}
    *_, detail_line, result_line = proc.stdout.strip().splitlines()
    result, detail = json.loads(result_line), json.loads(detail_line)
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        problems.append(f"not a clean result: {result_line[:200]} checks={detail.get('checks')}")
    got = {name: m["unit"] for name, m in result.get("metrics", {}).items()}
    if got != expected:
        problems.append(f"metrics differ from BENCHMARK.json: missing {sorted(set(expected) - set(got))}, "
                        f"extra {sorted(set(got) - set(expected))}, "
                        f"units {[n for n in got if n in expected and got[n] != expected[n]]}")
    return problems, detail


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            problems, _ = check_run(run(ROOT, workload, 7, trace), expected[trace])
            failures += [f"{workload} trace {trace}: {p}" for p in problems]
            print(f"{workload} trace {trace}: {'ok' if not problems else 'FAILED'}", flush=True)

    counts = []
    for _ in range(2):
        _, detail = check_run(run(ROOT, "rough-well-sample", 7, 0), expected[0])
        counts.append(detail.get("named_metrics", {}).get("mjhmc.grad_evals_per_sample", {}).get("value"))
    if counts[0] is None or counts[0] != counts[1]:
        failures.append(f"mjhmc.grad_evals_per_sample not repeated exactly: {counts}")

    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, spec["workloads"][0]["name"], 7, 0)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"without sources: exit code {proc.returncode}, stdout {proc.stdout[:200]!r}")

    for failure in failures:
        print("FAIL", failure)
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
