"""Re-measure the committed baseline.

    python3 bench/baseline.py [--seeds 10] [--seconds 25]

Runs every workload of BENCHMARK.json once per seed (1..N) with tracing
off, then once with tracing on (seed 1), and writes bench/baseline.json:
every result and detail line, and for each end-to-end metric the median,
the quartiles and the spread (interquartile range over median, with
quartiles as statistics.quantiles(values, n=4) gives them).  Takes about
20 minutes with the defaults.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    *_, detail, result = proc.stdout.strip().splitlines()
    return {"seed": seed, "result": json.loads(result), "detail": json.loads(detail)}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "min": min(values), "max": max(values)}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seconds", type=float, default=25)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {"seconds": args.seconds, "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in range(1, args.seeds + 1):
            runs.append(run(workload, seed, args.seconds, 0))
            print(workload, seed, runs[-1]["result"]["metrics"], flush=True)
        traced = run(workload, 1, args.seconds, 1)
        out["workloads"][workload] = {
            "end_to_end": {m["name"]: summary([r["result"]["metrics"][m["name"]]["value"] for r in runs])
                           for m in spec["end_to_end"]},
            "all_correct": all(r["result"]["correct"] for r in runs + [traced]),
            "runs": runs,
            "traced": traced,
        }
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    for workload, w in out["workloads"].items():
        print(workload, "correct" if w["all_correct"] else "INCORRECT",
              {k: f"median {v['median']:.6g} spread {v['spread']:.3f}" for k, v in w["end_to_end"].items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
