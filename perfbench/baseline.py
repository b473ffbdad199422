"""Record BASELINE.json: medians and quartiles of every metric on every workload.

    python3 perfbench/baseline.py

Runs run.py RUNS times per workload with seeds 1..RUNS untraced, and once
traced with seed 0, one run at a time, then writes perfbench/BASELINE.json
with the provenance of the measurement (Python and numpy versions, nproc,
/proc/loadavg at the start, the commit).
"""
from __future__ import annotations

import json
import statistics
import subprocess
import sys

from run import HERE, ROOT, provenance

RUNS = 10


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, check=True, timeout=600).stdout
    doc = json.loads(out.strip().splitlines()[-1])
    if not doc["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect answers")
    return doc


def commit() -> str | None:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = list(range(1, RUNS + 1))
    doc = {"provenance": dict(provenance(), commit=commit()), "run_seconds": seconds,
           "seeds": seeds, "traced_seed": 0, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [bench(workload, s, seconds, 0) for s in seeds]
        e2e = {}
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            e2e[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                         "spread": (q3 - q1) / statistics.median(vals), "values": vals}
            print(f"{workload} {name}: median {e2e[name]['median']:.4f} "
                  f"spread {e2e[name]['spread']:.3f}", file=sys.stderr)
        traced = bench(workload, 0, seconds, 1)
        doc["workloads"][workload] = {
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    (HERE / "BASELINE.json").write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
