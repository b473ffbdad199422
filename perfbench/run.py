"""Benchmark entry point: timed cold-process passes of one workload, checked answers.

    python3 perfbench/run.py --workload scan --seed 0 --seconds 30 --trace 0

Each pass runs worker.py in a fresh process, one at a time, in a fresh
directory under .perfbench_work/ at the checkout root (removed at the end).
Passes repeat while the next one is expected to end within --seconds of pass
time, at least MIN_ROUNDS times.  After every pass its answers are checked
(checks.py); after the last, the checker's self-test runs.  Nothing is
written outside the checkout.

--trace 0 reports the end-to-end metrics, medians over the passes:
  setup_s      spawn of the worker until mnq is imported and inputs are built
  wall_s       the workload's whole item list, every answer later checked
  peak_rss_mb  the worker's maximum resident set
  success_rate items with a correct answer / items attempted (1 - error rate)
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of tracing.py from the traced ones, plus trace.wall_s (traced wall_s)
and trace.overhead_s (traced minus untraced wall_s).

The last line of stdout is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
MIN_ROUNDS = 3
MIN_TRACE_ROUNDS = 1
PASS_TIMEOUT_S = 60
RUN_DEADLINE_S = 90  # no pass starts after this; a run must end within 180 s
WORKER_ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def provenance() -> dict:
    import numpy
    try:
        load = Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        load = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "loadavg": load}


def run_pass(workload: str, seed: int, trace: int, passdir: Path) -> dict | None:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    env = dict(os.environ, **WORKER_ENV)
    spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=passdir, env=env, stdout=sys.stderr,
                              stdin=subprocess.DEVNULL, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"pass timed out after {PASS_TIMEOUT_S} s")
        return None
    end = time.monotonic()
    result = passdir / "result.json"
    if proc.returncode != 0 or not result.is_file():
        log(f"worker exited with code {proc.returncode}")
        return None
    doc = json.loads(result.read_text())
    doc["setup_s"] = doc["ready"] - spawn
    doc["elapsed_s"] = end - spawn
    spans = passdir / "spans.json"
    doc["spans"] = json.loads(spans.read_text()) if spans.is_file() else None
    return doc


def declared_metrics(trace: int) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    sys.path.insert(0, str(HERE))
    import worker
    import workloads
    mnq = worker.import_mnq()  # exits nonzero when the checkout has no mnq sources
    import checks
    import selftest
    import tracing

    items = workloads.items(args.workload, args.seed)
    units = declared_metrics(args.trace)
    pins = json.loads((HERE / "expected.json").read_text())
    checker = checks.Checker(mnq, pins)
    log(f"perfbench {args.workload} seed={args.seed} trace={args.trace} {json.dumps(provenance())}")

    WORKDIR.mkdir(exist_ok=True)
    rundir = Path(tempfile.mkdtemp(dir=WORKDIR, prefix=f"{args.workload}-{args.seed}-"))
    passes, attempted, failed, broken, selftest_failures = [], 0, 0, False, []
    start = time.monotonic()
    try:
        busy, rounds = 0.0, 0
        while not broken:
            # a round is one pass, or an untraced and a traced pass when tracing
            for traced in ((False, True) if args.trace else (False,)):
                passdir = rundir / f"pass{len(passes)}"
                passdir.mkdir()
                doc = run_pass(args.workload, args.seed, int(traced), passdir)
                attempted += len(items)
                if doc is None or [r["key"] for r in doc["items"]] != [i["key"] for i in items]:
                    failed += len(items)
                    broken = True
                    break
                t_check = time.monotonic()
                for item, res in zip(items, doc["items"]):
                    problems = checker.check(item, res, passdir)
                    if problems:
                        failed += 1
                        log(f"WRONG {item['key']}: " + "; ".join(problems[:5]))
                log(f"pass {len(passes)} traced={int(traced)}: setup_s={doc['setup_s']:.4f} "
                    f"wall_s={doc['wall_s']:.4f} peak_rss_mb={doc['peak_rss_mb']:.1f}, "
                    f"answers checked in {time.monotonic() - t_check:.2f} s")
                shutil.rmtree(passdir)
                doc["traced"] = traced
                passes.append(doc)
                busy += doc["elapsed_s"]
            rounds += 1
            enough = rounds >= (MIN_TRACE_ROUNDS if args.trace else MIN_ROUNDS)
            if enough and busy * (rounds + 1) / rounds > args.seconds:
                break
            if time.monotonic() - start > RUN_DEADLINE_S:
                break
        try:
            selftest_failures = selftest.run(mnq, rundir)
        except Exception:  # a broken program must still yield a result line
            selftest_failures = [traceback.format_exc()]
        for f in selftest_failures:
            log(f"selftest: {f}")
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    metrics = {}
    if passes and not broken:
        plain = [p for p in passes if not p["traced"]]
        if args.trace:
            traced = [p for p in passes if p["traced"]]
            layers = [tracing.layer_metrics(p["spans"]) for p in traced]
            metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
            metrics["trace.wall_s"] = statistics.median(p["wall_s"] for p in traced)
            metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(
                p["wall_s"] for p in plain)
        else:
            metrics = {
                "setup_s": statistics.median(p["setup_s"] for p in plain),
                "wall_s": statistics.median(p["wall_s"] for p in plain),
                "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
                "success_rate": (attempted - failed) / attempted,
            }
        if set(metrics) != set(units):
            log(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
            broken = True
    correct = not broken and failed == 0 and not selftest_failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items() if k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
