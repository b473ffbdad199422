"""One timed pass of a workload, in a fresh process.

Run by run.py with the pass's own empty directory as the working directory,
so the witness cache and the table files of one pass never meet another's
and the lru caches inside mnq start cold.  Imports mnq from the checkout's
src/, builds the item list from the seed, runs every item through the public
API and writes result.json (and spans.json when traced) into the directory.

    python3 perfbench/worker.py --workload scan --seed 0 --trace 0
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def import_mnq():
    """Import mnq from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "mnq" / "__init__.py").is_file():
        raise SystemExit(f"no mnq sources under {src}")
    sys.path.insert(0, str(src))
    import mnq
    import mnq.cli
    if Path(mnq.__file__).resolve().parent != src / "mnq":
        raise SystemExit(f"imported mnq from {mnq.__file__}, not from {src}")
    return mnq


def peak_rss_mb() -> float:
    """Peak resident set of this process image.

    VmHWM, not ru_maxrss: on Linux ru_maxrss survives exec and so can report
    the parent's peak instead of the worker's."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def decision_line(d) -> str:
    return json.dumps({"n": d.n, "status": d.status.value, "reason": d.reason,
                       "plan": [[b.order, b.in_scope, b.route] for b in d.plan]},
                      sort_keys=True, separators=(",", ":"))


def run_items(mnq, items: list[dict]) -> tuple[float, list[dict]]:
    """Run the items in order in the working directory; (wall_s, results).

    Only the calls into mnq are timed; turning decisions into text is not."""
    raw = []
    t0 = time.perf_counter()
    for item in items:
        buf = io.StringIO()
        rc, error = None, None
        try:
            if item["kind"] == "cli":
                with contextlib.redirect_stdout(buf):
                    rc = mnq.cli.main(item["argv"])
            else:
                decide = mnq.existence.decide
                rc = [decide(n) for n in range(item["start"], item["start"] + item["count"])]
        except Exception:
            error = traceback.format_exc()
            print(f"item {item['key']!r} raised:\n{error}", file=sys.stderr)
        raw.append((rc, buf, error))
    wall = time.perf_counter() - t0

    results = []
    for item, (rc, buf, error) in zip(items, raw):
        out = buf.getvalue()
        if item["kind"] == "decide" and rc is not None:
            out = "".join(decision_line(d) + "\n" for d in rc)
            rc = 0
        results.append({"key": item["key"], "rc": rc, "stdout": out, "error": error})
    return wall, results


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    mnq = import_mnq()
    import workloads
    items = workloads.items(args.workload, args.seed)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    ready = time.monotonic()

    wall, results = run_items(mnq, items)
    doc = {
        "ready": ready,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb(),
        "items": results,
    }
    Path("result.json").write_text(json.dumps(doc))
    if tracer is not None:
        Path("spans.json").write_text(json.dumps(tracer.spans))
    return 0


if __name__ == "__main__":
    sys.exit(main())
