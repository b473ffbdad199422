"""Regenerate expected.json: the pinned answer of every item any seed can run.

    python3 perfbench/pin.py

Runs every item of every pool once, in-process, in fresh directories under
.perfbench_work/, and refuses to pin an answer that fails the independent
checks.  Run it only when the program's output is meant to change.
"""
from __future__ import annotations

import contextlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import checks
import worker
import workloads


@contextlib.contextmanager
def working_directory(path: Path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def pin_item(item: dict, result: dict, passdir: Path) -> dict:
    pin = {"rc": result["rc"], "stdout_sha256": checks.sha256(result["stdout"].encode())}
    argv = item.get("argv", [])
    if "scan" in argv:
        pin["lines"] = [[d["q"], d["a"], d["b"], d["method"], d["status"]]
                        for d in map(json.loads, result["stdout"].splitlines())]
    elif "weil" in argv:
        doc = json.loads(result["stdout"])
        pin.update({k: doc[k] for k in ("s_scaled", "actual_count", "guaranteed_count")})
    elif "exists" in argv:
        doc = json.loads(result["stdout"])
        pin["assoc_count"] = doc["assoc_count"]
        pin["table_sha256"] = checks.sha256((passdir / doc["output"]).read_bytes())
    return pin


def main() -> int:
    mnq = worker.import_mnq()
    checker = checks.Checker(mnq, pins=None)
    workdir = worker.ROOT / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    pins, bad = {}, 0
    for workload in workloads.WORKLOADS:
        for group in workloads.pin_groups(workload):
            passdir = Path(tempfile.mkdtemp(dir=workdir, prefix="pin-"))
            try:
                with working_directory(passdir):
                    wall, results = worker.run_items(mnq, group)
                for item, result in zip(group, results):
                    problems = checker.check(item, result, passdir)
                    if problems:
                        bad += 1
                        print(f"not pinned, {item['key']}: {problems}", file=sys.stderr)
                        continue
                    pins[item["key"]] = pin_item(item, result, passdir)
            finally:
                shutil.rmtree(passdir)
            print(f"{workload}: {len(group)} items in {wall:.1f} s", file=sys.stderr)
    out = Path(__file__).resolve().parent / "expected.json"
    lines = [f" {json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(pins.items())]
    out.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
