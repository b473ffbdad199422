"""Self-test of the answer checker: forged answers must be caught.

A forged scan witness, (1, 1) at q = 13, and a built table with two swapped
entries must each count as a failed item, while the genuine answers next to
them pass.  The genuine answers are fixed here and the table is built by the
checker's own code, so a broken program cannot break the self-test.  run.py
runs this after every benchmark run; it also runs alone:

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import checks

Q = 13
WITNESS = (2, 5)  # the first general-search witness of GF(13)
EXISTS_DOC = {"assoc_count": Q, "n": Q, "output": f"mnq-{Q}.json", "reason": "valuation-criteria",
              "plan": [{"in_scope": True, "order": Q, "route": "general"}], "status": "exists"}


def _dump(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def run(mnq, workdir: Path) -> list[str]:
    """Failures of the self-test; empty when the checker behaves."""
    checker = checks.Checker(mnq, pins=None)

    def scan_answer(a, b):
        line = {"a": a, "assoc_count": Q, "b": b, "method": "general", "q": Q, "status": "found"}
        item = {"key": f"cold: scan {Q} {Q} ({a},{b})", "kind": "cli", "argv": ["scan", str(Q), str(Q)]}
        return item, {"rc": 0, "stdout": _dump(line), "error": None}

    build = ({"key": f"exists {Q} --build", "kind": "cli", "argv": ["exists", str(Q), "--build"]},
             {"rc": 0, "stdout": _dump(EXISTS_DOC), "error": None})
    rows = checks.TwoSlope(mnq.field_for_order(Q), *WITNESS).table()

    failures = []
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        table = Path(tmp) / f"mnq-{Q}.json"
        table.write_text(_dump({"n": Q, "rows": rows.tolist()}))
        for item, result in (scan_answer(*WITNESS), build):
            problems = checker.check(item, result, Path(tmp))
            if problems:
                failures.append(f"genuine answer {item['key']!r} rejected: {problems}")
        rows[0, 1], rows[0, 2] = rows[0, 2], rows[0, 1]
        table.write_text(_dump({"n": Q, "rows": rows.tolist()}))
        forged = (scan_answer(1, 1), build)
        failed = sum(1 for item, result in forged if checker.check(item, result, Path(tmp)))
    if failed != len(forged):
        failures.append(f"error rate {failed}/{len(forged)} on forged answers, want {len(forged)}/{len(forged)}")
    return failures


def main() -> int:
    import worker
    mnq = worker.import_mnq()
    workdir = worker.ROOT / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    failures = run(mnq, workdir)
    for f in failures:
        print(f"selftest: {f}", file=sys.stderr)
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
