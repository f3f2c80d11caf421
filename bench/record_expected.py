"""Record the expected task digests in bench/expected.json.

    python3 bench/record_expected.py

Run it only at a commit whose outputs are known to be right (the digests
were first recorded at the commit that added the benchmark).  It refuses
to record a task whose own checks fail.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    expected: dict = {}
    for size in ("full", "tiny"):
        for w in run.WORKLOADS:
            result = run.worker("pass", w, size, 0)
            bad = {tid: p for tid, (_, p) in result["tasks"].items() if p}
            if bad:
                print(f"error: {size} {w} has failing tasks: {bad}", file=sys.stderr)
                return 1
            expected.setdefault(size, {})[w] = {
                tid: dig for tid, (dig, _) in sorted(result["tasks"].items())
            }
    with open(run.BENCH / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
