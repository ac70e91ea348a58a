"""Self-test of the benchmark, at a tiny size.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Two checks, exit code 0 when both hold:

1. Every workload, untraced and traced, passes its output checks and
   prints every metric ``BENCHMARK.json`` names, with that metric's unit.
2. Negative case: a poison shard (every attempt writes an artifact with
   tampered stats, ``REPRO_FAULTS=tamper:0:*``) is quarantined, so the
   ``cold_sharded`` merge has holes, which must count as a failed
   operation.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in declared["workloads"]:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            label = f"{workload['name']} trace={int(trace)}"
            result = run.measure(workload["name"], 1, 1.0, trace, "tiny")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} failed")
            printed = result["metrics"]
            for metric in declared[key]:
                shown = printed.get(metric["name"])
                if shown is None or shown["unit"] != metric["unit"]:
                    problems.append(f"{label}: {metric['name']} not printed "
                                    f"with unit {metric['unit']}")
                elif not isinstance(shown["value"], (int, float)):
                    problems.append(f"{label}: {metric['name']} not a number")
            extra = set(printed) - {metric["name"] for metric in declared[key]}
            if extra:
                problems.append(f"{label}: undeclared {sorted(extra)}")
    poisoned = run.measure("cold_sharded", 1, 1.0, False, "tiny",
                           faults="tamper:0:*")
    if poisoned["correct"] or poisoned["failed"] < 1:
        problems.append("a poison shard did not fail cold_sharded")
    for problem in problems:
        print(f"selftest: {problem}", file=sys.stderr)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
