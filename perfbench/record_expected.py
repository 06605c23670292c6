"""Rewrite ``expected.json`` from one reference run per workload.

    python3 perfbench/record_expected.py

Runs every workload once at seed 0 on the current engine and stores the
semantic content of its report (check names, verdicts, instance counts
and the cohomology table).  Only rerun this when a workload changes; the
file is what ``run.py`` checks every sample against.
"""

from __future__ import annotations

import json

import run

RECORD_SEED = 0


def main() -> int:
    expected = {}
    for workload in run.WORKLOADS:
        sample = run.launch("run", run.make_inputs(workload, RECORD_SEED))
        if "error" in sample or sample["exit_code"] != 0:
            raise SystemExit(f"{workload}: reference run failed: {sample}")
        expected[workload] = run.semantic(json.loads(sample["stdout"]))
    (run.HERE / "expected.json").write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
