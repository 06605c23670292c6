"""Seeded command reports held byte for byte.

Each case in ``golden/cases.json`` runs ``python -m nplectic.cli ARGV``
from the repository root, under several hash seeds, and its stdout and
exit code must equal the recorded ones.  The cases cover passing and
failing validators with witnesses, the identity suites with their
informational witness, the Jacobi checks, the sp(2) momentum map with
a corrupted bracket table that fails the morphism gate, extension and
plain cohomology tables (among them omega = dx1^dx2 + dx3^dx4 + dx5^dx6
on Q[x1..x6]), and Poisson brackets of classes on the plane.  To re-record
after an intended report change:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
ROOT = GOLDEN.parents[1]
CASES = json.loads((GOLDEN / "cases.json").read_text())
HASH_SEEDS = ("0", "1", "31337")


def run_case(argv, hash_seed):
    env = {k: v for k, v in os.environ.items() if not k.startswith("NPLECTIC_")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)
    return subprocess.run([sys.executable, "-m", "nplectic.cli", *argv],
                          cwd=ROOT, env=env, capture_output=True)


@pytest.mark.parametrize("hash_seed", HASH_SEEDS)
@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_golden_report_is_byte_identical(case, hash_seed):
    done = run_case(case["argv"], hash_seed)
    assert done.returncode == case["exit"], done.stderr.decode()
    assert done.stdout == (GOLDEN / f"{case['name']}.out").read_bytes()


def record():
    for case in CASES:
        done = run_case(case["argv"], HASH_SEEDS[0])
        (GOLDEN / f"{case['name']}.out").write_bytes(done.stdout)
        case["exit"] = done.returncode
        print(f"{case['name']}: exit {done.returncode}")
    (GOLDEN / "cases.json").write_text(json.dumps(CASES, indent=2) + "\n")


if __name__ == "__main__":
    record()
