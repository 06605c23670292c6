"""Seeded command reports held byte for byte.

Each case in ``golden/cases.json`` runs ``python -m nplectic.cli ARGV``
from the repository root, under several hash seeds, and its stdout and
exit code must equal the recorded ones.  The cases cover passing and
failing validators with witnesses, the identity suites with their
informational witness, the Jacobi checks (among them a broken su(2)
table with the top-degree form, where the tensor Jacobi identity fails at
arity 3 and the command exits 1; the degenerate plane, whose contraction
kernels have rank above 0; su(2) up to arity 6, where most brackets lie
above the top degree and vanish; and the plane up to arity 5, where most
Schouten brackets of argument pairs repeat within a residual), the sp(2)
momentum map up to arity 5 and up to arity 6 (``momentum-sp2-arity6``),
each also with a corrupted bracket table that fails the morphism gate
(``momentum-sp2-bad-table-arity6`` at arity 6), the rotation momentum map
up to arity 6 (``momentum-rotation``), extension and plain cohomology
tables (among them omega = dx1^dx2 + dx3^dx4 + dx5^dx6 on Q[x1..x6], and
omega = dx^dy^dz on Q[x, y, z], n = 2, with classes in degrees 0, 1 and 2
at weights 0-6), and Poisson brackets of classes on the
plane, on su(2) and on the degenerate plane, where one class has a field
with a kernel part (x @z) and the bracket is the zero class only because
`reduce_mod_kernel` reduces it away.  Three cases pin the printed term
order of polynomials in more than two variables and of high exponents:
``bracket-poly4`` and ``differential-poly4`` act on Q[x1..x4] with
multi-term coefficients of mixed degree, and
``poisson-plane-high-degree`` brackets two plane classes whose exponents
reach 21.  Two cases pin exact arithmetic under the elimination:
``poisson-plane-fractional`` brackets two classes for omega = 11/13
dx^dy whose printed bracket class has non-unit denominators, and
``cohomology-plane-weight300`` ranks plane slices of up to 905 elements
at weight 300.  ``cohomology-plane-weight4990`` ranks the plane at
weight 4990, whose largest slice, 9,984 elements, is just under the
slice cap.  ``contract-plane``, ``lie-derivative-plane`` and the two
``nplectic-check`` cases, one passing and one whose omega is not closed,
give every command of the CLI at least one case.  To re-record after an
intended report change:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nplectic.cli import COMMANDS

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


def test_every_command_starts_a_case():
    assert {case["argv"][0] for case in CASES} == set(COMMANDS)


def record():
    for case in CASES:
        done = run_case(case["argv"], HASH_SEEDS[0])
        (GOLDEN / f"{case['name']}.out").write_bytes(done.stdout)
        case["exit"] = done.returncode
        print(f"{case['name']}: exit {done.returncode}")
    (GOLDEN / "cases.json").write_text(json.dumps(CASES, indent=2) + "\n")


if __name__ == "__main__":
    record()
