"""Acceptance gate: one test and one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -v``.  Each test prints
``PASS criterion N: ...`` or ``FAIL criterion N: ...`` directly to the
terminal (bypassing capture) so a full run always shows eleven lines.
"""

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from nplectic.calculus import natural_inclusion
from nplectic.cohomology import (
    ce_cohomology_table,
    ce_matrix,
    class_of,
    extension_cohomology_rank,
    poisson_bracket,
)
from nplectic.elements import Cotensor, Tensor
from nplectic.engine import ExtensionElement, hamiltonian_potential, symplectic_basis
from nplectic.identities import cartan_suite, pairing_suite
from nplectic.linalg import rank_dense
from nplectic.linf import (
    ClassLinf,
    ExtensionLinf,
    PairLinf,
    TensorLinf,
    check_momentum_map,
    check_morphism,
    jacobi_residual,
)
from nplectic.models import rotation_momentum, su2_cartan, su2_pair, symplectic_plane
from nplectic.pairs import PolyVectorFieldPair
from nplectic.sampling import random_fraction, random_tensor
from nplectic.scalars import bell_identity_check
from test_linalg import sparse_rows

MODELS = Path(__file__).resolve().parents[1] / "models"
PLANE = PolyVectorFieldPair(2)

GATED_RULES = ("d_commutes_with_flow", "bracket_contraction",
               "bracket_flow", "wedge_flow")


@pytest.fixture(scope="module")
def cartan_runs():
    runs = {}
    for pair in (su2_pair(), PLANE):
        started = time.perf_counter()
        report = cartan_suite(pair, count=200, seed=101)
        runs[pair.family] = (report, time.perf_counter() - started)
    return runs


@pytest.fixture(scope="module")
def structures():
    return {"poly": symplectic_plane(), "constant": su2_cartan()}


def test_criterion_01_flow_rules_at_scale(cartan_runs, verdicts):
    elapsed = sum(t for _, t in cartan_runs.values())
    ok = elapsed < 60.0
    for report, _ in cartan_runs.values():
        ok = ok and report.ok
        for name in GATED_RULES:
            check = next(c for c in report.checks if c.name == name)
            ok = ok and check.ok and check.details["instances"] >= 200
    assert verdicts.record(1, "flow and contraction rules hold on 200 seeded draws "
                      f"per family in {elapsed:.1f}s", ok)


def test_criterion_02_differential_squares_to_zero(cartan_runs, verdicts):
    ok = True
    for report, _ in cartan_runs.values():
        check = next(c for c in report.checks if c.name == "d_squares_to_zero")
        ok = ok and check.ok and check.details["instances"] >= 200
    assert verdicts.record(2, "d applied twice vanishes on 200 draws per family", ok)


def test_criterion_03_bracket_contraction_pairing(structures, verdicts):
    ok = True
    for s in structures.values():
        report = pairing_suite(s, count=50, seed=7)
        ok = ok and report.ok
        ok = ok and all(c.details["instances"] >= 50 for c in report.checks)
    assert verdicts.record(3, "bracket/contraction pairing holds for arities 2-4 "
                      "on both models, 50 draws each", ok)


def test_criterion_04_weak_jacobi_two_paths(structures, verdicts, jacobi_oracle,
                                            random_extension):
    rng = random.Random(23)
    ok = True
    for s in structures.values():
        pair = s.pair
        tensor_op = TensorLinf(pair)
        extension_op = ExtensionLinf(s)
        grades = [g for g in range(0, pair.ngens + 1)
                  if symplectic_basis(s, g, max_poly_degree=2)]
        for arity in (2, 3, 4, 5):
            for _ in range(6):
                xs = [random_tensor(rng, pair, rng.randrange(min(pair.ngens, 3) + 1),
                                    max_degree=2) for _ in range(arity)]
                residual = jacobi_residual(tensor_op, xs)
                ok = ok and residual.is_zero()
                if arity <= 4:
                    ok = ok and residual == jacobi_oracle(tensor_op, xs)
            for _ in range(4):
                es = [random_extension(rng, s, rng.choice(grades))
                      for _ in range(arity)]
                residual = jacobi_residual(extension_op, es)
                ok = ok and residual.is_zero()
                if arity <= 4:
                    ok = ok and residual == jacobi_oracle(extension_op, es)
    assert verdicts.record(4, "weak Jacobi residuals vanish for arities 2-5 and agree "
                      "with the S_n oracle for arities 2-4", ok)


def test_criterion_05_partition_count_recursion(verdicts):
    ok = all(bell_identity_check(k) for k in range(3, 11))
    assert verdicts.record(5, "partition-count recursion holds for k = 3..10", ok)


def test_criterion_06_cohomology_vanishes_outside_the_strip(structures, verdicts):
    ok = True
    for s in structures.values():
        weights = [0] if s.pair.poly_nvars == 0 else [-1, 0, 1, 2]
        degrees = [-3, -2, -1, s.n + 2, s.n + 3, s.n + 4]
        for r in weights:
            for k in degrees:
                ok = ok and extension_cohomology_rank(s, k, r)["rank"] == 0
    assert verdicts.record(6, "cohomology vanishes below degree zero and above the "
                      "top degree on every weight window", ok)


def test_criterion_07_rotation_algebra_ranks_with_dense_oracle(verdicts):
    pair = su2_pair()
    F = Fraction
    # independent construction: (d a)(e_i, e_j) = -a([e_i, e_j]) on dual
    # generators; rows are the words (1,2), (1,3), (2,3)
    d0 = [[F(0)], [F(0)], [F(0)]]
    d1 = [[F(0), F(0), F(-1)], [F(0), F(1), F(0)], [F(-1), F(0), F(0)]]
    # every term of d on a two-letter word repeats a letter, so d vanishes
    d2 = [[F(0), F(0), F(0)]]
    dims = [1, 3, 3, 1]
    images = [rank_dense(d0), rank_dense(d1), rank_dense(d2), 0]
    oracle = [dims[k] - images[k] - (images[k - 1] if k else 0)
              for k in range(4)]
    production = [ce_cohomology_table(pair, [k])[0]["rank"] for k in range(4)]
    matrix, _ = ce_matrix(pair, 1)
    ok = (oracle == [1, 0, 0, 1] and production == oracle and matrix == sparse_rows(d1))
    assert verdicts.record(7, "rotation-algebra complex has ranks 1,0,0,1 by both the "
                      "dense oracle and the fraction-free path", ok)


def random_degree_one_class(rng, s, basis):
    while True:
        x = Tensor.zero(s.pair)
        for b in basis:
            if rng.random() < 0.6:
                x = x + random_fraction(rng) * b
        f = hamiltonian_potential(x, s)
        if f is not None:
            return class_of(ExtensionElement(s, f, x), degree=1)


def test_criterion_08_class_brackets_cohere(structures, verdicts):
    rng = random.Random(31)
    ok = True
    for s in structures.values():
        basis = symplectic_basis(s, 1, max_poly_degree=2)
        for arity in (3, 4, 5):
            for _ in range(3):
                classes = [random_degree_one_class(rng, s, basis)
                           for _ in range(arity)]
                ok = ok and jacobi_residual(ClassLinf(s), classes).is_zero()
        ok = ok and poisson_bracket(
            [random_degree_one_class(rng, s, basis)]).is_zero()
    assert verdicts.record(8, "class brackets satisfy weak Jacobi for arities 3-5 "
                      "and the unary bracket kills every class", ok)


def test_criterion_09_natural_inclusion_is_a_morphism(verdicts):
    rng = random.Random(43)
    dom, cod = PairLinf(PLANE), TensorLinf(PLANE)
    tuples = [[random_tensor(rng, PLANE, rng.choice((0, 1)), max_degree=2)
               for _ in range(arity)]
              for arity in (1, 2, 3, 4) for _ in range(5)]
    ok, witness = check_morphism(dict.fromkeys(range(1, 5), natural_inclusion),
                                 dom, cod, tuples)
    assert verdicts.record(9, "the weighted inclusion satisfies the morphism "
                      "equations up to arity 4", ok), witness


def test_criterion_10_momentum_certification(verdicts):
    s = symplectic_plane()
    algebra, fields, potentials = rotation_momentum()
    certified, details = check_momentum_map(s, algebra, fields, potentials)
    corrupted = [Cotensor(s.pair, {(): "x^2"})]
    rejected, bad = check_momentum_map(s, algebra, fields, corrupted)
    ok = (certified and not details["issues"]
          and not rejected and bad["issues"]
          and bad["issues"][0]["gate"] == "cocycle")
    assert verdicts.record(10, "the rotation momentum map certifies and a corrupted "
                       "potential is rejected at the cocycle gate", ok)


def test_criterion_11_seeded_reports_are_byte_identical(verdicts):
    plane = str(MODELS / "symplectic_plane.json")
    ok = True
    for argv in (
        ["identities", plane, "--count", "12", "--pairing-count", "6", "--seed", "5"],
        ["jacobi", plane, "--max-arity", "3", "--count", "4", "--seed", "5"],
    ):
        cmd = [sys.executable, "-m", "nplectic.cli"] + argv
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        payload = json.loads(first.stdout)
        ok = ok and first.stdout == second.stdout
        ok = ok and payload["meta"]["seed"] == 5
        ok = ok and b"elapsed" not in first.stdout and b"time" not in first.stdout
        ok = ok and argv[0].encode() in first.stderr
    assert verdicts.record(11, "seeded command reports are byte-identical across "
                       "runs, with wall time only on stderr", ok)
