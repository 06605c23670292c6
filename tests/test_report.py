"""The two seeded-check loops of `Report` and the no-vacuous-pass rule."""

import random

import pytest

from nplectic.elements import Cotensor, Tensor
from nplectic.engine import NPlecticStructure
from nplectic.identities import cartan_suite, pairing_suite
from nplectic.pairs import (
    ConstantPair,
    PairMorphismCandidate,
    PolyVectorFieldPair,
    validate_morphism,
    validate_pair,
)
from nplectic.report import Report, witness_unless
from nplectic.sampling import random_coeff, random_gvector, random_tuples

PLANE = PolyVectorFieldPair(2)


def recorded(values, drawn):
    """Yield one-element cases, logging each value when it is drawn."""
    for v in values:
        drawn.append(v)
        yield (v,)


def negative(v):
    return witness_unless(v >= 0, v=v)


def test_first_failure_draws_nothing_after_the_first_failure():
    drawn = []
    report = Report("t")
    check = report.first_failure("nonnegative", recorded([3, 1, -2, -5, 4], drawn), negative)
    assert drawn == [3, 1, -2]
    assert not check.ok and check.details == {"v": "-2"}


def test_first_failure_passes_with_empty_details():
    check = Report("t").first_failure("nonnegative", recorded([0, 1, 2], []), negative)
    assert check.ok and check.details == {}


def test_tally_counts_every_case_and_keeps_the_first_witness():
    drawn = []
    report = Report("t")
    check = report.tally("nonnegative", recorded([3, -1, 2, -7], drawn), negative)
    assert drawn == [3, -1, 2, -7]
    assert not check.ok
    assert check.details == {"instances": 4, "failures": 2, "witness": {"v": "-1"}}


def test_tally_keeps_its_count_key_and_gating():
    report = Report("t")
    check = report.tally("nonnegative", [(-1,), (1,)], negative, gating=False,
                         count_key="nonzero")
    assert check.details["nonzero"] == 1 and not check.ok
    assert report.ok  # an informational check does not gate


@pytest.mark.parametrize("method", ["first_failure", "tally"])
def test_a_check_over_zero_cases_fails(method):
    report = Report("t")
    check = getattr(report, method)("empty", iter(()), negative)
    assert not check.ok and not report.ok
    assert check.details["instances"] == 0


def test_random_tuples_are_drawn_lazily_in_slot_order():
    rng, twin = random.Random(5), random.Random(5)
    tuples = random_tuples(rng, PLANE, (random_gvector, random_coeff), 2, max_degree=1)
    assert rng.getstate() == twin.getstate()  # nothing drawn yet
    x, a = next(tuples)
    assert (x, a) == (random_gvector(twin, PLANE, 1), random_coeff(twin, PLANE, 1))
    assert len(list(tuples)) == 1


def test_library_suites_over_zero_cases_do_not_pass():
    s = NPlecticStructure(PLANE, 1, Cotensor(PLANE, {(1, 2): 1}))
    for report in (cartan_suite(PLANE, count=0), pairing_suite(s, count=0)):
        assert not report.ok
        assert all(c.details["instances"] == 0 for c in report.checks)
    report = validate_pair(PLANE, samples=0)
    assert not report.ok
    assert [c.name for c in report.failures()] == [
        "bracket_antisymmetry", "jacobi", "action_derivation", "leibniz",
        "action_lie_morphism"]
    identity = PairMorphismCandidate(PLANE, PLANE, (PLANE.coeff("x"), PLANE.coeff("y")),
                                     (Tensor.basis(PLANE, (1,)), Tensor.basis(PLANE, (2,))))
    assert not validate_morphism(identity, samples=0).ok


def test_jacobi_over_basis_triples_alone_still_runs():
    # a constant pair whose rows reach basis triples has Jacobi cases even
    # without random samples, so only the random checks are empty
    su2 = ConstantPair.from_brackets(3, {(1, 2): {3: 1}, (2, 3): {1: 1}, (3, 1): {2: 1}})
    jacobi = next(c for c in validate_pair(su2, samples=0).checks if c.name == "jacobi")
    assert jacobi.ok and jacobi.details == {}
