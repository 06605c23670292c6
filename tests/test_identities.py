"""The randomized rule suites and their reports."""

from nplectic.elements import Cotensor
from nplectic.engine import NPlecticStructure
from nplectic.identities import cartan_suite, pairing_suite
from nplectic.pairs import ConstantPair, PolyVectorFieldPair
from nplectic.report import canonical_json

SPACE = PolyVectorFieldPair(3)


def su2():
    return ConstantPair.from_brackets(
        3, {(1, 2): {3: 1}, (2, 3): {1: 1}, (3, 1): {2: 1}})


def test_suite_passes_on_both_families():
    for pair in (su2(), SPACE):
        report = cartan_suite(pair, count=40, seed=3)
        assert report.ok, report.failures()
        for check in report.checks:
            assert check.details["instances"] == 40


def test_one_sided_variant_fails_without_gating():
    report = cartan_suite(SPACE, count=60, seed=3)
    variant = next(c for c in report.checks if c.name == "bracket_flow_one_sided")
    assert not variant.ok
    assert variant.details["failures"] > 0
    assert "witness" in variant.details
    assert report.ok  # informational checks never gate


def test_suite_catches_a_broken_bracket_table():
    broken = ConstantPair.from_brackets(
        3, {(1, 2): {3: 1, 2: 1}, (2, 3): {1: 1}, (3, 1): {2: 1}})
    report = cartan_suite(broken, count=40, seed=3)
    assert not report.ok
    names = {c.name for c in report.failures()}
    assert "d_squares_to_zero" in names


def test_suite_is_reproducible():
    a = cartan_suite(SPACE, count=25, seed=11)
    b = cartan_suite(SPACE, count=25, seed=11)
    assert canonical_json(a.to_json()) == canonical_json(b.to_json())
    c = cartan_suite(SPACE, count=25, seed=12)
    assert canonical_json(a.to_json()) != canonical_json(c.to_json())


def test_pairing_suite_passes_on_both_models():
    plane = PolyVectorFieldPair(2)
    s = NPlecticStructure(plane, 1, Cotensor(plane, {(1, 2): 1}))
    pair = su2()
    sc = NPlecticStructure(pair, 2, Cotensor(pair, {(1, 2, 3): 1}))
    for structure in (s, sc):
        report = pairing_suite(structure, count=12, seed=9)
        assert report.ok, report.failures()
        assert [c.name for c in report.checks] == [
            "bracket_pairing_arity_2",
            "bracket_pairing_arity_3",
            "bracket_pairing_arity_4",
        ]
