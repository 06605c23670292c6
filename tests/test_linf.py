"""Bracket tables, the generic identity checkers, and momentum maps."""

import itertools
import random
from fractions import Fraction

import pytest

from nplectic.elements import Cotensor, Tensor
from nplectic.engine import ExtensionElement, NPlecticStructure
from nplectic.linf import (
    ClassLinf,
    ExtensionLinf,
    FiniteLInfinity,
    PairLinf,
    TensorLinf,
    check_linf,
    check_momentum_map,
    check_morphism,
    inclusion_component,
    jacobi_residual,
    morphism_residual,
)
from nplectic.pairs import ConstantPair, PolyVectorFieldPair
from nplectic.sampling import random_fraction, random_tensor

PLANE = PolyVectorFieldPair(2)


def su2():
    return ConstantPair.from_brackets(
        3, {(1, 2): {3: 1}, (2, 3): {1: 1}, (3, 1): {2: 1}})


def heisenberg():
    return ConstantPair.from_brackets(3, {(1, 2): {3: 1}})


def plane_structure():
    return NPlecticStructure(PLANE, 1, Cotensor(PLANE, {(1, 2): 1}))


def su2_cartan():
    pair = su2()
    return NPlecticStructure(pair, 2, Cotensor(pair, {(1, 2, 3): 1}))


# -- finite tables ---------------------------------------------------------------


def test_lie_algebra_tables_satisfy_jacobi():
    for pair in (su2(), heisenberg()):
        fin = FiniteLInfinity.from_pair(pair)
        ok, witness = check_linf(fin, [fin.basis(i) for i in (1, 2, 3)], 5)
        assert ok, witness


def test_tensor_and_extension_operations_pass_the_generic_checker():
    op = TensorLinf(PLANE)
    gens = [Tensor(PLANE, {(1,): "x"}), Tensor(PLANE, {(2,): "y"}),
            Tensor.basis(PLANE, (1, 2))]
    ok, witness = check_linf(op, gens, 5)
    assert ok, witness

    s = plane_structure()
    eop = ExtensionLinf(s)
    e1 = ExtensionElement(s, Cotensor(PLANE, {(): "y"}), Tensor(PLANE, {(2,): "x"}))
    e0 = ExtensionElement(s, Cotensor(PLANE, {(1,): "x"}), Tensor(PLANE, {(): "x"}))
    ok, witness = check_linf(eop, [e1, e0], 5)
    assert ok, witness


def test_corrupted_table_is_caught_with_witness():
    # su(2) with a spurious extra term in [e1, e2]
    fin = FiniteLInfinity([1, 1, 1], {2: {(1, 2): {3: "1", 2: "1"},
                                          (2, 3): {1: "1"},
                                          (1, 3): {2: "-1"}}})
    ok, witness = check_linf(fin, [fin.basis(i) for i in (1, 2, 3)], 3)
    assert not ok
    assert witness["arity"] == 3
    assert witness["residual"] == {1: Fraction(1)}


def test_bracket_symmetrizes_with_koszul_signs():
    fin = FiniteLInfinity([1, 1, 2], {2: {(1, 2): {3: "1"}, (1, 3): {1: "1"}}})
    b1, b2, b3 = fin.basis(1), fin.basis(2), fin.basis(3)
    assert fin.bracket(2, [b2, b1]) == fin.scale(-1, fin.bracket(2, [b1, b2]))
    assert fin.bracket(2, [b3, b1]) == fin.bracket(2, [b1, b3])
    assert fin.bracket(2, [b1, b1]) == {}


def test_table_rejects_repeated_odd_key():
    with pytest.raises(ValueError):
        FiniteLInfinity([1, 1], {2: {(1, 1): {2: "1"}}})
    # an even-degree repeat is a legal key
    FiniteLInfinity([2, 1], {2: {(1, 1): {2: "1"}}})


def test_table_rejects_unsorted_key():
    with pytest.raises(ValueError):
        FiniteLInfinity([1, 1], {2: {(2, 1): {1: "1"}}})


def test_table_json_roundtrip():
    fin = FiniteLInfinity([1, 1, 2], {1: {(3,): {1: "1/2"}},
                                      2: {(1, 2): {3: "-2"}}})
    again = FiniteLInfinity.from_json(fin.to_json())
    assert again.degrees == fin.degrees
    assert again.brackets == fin.brackets


# -- the shuffle sum against the S_n oracle ----------------------------------------


def test_oracle_agrees_on_a_nonzero_residual(jacobi_oracle):
    # [e1, e3] = e1 breaks Jacobi at (1, 2, 3)
    fin = FiniteLInfinity([1, 1, 1], {2: {(1, 2): {3: 1}, (2, 3): {1: 1},
                                          (1, 3): {1: 1}}})
    vs = [fin.basis(i) for i in (1, 2, 3)]
    assert jacobi_residual(fin, vs) == {3: Fraction(-1)}
    assert jacobi_oracle(fin, vs) == {3: Fraction(-1)}


def test_tensor_jacobi_matches_oracle(jacobi_oracle):
    rng = random.Random(7)
    op = TensorLinf(PLANE)
    for arity in (2, 3):
        for _ in range(5):
            xs = [random_tensor(rng, PLANE, rng.choice((0, 1, 2)), max_degree=2)
                  for _ in range(arity)]
            assert jacobi_residual(op, xs) == jacobi_oracle(op, xs)
            assert jacobi_residual(op, xs).is_zero()


def test_extension_jacobi_matches_oracle(jacobi_oracle, random_extension):
    rng = random.Random(13)
    for s in (plane_structure(), su2_cartan()):
        op = ExtensionLinf(s)
        for arity in (2, 3, 4):
            for _ in range(3):
                es = [random_extension(rng, s, rng.choice((0, 1)))
                      for _ in range(arity)]
                residual = jacobi_residual(op, es)
                assert residual == jacobi_oracle(op, es)
                assert residual.is_zero()


# -- the natural inclusion --------------------------------------------------------


def random_low_tensor(rng):
    return random_tensor(rng, PLANE, rng.choice((0, 1)), max_degree=2)


def test_inclusion_is_a_morphism_up_to_arity_four():
    rng = random.Random(19)
    dom, cod = PairLinf(PLANE), TensorLinf(PLANE)
    tuples = [[random_low_tensor(rng) for _ in range(arity)]
              for arity in (1, 2, 3, 4) for _ in range(4)]
    ok, witness = check_morphism(inclusion_component, dom, cod, tuples)
    assert ok, witness


def test_unscaled_inclusion_fails_at_arity_three():
    rng = random.Random(29)
    dom, cod = PairLinf(PLANE), TensorLinf(PLANE)

    def corrupted(k, xs):
        if k == 1:
            return xs[0]
        out = Tensor.scalar(PLANE, 1)
        for x in reversed(list(xs)):
            out = out.wedge(x)
        return out  # missing the (k-1)! weight and the alternation sign

    # a triple with a nonvanishing ternary bracket, so the bad weight shows
    fields = [Tensor(PLANE, {(1,): "x"}), Tensor(PLANE, {(2,): "y"}),
              Tensor(PLANE, {(2,): "x"})]
    residual = morphism_residual(corrupted, dom, cod, fields)
    assert not residual.is_zero()


def test_morphism_residual_is_koszul_sign_consistent():
    # swapping two odd arguments must negate the residual, zero or not
    dom, cod = PairLinf(PLANE), TensorLinf(PLANE)

    def corrupted(k, xs):
        if k == 1:
            return xs[0]
        out = Tensor.scalar(PLANE, 1)
        for x in reversed(list(xs)):
            out = out.wedge(x)
        return out

    fields = [Tensor(PLANE, {(1,): "x"}), Tensor(PLANE, {(2,): "y"}),
              Tensor(PLANE, {(2,): "x"})]
    swapped = [fields[1], fields[0], fields[2]]
    residual = morphism_residual(corrupted, dom, cod, fields)
    assert morphism_residual(corrupted, dom, cod, swapped) == -1 * residual


def test_zero_component_family_is_a_morphism():
    dom, cod = PairLinf(PLANE), TensorLinf(PLANE)
    tuples = [[Tensor(PLANE, {(1,): "x"}), Tensor(PLANE, {(2,): "y"})]]
    ok, witness = check_morphism(lambda k, xs: None, dom, cod, tuples)
    assert ok, witness


def test_identity_is_a_strict_morphism_of_a_lie_algebra():
    fin = FiniteLInfinity.from_pair(su2())

    def identity(k, xs):
        return xs[0] if k == 1 else None

    basis = [fin.basis(i) for i in (1, 2, 3)]
    tuples = [list(vs) for arity in (1, 2, 3)
              for vs in itertools.combinations_with_replacement(basis, arity)]
    ok, witness = check_morphism(identity, fin, fin, tuples)
    assert ok, witness


def test_pair_bracket_matches_the_binary_higher_bracket():
    from nplectic.calculus import higher_bracket

    rng = random.Random(37)
    dom = PairLinf(PLANE)
    for _ in range(20):
        u = random_low_tensor(rng) + Tensor.scalar(PLANE, random_fraction(rng))
        v = random_low_tensor(rng)
        assert dom.bracket(2, [u, v]) == higher_bracket(2, [u, v])


# -- momentum maps ----------------------------------------------------------------


def rotation_candidate():
    field = Tensor(PLANE, {(2,): "x", (1,): "-y"})
    potential = Cotensor(PLANE, {(): "-1/2*x^2 - 1/2*y^2"})
    return ConstantPair(1, ()), [field], [potential]


def test_rotation_momentum_map_is_certified():
    algebra, fields, potentials = rotation_candidate()
    ok, details = check_momentum_map(plane_structure(), algebra, fields, potentials)
    assert ok, details["issues"]
    assert not details["classes"][0].is_zero()


def test_corrupted_potential_fails_the_cocycle_gate():
    algebra, fields, potentials = rotation_candidate()
    bad = [potentials[0] + Cotensor(PLANE, {(): "x"})]
    ok, details = check_momentum_map(plane_structure(), algebra, fields, bad)
    assert not ok
    assert details["issues"][0]["gate"] == "cocycle"
    assert details["classes"][0] is None


def test_non_symplectic_field_fails_the_cocycle_gate():
    algebra, fields, potentials = rotation_candidate()
    bad = [fields[0] + Tensor(PLANE, {(1,): "x"})]
    ok, details = check_momentum_map(plane_structure(), algebra, bad, potentials)
    assert not ok
    assert details["issues"][0]["gate"] == "cocycle"


def test_zero_momentum_map_is_certified():
    algebra = ConstantPair(1, ())
    ok, details = check_momentum_map(plane_structure(), algebra,
                                     [Tensor.zero(PLANE)], [Cotensor.zero(PLANE)])
    assert ok, details["issues"]
    assert details["classes"][0].is_zero()


def test_wrong_degree_field_is_rejected_outright():
    algebra, _, potentials = rotation_candidate()
    with pytest.raises(ValueError):
        check_momentum_map(plane_structure(), algebra,
                           [Tensor.basis(PLANE, (1, 2))], potentials)


def test_su2_momentum_map_into_its_cartan_structure():
    s = su2_cartan()
    pair = s.pair
    fields = [Tensor.basis(pair, (g,)) for g in (1, 2, 3)]
    potentials = [Cotensor(pair, {(g,): -1}) for g in (1, 2, 3)]
    ok, details = check_momentum_map(s, pair, fields, potentials)
    assert ok, details["issues"]


def test_su2_momentum_map_with_flipped_sign_fails_the_morphism_gate():
    s = su2_cartan()
    pair = s.pair
    fields = [Tensor.basis(pair, (g,)) for g in (1, 2, 3)]
    potentials = [Cotensor(pair, {(1,): -1}), Cotensor(pair, {(2,): -1}),
                  Cotensor(pair, {(3,): 1})]
    ok, details = check_momentum_map(s, pair, fields, potentials)
    assert not ok
    assert any(issue["gate"] for issue in details["issues"])
