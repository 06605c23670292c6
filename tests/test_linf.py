"""Bracket tables, the generic identity checkers, and momentum maps."""

import functools
import inspect
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_extension_element
from nplectic import calculus, linf
from nplectic.calculus import natural_inclusion
from nplectic.cohomology import CohomClass, class_of
from nplectic.elements import Cotensor, Tensor
from nplectic.engine import (
    ExtensionElement,
    NPlecticStructure,
    hamiltonian_potential,
    kernel_basis,
    reduce_mod_kernel,
    structure_from_json,
    symplectic_basis,
)
from nplectic.linf import (
    ClassLinf,
    ExtensionLinf,
    FiniteLInfinity,
    PairLinf,
    TensorLinf,
    check_linf,
    check_momentum_map,
    check_morphism,
    jacobi_residual,
    morphism_residual,
)
from nplectic.models import momentum_from_json, rotation_momentum
from nplectic.pairs import ConstantPair, PolyVectorFieldPair
from nplectic.sampling import DRAW_DEN, random_numerator, random_tensor
from nplectic.scalars import CapExceeded, bell, enumerate_shuffles, koszul_sign

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
    assert fin.bracket([b2, b1]) == fin.scale(-1, fin.bracket([b1, b2]))
    assert fin.bracket([b3, b1]) == fin.bracket([b1, b3])
    assert fin.bracket([b1, b1]) == {}


def test_table_rejects_repeated_odd_key():
    with pytest.raises(ValueError):
        FiniteLInfinity([1, 1], {2: {(1, 1): {2: "1"}}})
    # an even-degree repeat is a legal key
    FiniteLInfinity([2, 1], {2: {(1, 1): {2: "1"}}})


def test_table_rejects_unsorted_key():
    with pytest.raises(ValueError):
        FiniteLInfinity([1, 1], {2: {(2, 1): {1: "1"}}})


def test_table_rejects_arity_zero_and_an_index_out_of_range():
    with pytest.raises(ValueError, match="bracket arity must be at least one"):
        FiniteLInfinity([1], {0: {(): {1: "1"}}})
    with pytest.raises(ValueError, match="basis index 3 out of range"):
        FiniteLInfinity([1, 1], {2: {(1, 3): {1: "1"}}})


def _su2_table_and_basis():
    fin = FiniteLInfinity.from_pair(su2())
    return fin, [fin.basis(i) for i in (1, 2, 3)]


@pytest.mark.parametrize("check", [
    lambda fin, gens: check_linf(fin, [], 3),
    lambda fin, gens: check_linf(fin, gens, 0),
    lambda fin, gens: check_morphism({1: lambda xs: xs[0]}, fin, fin, []),
], ids=["linf-no-generators", "linf-arity-zero", "morphism-no-tuples"])
def test_a_checker_over_zero_instances_fails(check):
    assert check(*_su2_table_and_basis()) == (False, {"instances": 0})


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


def up_to_arity(n, component):
    """The morphism with the same component at every arity 1..n."""
    return dict.fromkeys(range(1, n + 1), component)


def unscaled_inclusion(xs):
    """The inclusion's wedges, missing the (k-1)! weight and the alternation sign."""
    if len(xs) == 1:
        return xs[0]
    out = Tensor.scalar(PLANE, 1)
    for x in reversed(list(xs)):
        out = out.wedge(x)
    return out


def test_inclusion_is_a_morphism_up_to_arity_four():
    rng = random.Random(19)
    dom, cod = PairLinf(PLANE), TensorLinf(PLANE)
    tuples = [[random_low_tensor(rng) for _ in range(arity)]
              for arity in (1, 2, 3, 4) for _ in range(4)]
    ok, witness = check_morphism(up_to_arity(4, natural_inclusion), dom, cod, tuples)
    assert ok, witness


def test_unscaled_inclusion_fails_at_arity_three():
    rng = random.Random(29)
    dom, cod = PairLinf(PLANE), TensorLinf(PLANE)

    # a triple with a nonvanishing ternary bracket, so the bad weight shows
    fields = [Tensor(PLANE, {(1,): "x"}), Tensor(PLANE, {(2,): "y"}),
              Tensor(PLANE, {(2,): "x"})]
    residual = morphism_residual(up_to_arity(3, unscaled_inclusion), dom, cod, fields)
    assert not residual.is_zero()


def test_morphism_residual_is_koszul_sign_consistent():
    # swapping two odd arguments must negate the residual, zero or not
    dom, cod = PairLinf(PLANE), TensorLinf(PLANE)

    fields = [Tensor(PLANE, {(1,): "x"}), Tensor(PLANE, {(2,): "y"}),
              Tensor(PLANE, {(2,): "x"})]
    swapped = [fields[1], fields[0], fields[2]]
    components = up_to_arity(3, unscaled_inclusion)
    residual = morphism_residual(components, dom, cod, fields)
    assert morphism_residual(components, dom, cod, swapped) == -1 * residual


def test_zero_component_family_is_a_morphism():
    dom, cod = PairLinf(PLANE), TensorLinf(PLANE)
    tuples = [[Tensor(PLANE, {(1,): "x"}), Tensor(PLANE, {(2,): "y"})]]
    ok, witness = check_morphism({}, dom, cod, tuples)
    assert ok, witness


def test_identity_is_a_strict_morphism_of_a_lie_algebra():
    fin = FiniteLInfinity.from_pair(su2())
    basis = [fin.basis(i) for i in (1, 2, 3)]
    tuples = [list(vs) for arity in (1, 2, 3)
              for vs in itertools.combinations_with_replacement(basis, arity)]
    ok, witness = check_morphism({1: lambda xs: xs[0]}, fin, fin, tuples)
    assert ok, witness


def test_check_morphism_draws_no_tuple_after_the_first_failure():
    fin = FiniteLInfinity.from_pair(su2())
    drawn = []

    def tuples():
        for i, j in itertools.product((1, 2, 3), repeat=2):
            drawn.append((i, j))
            yield [fin.basis(i), fin.basis(j)]

    # twice the identity fails first at (e1, e2), where [e1, e2] = e3
    ok, witness = check_morphism({1: lambda xs: fin.scale(2, xs[0])}, fin, fin, tuples())
    assert not ok and witness["args"] == [fin.basis(1), fin.basis(2)]
    assert drawn == [(1, 1), (1, 2)]


def test_pair_bracket_matches_the_binary_higher_bracket():
    from nplectic.calculus import higher_bracket

    rng = random.Random(37)
    dom = PairLinf(PLANE)
    for _ in range(20):
        u = random_low_tensor(rng)
        u = u + Tensor.scalar(PLANE, Fraction(random_numerator(rng), DRAW_DEN))
        v = random_low_tensor(rng)
        assert dom.bracket([u, v]) == higher_bracket([u, v])


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


def test_momentum_map_at_arity_zero_fails_the_morphism_gate():
    algebra, fields, potentials = rotation_candidate()
    ok, details = check_momentum_map(plane_structure(), algebra, fields, potentials,
                                     max_arity=0)
    assert not ok
    assert details["issues"] == [{"gate": "morphism", "instances": 0,
                                  "reason": "no generator tuple to check"}]
    # one generator is a tuple to check: at arity 1 both gates pass
    ok, details = check_momentum_map(plane_structure(), algebra, fields, potentials,
                                     max_arity=1)
    assert ok and details["issues"] == []


def test_momentum_arity_above_the_cap_raises_before_the_cocycle_gate():
    algebra, fields, potentials = rotation_candidate()
    bad = [potentials[0] + Cotensor(PLANE, {(): "x"})]
    with pytest.raises(CapExceeded, match="exceeds cap"):
        check_momentum_map(plane_structure(), algebra, fields, bad, max_arity=7, cap=6)


def test_momentum_map_on_a_polynomial_omega_is_rejected_before_the_gates():
    space = PolyVectorFieldPair(3)
    s = NPlecticStructure(space, 2, Cotensor(space, {(1, 2, 3): "1 + x^2"}))
    with pytest.raises(ValueError, match="weight-homogeneous"):
        check_momentum_map(s, ConstantPair(1, ()), [Tensor.zero(space)],
                           [Cotensor(space, {(1,): 1})])


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


# -- the partition sum against the ordered-block oracle -----------------------------


def random_table(rng, degrees, arities, targets, density=0.5):
    """Random bracket entries per sorted key; `targets(key)` lists allowed targets."""
    table = {}
    for k in arities:
        slot = {}
        for key in itertools.combinations_with_replacement(range(1, len(degrees) + 1), k):
            if any(a == b and degrees[a - 1] % 2 for a, b in zip(key, key[1:])):
                continue
            allowed = targets(key)
            if allowed and rng.random() < density:
                slot[key] = {t: Fraction(random_numerator(rng), DRAW_DEN)
                             for t in rng.sample(allowed, rng.randint(1, len(allowed)))}
        table[k] = slot
    return table


def random_homogeneous(rng, fin):
    """A nonzero combination of the basis vectors of one degree."""
    d = rng.choice(fin.degrees)
    idx = [i for i, g in enumerate(fin.degrees, start=1) if g == d]
    v = {i: Fraction(random_numerator(rng), DRAW_DEN)
         for i in rng.sample(idx, rng.randint(1, len(idx)))}
    return {i: c for i, c in v.items() if c} or fin.basis(idx[0])


def random_table_morphism(rng, arities=None):
    """Random tables on both sides, with components that preserve degree
    parity: (components, dom, cod).  The component arities are the given
    ones, or drawn from 1, 2, 3 with gaps."""
    dom_degs = [rng.choice((0, 1, 1, 2)) for _ in range(rng.randint(2, 3))]
    cod_degs = [rng.choice((0, 1, 1, 2)) for _ in range(rng.randint(2, 4))]
    every = list(range(1, len(cod_degs) + 1))
    dom = FiniteLInfinity(dom_degs, random_table(
        rng, dom_degs, (1, 2, 3), lambda key: list(range(1, len(dom_degs) + 1))))
    cod = FiniteLInfinity(cod_degs, random_table(rng, cod_degs, (1, 2, 3, 4),
                                                 lambda key: every, density=0.8))

    def same_parity(key):
        parity = sum(dom_degs[i - 1] for i in key) % 2
        return [t for t in every if cod_degs[t - 1] % 2 == parity]

    if arities is None:
        arities = [k for k in (1, 2, 3) if rng.random() < 0.8]
    comps = FiniteLInfinity(dom_degs, random_table(rng, dom_degs, arities, same_parity,
                                                   density=0.8))
    return {k: comps.bracket for k in comps.brackets}, dom, cod


def same_value(op, a, b):
    return (op.is_zero(a) and op.is_zero(b)) or a == b


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_partition_sum_matches_ordered_oracle_on_tables(seed, morphism_oracle):
    rng = random.Random(seed)
    components, dom, cod = random_table_morphism(rng)
    for arity in (1, 2, 3, 4):
        for _ in range(3):
            vs = [random_homogeneous(rng, dom) for _ in range(arity)]
            assert (morphism_residual(components, dom, cod, vs)
                    == morphism_oracle(components, dom, cod, vs))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), arity=st.integers(1, 4),
       component=st.sampled_from([natural_inclusion, unscaled_inclusion]))
def test_partition_sum_matches_ordered_oracle_on_the_inclusion(seed, arity, component,
                                                               morphism_oracle):
    rng = random.Random(seed)
    dom, cod = PairLinf(PLANE), TensorLinf(PLANE)
    xs = [random_low_tensor(rng) for _ in range(arity)]
    components = up_to_arity(arity, component)
    assert (morphism_residual(components, dom, cod, xs)
            == morphism_oracle(components, dom, cod, xs))


GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"


@functools.lru_cache(maxsize=None)
def momentum_classes(name):
    """The structure, algebra and generator classes of a shipped candidate."""
    s = plane_structure()
    if name == "rotation":
        algebra, fields, potentials = rotation_momentum()
    else:
        data = json.loads((GOLDEN_INPUTS / "sp2_momentum.json").read_text())
        algebra, fields, potentials = momentum_from_json(s, data)
    classes = [class_of(ExtensionElement(s, f, x), degree=1)
               for f, x in zip(potentials, fields)]
    return s, algebra, tuple(classes)


def test_momentum_check_takes_a_unit_component_as_the_class_itself(monkeypatch):
    # the classes are never mutated, so 1 * class need not be rebuilt
    s = plane_structure()
    data = json.loads((GOLDEN_INPUTS / "sp2_momentum.json").read_text())
    algebra, fields, potentials = momentum_from_json(s, data)
    scalars = []
    original = CohomClass.__mul__

    def counted(self, scalar):
        scalars.append(scalar)
        return original(self, scalar)

    monkeypatch.setattr(CohomClass, "__mul__", counted)
    monkeypatch.setattr(CohomClass, "__rmul__", counted)
    ok, details = check_momentum_map(s, algebra, fields, potentials, max_arity=4)
    assert ok and not details["issues"]
    assert 1 not in scalars


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), arity=st.integers(1, 4),
       name=st.sampled_from(["sp2", "rotation"]), corrupt=st.booleans())
def test_partition_sum_matches_ordered_oracle_on_momentum_maps(seed, arity, name, corrupt,
                                                               morphism_oracle):
    # corrupting rescales each generator's potential together with its field,
    # which keeps a cocycle but moves its class, and perturbs the table
    rng = random.Random(seed)
    s, algebra, classes = momentum_classes(name)
    dom = FiniteLInfinity.from_pair(algebra)
    if corrupt:
        classes = [Fraction(random_numerator(rng), DRAW_DEN) * c for c in classes]
        table = dom.brackets.get(2, {})
        for key in rng.sample(sorted(table), min(1, len(table))):
            table[key] = {t: c + Fraction(random_numerator(rng), DRAW_DEN)
                          for t, c in table[key].items()}

    def component(vs):
        out = CohomClass.zero(s, 1)
        for i, c in vs[0].items():
            out = out + c * classes[i - 1]
        return out

    cod = ClassLinf(s)
    vs = [random_homogeneous(rng, dom) for _ in range(arity)]
    assert same_value(cod, morphism_residual({1: component}, dom, cod, vs),
                      morphism_oracle({1: component}, dom, cod, vs))


def test_oracle_agrees_on_a_nonzero_momentum_residual(morphism_oracle):
    s, algebra, classes = momentum_classes("sp2")
    dom, cod = FiniteLInfinity.from_pair(algebra), ClassLinf(s)
    doubled = [2 * c for c in classes]

    components = {1: lambda vs: doubled[next(iter(vs[0])) - 1]}
    vs = [dom.basis(1), dom.basis(2)]
    residual = morphism_residual(components, dom, cod, vs)
    assert not residual.is_zero()
    assert residual == morphism_oracle(components, dom, cod, vs)


@pytest.mark.parametrize("arities", [[1], [2], [3], [1, 3], [2, 3], [1, 2, 3]], ids=str)
def test_pruned_residual_matches_ordered_oracle_with_gaps(arities, morphism_oracle):
    # the oracle walks every split and every ordered partition, listed or not
    rng = random.Random(67 + sum(arities))
    nonzero = 0
    for _ in range(3):
        components, dom, cod = random_table_morphism(rng, arities)
        assert sorted(components) == arities
        for arity in range(1, 6):
            vs = [random_homogeneous(rng, dom) for _ in range(arity)]
            residual = morphism_residual(components, dom, cod, vs)
            assert residual == morphism_oracle(components, dom, cod, vs)
            nonzero += bool(residual)
    assert nonzero


def test_a_listed_component_may_return_none(morphism_oracle):
    rng = random.Random(71)
    components, dom, cod = random_table_morphism(rng, [1, 2, 3])
    unlisted = {1: components[1], 3: components[3]}
    none_at_two = {1: components[1], 2: lambda vs: None, 3: components[3]}
    nonzero = 0
    for arity in range(1, 5):
        for _ in range(3):
            vs = [random_homogeneous(rng, dom) for _ in range(arity)]
            residual = morphism_residual(none_at_two, dom, cod, vs)
            assert residual == morphism_residual(unlisted, dom, cod, vs)
            assert residual == morphism_oracle(unlisted, dom, cod, vs)
            nonzero += bool(residual)
    assert nonzero


@pytest.mark.parametrize("arity", [0, -1])
def test_a_component_arity_below_one_is_rejected(arity):
    fin = FiniteLInfinity.from_pair(su2())
    components = {1: lambda xs: xs[0], arity: lambda xs: xs[0]}
    with pytest.raises(ValueError, match="at least one"):
        morphism_residual(components, fin, fin, [fin.basis(1)])
    with pytest.raises(ValueError, match="at least one"):
        check_morphism(components, fin, fin, [[fin.basis(1)]])


@pytest.mark.parametrize("n", range(0, 7))
def test_restricted_partitions_are_the_unrestricted_ones_in_order(n):
    every = list(linf._set_partitions(n, range(1, n + 1)))
    assert len(every) == bell(n)
    for blocks in every:
        assert all(block == sorted(block) for block in blocks)
        assert [block[0] for block in blocks] == sorted(block[0] for block in blocks)
    for sizes in (set(), {1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}):
        assert list(linf._set_partitions(n, sizes)) == [
            blocks for blocks in every if all(len(block) in sizes for block in blocks)]


# -- graded symmetry of every adapter ------------------------------------------------


def nonzero(rng, op, draw):
    while True:
        v = draw(rng)
        if not op.is_zero(v):
            return v


def hamiltonian_class(rng, s, degree):
    while True:
        x = Tensor.zero(s.pair)
        for b in symplectic_basis(s, degree, max_poly_degree=2):
            if rng.random() < 0.6:
                x = x + Fraction(random_numerator(rng), DRAW_DEN) * b
        f = hamiltonian_potential(x, s)
        if f is not None and not x.is_zero():
            return class_of(ExtensionElement(s, f, x), degree=degree)


def sample_table(rng):
    degrees = [0, 1, 1, 2]
    fin = FiniteLInfinity(degrees, random_table(
        rng, degrees, (2, 3, 4), lambda key: [1, 2, 3, 4], density=0.7))
    return fin, lambda rng: random_homogeneous(rng, fin)


def sample_extension(rng):
    s = su2_cartan()
    return ExtensionLinf(s), lambda rng: random_extension_element(rng, s, rng.choice((0, 1, 2)))


def sample_classes(rng):
    s = plane_structure()
    return ClassLinf(s), lambda rng: hamiltonian_class(rng, s, rng.choice((0, 1)))


# one seeded operation and element sampler per adapter in `nplectic.linf`
ADAPTER_SAMPLES = {
    "FiniteLInfinity": sample_table,
    "PairLinf": lambda rng: (PairLinf(PLANE), random_low_tensor),
    "TensorLinf": lambda rng: (TensorLinf(PLANE), lambda rng: random_tensor(
        rng, PLANE, rng.choice((0, 1, 2)), max_degree=2)),
    "ExtensionLinf": sample_extension,
    "ClassLinf": sample_classes,
}

ADAPTERS = sorted(name for name, cls in inspect.getmembers(linf, inspect.isclass)
                  if issubclass(cls, linf.Operations) and cls is not linf.Operations)


@pytest.mark.parametrize("name", ADAPTERS)
def test_every_adapter_bracket_is_graded_symmetric(name):
    # the partition sum in morphism_residual counts each block ordering once,
    # which is only right for graded symmetric codomain brackets
    assert name in ADAPTER_SAMPLES, f"no sampler for the adapter {name}"
    rng = random.Random(53)
    op, draw = ADAPTER_SAMPLES[name](rng)
    values = 0
    for k in (2, 3, 4):
        for _ in range(3):
            vs = [nonzero(rng, op, draw) for _ in range(k)]
            value = op.bracket(vs)
            values += not op.is_zero(value)
            for i in range(k - 1):
                swapped = vs[:i] + [vs[i + 1], vs[i]] + vs[i + 2:]
                sign = -1 if op.degree(vs[i]) % 2 and op.degree(vs[i + 1]) % 2 else 1
                assert same_value(op, op.bracket(swapped), op.scale(sign, value))
    assert values, f"every sampled {name} bracket vanished"


# -- work -----------------------------------------------------------------------------


class CountingTable(FiniteLInfinity):
    """A bracket table that counts its bracket calls."""

    calls = 0

    def bracket(self, vs):
        self.calls += 1
        return super().bracket(vs)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_unary_component_makes_one_codomain_bracket(n):
    fin = FiniteLInfinity.from_pair(su2())
    cod = CountingTable.from_pair(su2())
    vs = [fin.basis(1 + i % 3) for i in range(n)]
    morphism_residual({1: lambda xs: xs[0]}, fin, cod, vs)
    assert cod.calls == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_codomain_brackets_are_one_per_set_partition(n):
    rng = random.Random(59 + n)
    components, dom, table = random_table_morphism(rng)
    cod = CountingTable(table.degrees, table.brackets)
    # every arity listed, the missing ones as components that are zero
    total = {k: components.get(k, lambda vs: {}) for k in range(1, n + 1)}
    vs = [random_homogeneous(rng, dom) for _ in range(n)]
    morphism_residual(components, dom, cod, vs)
    assert cod.calls <= bell(n)
    cod.calls = 0
    morphism_residual(total, dom, cod, vs)
    assert cod.calls == bell(n)


class CountingOperations(linf.Operations):
    """An algebra's operations, counting its brackets."""

    def __init__(self, op):
        self.op = op
        self.brackets = 0

    def zero(self):
        return self.op.zero()

    def add(self, a, b):
        return self.op.add(a, b)

    def scale(self, c, v):
        return self.op.scale(c, v)

    def is_zero(self, v):
        return self.op.is_zero(v)

    def degree(self, v):
        return self.op.degree(v)

    def bracket(self, vs, pairs=None):
        self.brackets += 1
        return self.op.bracket(vs)


@pytest.fixture
def partitions_walked(monkeypatch):
    """Every partition `morphism_residual` walks, in order."""
    walked = []
    enumerate_partitions = linf._set_partitions

    def counting(n, sizes):
        for blocks in enumerate_partitions(n, sizes):
            walked.append(blocks)
            yield blocks

    monkeypatch.setattr(linf, "_set_partitions", counting)
    return walked


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_a_unary_morphism_forms_one_domain_bracket_and_walks_one_partition(
        n, partitions_walked):
    dom = CountingOperations(FiniteLInfinity.from_pair(su2()))
    cod = CountingOperations(FiniteLInfinity.from_pair(su2()))
    evaluated = []

    def identity(xs):
        evaluated.append(xs[0])
        return xs[0]

    vs = [dom.op.basis(1 + i % 3) for i in range(n)]
    morphism_residual({1: identity}, dom, cod, vs)
    # only the split whose outer component is unary: all n arguments in the head
    assert dom.brackets == 1
    assert partitions_walked == [[[i] for i in range(1, n + 1)]]
    assert cod.brackets == 1
    # each argument once on the right, the inner bracket on the left when nonzero
    inner = dom.op.bracket(vs)
    assert evaluated == ([inner] if inner else []) + vs


# -- top degrees ---------------------------------------------------------------


def test_only_graded_adapters_declare_a_top_degree():
    assert FiniteLInfinity([1, 1, 1]).top_degree() is None
    assert PairLinf(su2()).top_degree() is None
    assert TensorLinf(PLANE).top_degree() == 2
    s = su2_cartan()
    assert ExtensionLinf(s).top_degree() == ClassLinf(s).top_degree() == 3
    # with omega = 0 the cotensor slot reaches degree n, above ngens
    assert ExtensionLinf(NPlecticStructure(PLANE, 4, Cotensor.zero(PLANE))).top_degree() == 4


class ExtensionSummedInFull(ExtensionLinf):
    """The extension complex with no declared top degree."""

    def top_degree(self):
        return None


def test_extension_jacobi_matches_the_full_sum_at_the_top_degree():
    s = structure_from_json(json.loads((GOLDEN_INPUTS / "broken_su2_structure.json").read_text()))
    es = [ExtensionElement(s, Cotensor.zero(s.pair), Tensor.basis(s.pair, w))
          for w in ((2,), (3,), (1, 2, 3))]
    nonzero = [0, 0]
    for k in (3, 4):
        for combo in itertools.combinations_with_replacement(es, k):
            over = sum(e.degree() for e in combo) - 2 - s.pair.ngens
            if over in (0, 1):
                got = jacobi_residual(ExtensionLinf(s), combo)
                assert got == jacobi_residual(ExtensionSummedInFull(s), combo)
                assert got == plain_shuffle_sum(ExtensionLinf(s), combo)
                nonzero[over] += not got.is_zero()
    assert nonzero[0] and not nonzero[1]


# -- each value once, and only the slots the outer bracket reads ------------------


MODELS = Path(__file__).resolve().parents[1] / "models"


def load_structure(path):
    return structure_from_json(json.loads(path.read_text()))


def degenerate_plane():
    # omega = dx^dy on Q[x, y, z]: the contraction kernels have rank above 0
    return load_structure(MODELS / "degenerate_plane.json")


def broken_su2():
    return load_structure(GOLDEN_INPUTS / "broken_su2_structure.json")


def plain_shuffle_sum(op, vs):
    """Oracle for `jacobi_residual` with none of its shortcuts: the signed
    op.bracket([op.bracket(head)] + tail) of every unshuffle, summed in full."""
    n = len(vs)
    degs = [op.degree(v) for v in vs]
    total = op.zero()
    for j in range(1, n + 1):
        for sh in enumerate_shuffles((j, n - j)):
            inner = op.bracket([vs[i - 1] for i in sh[:j]])
            outer = op.bracket([inner] + [vs[i - 1] for i in sh[j:]])
            total = op.add(total, op.scale(koszul_sign(sh, degs), outer))
    return total


def draw_tensors(rng, pair, arity):
    """Nonzero tensors whose degrees sum to at most ngens + 2, so that the
    residual is summed, not skipped past the top degree."""
    while True:
        grades = [rng.choice((0, 1, 1, 1, 2)) for _ in range(arity)]
        if sum(grades) <= pair.ngens + 2:
            return [nonzero(rng, TensorLinf(pair), lambda rng: random_tensor(
                rng, pair, g, max_degree=2)) for g in grades]


def draw_extensions(rng, s, arity):
    """Nonzero extension elements whose degrees sum to at most the top
    degree + 2."""
    op = ExtensionLinf(s)
    grades = [g for g in range(s.n + 1) if symplectic_basis(s, g, max_poly_degree=2)]
    while True:
        degrees = [rng.choice(grades) for _ in range(arity)]
        if sum(degrees) <= op.top_degree() + 2:
            return [nonzero(rng, op, lambda rng: random_extension_element(rng, s, g))
                    for g in degrees]


SHORTCUT_CASES = {
    "plane": plane_structure,
    "degenerate-plane": degenerate_plane,
    "su2": su2_cartan,
    "broken-su2": broken_su2,
}


@pytest.mark.parametrize("name", sorted(SHORTCUT_CASES))
def test_jacobi_residual_equals_the_plain_shuffle_sum(name):
    s = SHORTCUT_CASES[name]()
    rng = random.Random(61)
    nonzero_residuals = 0
    for arity in (2, 3, 4, 5):
        for _ in range(3):
            for op, vs in ((TensorLinf(s.pair), draw_tensors(rng, s.pair, arity)),
                           (ExtensionLinf(s), draw_extensions(rng, s, arity))):
                residual = jacobi_residual(op, vs)
                assert residual == plain_shuffle_sum(op, vs), (arity, type(op).__name__)
                nonzero_residuals += not op.is_zero(residual)
    # the broken table fails Jacobi; on the others every residual vanishes
    assert bool(nonzero_residuals) == (name == "broken-su2")


def broken_degenerate():
    # su(2) with [e1, e2] = e3 + e4 and [e3, e4] = e4 under omega = e^123:
    # the table fails Jacobi and e4 spans the degree-one contraction kernel
    pair = ConstantPair.from_brackets(4, {(1, 2): {3: 1, 4: 1}, (2, 3): {1: 1},
                                          (3, 1): {2: 1}, (3, 4): {4: 1}})
    return NPlecticStructure(pair, 2, Cotensor(pair, {(1, 2, 3): 1}))


def test_an_extension_residual_reduces_its_summed_tensor_slot():
    # the terms' tensor slots sum to the tensor Jacobi residual of the
    # arguments' tensor slots; here that sum has a kernel part, which only
    # the reduction of the closed residual takes away
    s = broken_degenerate()
    op = ExtensionLinf(s)
    e4 = Tensor.basis(s.pair, (4,))
    assert kernel_basis(s, 1, max_poly_degree=0) == [e4]
    fixed = [ExtensionElement(s, Cotensor.zero(s.pair), Tensor.basis(s.pair, (g,)))
             for g in (1, 2, 3)]
    assert jacobi_residual(TensorLinf(s.pair), [e.x for e in fixed]) == -e4
    rng = random.Random(89)
    cases = [fixed] + [[nonzero(rng, op, lambda rng: random_extension_element(rng, s, g))
                        for g in degrees]
                       for degrees in [(1, 1, 1)] * 3 + [(1, 1, 2), (1, 1, 1, 1), (1, 1, 1, 2)]]
    kernel_parts = 0
    for vs in cases:
        summed = jacobi_residual(TensorLinf(s.pair), [e.x for e in vs])
        residual = jacobi_residual(op, vs)
        assert residual == plain_shuffle_sum(op, vs)
        assert residual.x == reduce_mod_kernel(s, summed)
        kernel_parts += residual.x != summed
    assert kernel_parts > 1


def test_each_extension_composite_equals_the_whole_one_in_both_slots():
    s = degenerate_plane()
    op = ExtensionLinf(s)
    rng = random.Random(67)
    formed = 0
    for arity in (2, 3, 4):
        for _ in range(3):
            vs = draw_extensions(rng, s, arity)
            for j in range(1, arity + 1):
                for sh in enumerate_shuffles((j, arity - j)):
                    head = [vs[i - 1] for i in sh[:j]]
                    tail = [vs[i - 1] for i in sh[j:]]
                    whole = op.bracket([op.bracket(head)] + tail)
                    got = op.composite(head, tail, {})
                    if got is None:
                        assert whole.is_zero()
                        continue
                    got = op.close(got)
                    assert got.f == whole.f and got.x == whole.x
                    formed += j < arity and not got.is_zero()
    assert formed


def test_one_residual_forms_each_schouten_bracket_once(monkeypatch):
    formed = []
    original = calculus._schouten_words

    def frozen(words):
        return tuple(sorted((w, tuple(sorted(nums.items()))) for w, nums in words.items()))

    def counting(pair, u, du, v, dv):
        formed.append((frozen(u), frozen(v)))
        return original(pair, u, du, v, dv)

    # the arguments are distinct values, so a repeated pair of operand
    # numerators is a Schouten bracket formed twice on labels

    monkeypatch.setattr(calculus, "_schouten_words", counting)
    rng = random.Random(71)
    brackets = 0
    for s in (su2_cartan(), broken_su2(), degenerate_plane()):
        for op, vs in ((TensorLinf(s.pair), draw_tensors(rng, s.pair, 4)),
                       (ExtensionLinf(s), draw_extensions(rng, s, 4))):
            formed.clear()
            jacobi_residual(op, vs)
            assert len(formed) == len(set(formed))
            brackets += len(formed)
    assert brackets


def test_residuals_in_a_row_do_not_share_brackets():
    # (e1, e2, e3) and (e2, e3, e123) break Jacobi on the broken table
    s = broken_su2()

    def draw(op, seed):
        rng = random.Random(seed)
        words = ((1,), (2,), (3,)) if isinstance(op, TensorLinf) else ((2,), (3,), (1, 2, 3))
        xs = [rng.randint(1, 9) * Tensor.basis(s.pair, w) for w in words]
        if isinstance(op, TensorLinf):
            return xs
        return [ExtensionElement(s, Cotensor.zero(s.pair), x) for x in xs]

    for op in (TensorLinf(s.pair), ExtensionLinf(s)):
        first = jacobi_residual(op, draw(op, 73))
        assert not op.is_zero(first)
        # equal values in new objects, then other values, right after
        assert jacobi_residual(op, draw(op, 73)) == first
        for seed in (79, 83):
            vs = draw(op, seed)
            assert jacobi_residual(op, vs) == plain_shuffle_sum(op, vs) != first


def test_arguments_over_different_pairs_raise_before_any_sum():
    su2_s = su2_cartan()
    a, b = Tensor(PLANE, {(1,): "x"}), Tensor(PLANE, {(2,): "y"})
    c = Tensor.basis(su2_s.pair, (1,))
    for op, vs in ((TensorLinf(PLANE), [a, b, c]), (TensorLinf(PLANE), [c, a]),
                   (TensorLinf(su2_s.pair), [a, c, b])):
        with pytest.raises(ValueError, match="bracket across different pairs"):
            jacobi_residual(op, vs)
    plane_s = plane_structure()
    e1 = ExtensionElement(plane_s, Cotensor(PLANE, {(): "y"}), Tensor(PLANE, {(2,): "x"}))
    e0 = ExtensionElement(plane_s, Cotensor(PLANE, {(1,): "x"}), Tensor(PLANE, {(): "x"}))
    g1 = ExtensionElement(su2_s, Cotensor(su2_s.pair, {(3,): 1}), c)
    g3 = ExtensionElement(su2_s, Cotensor.zero(su2_s.pair), Tensor.basis(su2_s.pair, (1, 2, 3)))
    for op, vs in ((ExtensionLinf(plane_s), [e1, g1]), (ExtensionLinf(plane_s), [e1, e0, g1]),
                   (ExtensionLinf(su2_s), [g1, e1, g3])):
        with pytest.raises(ValueError, match="bracket across different pairs"):
            jacobi_residual(op, vs)
