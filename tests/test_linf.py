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
from nplectic import linf
from nplectic.calculus import natural_inclusion
from nplectic.cohomology import CohomClass, class_of
from nplectic.elements import Cotensor, Tensor
from nplectic.engine import (
    ExtensionElement,
    NPlecticStructure,
    hamiltonian_potential,
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
from nplectic.sampling import random_fraction, random_tensor
from nplectic.scalars import CapExceeded, bell

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


def _su2_table_and_basis():
    fin = FiniteLInfinity.from_pair(su2())
    return fin, [fin.basis(i) for i in (1, 2, 3)]


@pytest.mark.parametrize("check", [
    lambda fin, gens: check_linf(fin, [], 3),
    lambda fin, gens: check_linf(fin, gens, 0),
    lambda fin, gens: check_morphism(lambda xs: xs[0] if len(xs) == 1 else None,
                                     fin, fin, []),
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
    ok, witness = check_morphism(natural_inclusion, dom, cod, tuples)
    assert ok, witness


def test_unscaled_inclusion_fails_at_arity_three():
    rng = random.Random(29)
    dom, cod = PairLinf(PLANE), TensorLinf(PLANE)

    # a triple with a nonvanishing ternary bracket, so the bad weight shows
    fields = [Tensor(PLANE, {(1,): "x"}), Tensor(PLANE, {(2,): "y"}),
              Tensor(PLANE, {(2,): "x"})]
    residual = morphism_residual(unscaled_inclusion, dom, cod, fields)
    assert not residual.is_zero()


def test_morphism_residual_is_koszul_sign_consistent():
    # swapping two odd arguments must negate the residual, zero or not
    dom, cod = PairLinf(PLANE), TensorLinf(PLANE)

    fields = [Tensor(PLANE, {(1,): "x"}), Tensor(PLANE, {(2,): "y"}),
              Tensor(PLANE, {(2,): "x"})]
    swapped = [fields[1], fields[0], fields[2]]
    residual = morphism_residual(unscaled_inclusion, dom, cod, fields)
    assert morphism_residual(unscaled_inclusion, dom, cod, swapped) == -1 * residual


def test_zero_component_family_is_a_morphism():
    dom, cod = PairLinf(PLANE), TensorLinf(PLANE)
    tuples = [[Tensor(PLANE, {(1,): "x"}), Tensor(PLANE, {(2,): "y"})]]
    ok, witness = check_morphism(lambda xs: None, dom, cod, tuples)
    assert ok, witness


def test_identity_is_a_strict_morphism_of_a_lie_algebra():
    fin = FiniteLInfinity.from_pair(su2())

    def identity(xs):
        return xs[0] if len(xs) == 1 else None

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
                slot[key] = {t: random_fraction(rng) for t in rng.sample(
                    allowed, rng.randint(1, len(allowed)))}
        table[k] = slot
    return table


def random_homogeneous(rng, fin):
    """A nonzero combination of the basis vectors of one degree."""
    d = rng.choice(fin.degrees)
    idx = [i for i, g in enumerate(fin.degrees, start=1) if g == d]
    v = {i: random_fraction(rng) for i in rng.sample(idx, rng.randint(1, len(idx)))}
    return {i: c for i, c in v.items() if c} or fin.basis(idx[0])


def random_table_morphism(rng):
    """Random tables on both sides, with components that preserve degree parity."""
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

    arities = [k for k in (1, 2, 3) if rng.random() < 0.8]
    comps = FiniteLInfinity(dom_degs, random_table(rng, dom_degs, arities, same_parity,
                                                   density=0.8))

    def f(vs):
        return comps.bracket(vs) if len(vs) in comps.brackets else None

    return f, dom, cod


def same_value(op, a, b):
    return (op.is_zero(a) and op.is_zero(b)) or a == b


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_partition_sum_matches_ordered_oracle_on_tables(seed, morphism_oracle):
    rng = random.Random(seed)
    f, dom, cod = random_table_morphism(rng)
    for arity in (1, 2, 3, 4):
        for _ in range(3):
            vs = [random_homogeneous(rng, dom) for _ in range(arity)]
            assert morphism_residual(f, dom, cod, vs) == morphism_oracle(f, dom, cod, vs)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), arity=st.integers(1, 4),
       component=st.sampled_from([natural_inclusion, unscaled_inclusion]))
def test_partition_sum_matches_ordered_oracle_on_the_inclusion(seed, arity, component,
                                                               morphism_oracle):
    rng = random.Random(seed)
    dom, cod = PairLinf(PLANE), TensorLinf(PLANE)
    xs = [random_low_tensor(rng) for _ in range(arity)]
    assert morphism_residual(component, dom, cod, xs) == morphism_oracle(component, dom, cod, xs)


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
        classes = [random_fraction(rng) * c for c in classes]
        table = dom.brackets.get(2, {})
        for key in rng.sample(sorted(table), min(1, len(table))):
            table[key] = {t: c + random_fraction(rng) for t, c in table[key].items()}

    def component(vs):
        if len(vs) != 1:
            return None
        out = CohomClass.zero(s, 1)
        for i, c in vs[0].items():
            out = out + c * classes[i - 1]
        return out

    cod = ClassLinf(s)
    vs = [random_homogeneous(rng, dom) for _ in range(arity)]
    assert same_value(cod, morphism_residual(component, dom, cod, vs),
                      morphism_oracle(component, dom, cod, vs))


def test_oracle_agrees_on_a_nonzero_momentum_residual(morphism_oracle):
    s, algebra, classes = momentum_classes("sp2")
    dom, cod = FiniteLInfinity.from_pair(algebra), ClassLinf(s)
    doubled = [2 * c for c in classes]

    def component(vs):
        return doubled[next(iter(vs[0])) - 1] if len(vs) == 1 else None

    vs = [dom.basis(1), dom.basis(2)]
    residual = morphism_residual(component, dom, cod, vs)
    assert not residual.is_zero()
    assert residual == morphism_oracle(component, dom, cod, vs)


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
                x = x + random_fraction(rng) * b
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

    def identity(xs):
        return xs[0] if len(xs) == 1 else None

    vs = [fin.basis(1 + i % 3) for i in range(n)]
    morphism_residual(identity, fin, cod, vs)
    assert cod.calls == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_codomain_brackets_are_one_per_set_partition(n):
    rng = random.Random(59 + n)
    f, dom, table = random_table_morphism(rng)
    cod = CountingTable(table.degrees, table.brackets)

    def total(vs):
        y = f(vs)
        return {} if y is None else y

    vs = [random_homogeneous(rng, dom) for _ in range(n)]
    morphism_residual(f, dom, cod, vs)
    assert cod.calls <= bell(n)
    cod.calls = 0
    morphism_residual(total, dom, cod, vs)
    assert cod.calls == bell(n)
