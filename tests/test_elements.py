"""The stored label vector of a tensor or cotensor: every entry leaves it in
lowest terms, so equal values compare and hash equal whatever built them,
and the label wedge agrees with the term-by-term `Poly` wedge."""

import math
import random
from fractions import Fraction

import pytest

from nplectic.calculus import ce_differential, contract, higher_bracket, schouten
from nplectic.elements import Cotensor, Tensor, label_element, label_vector
from nplectic.engine import NPlecticStructure, reduce_mod_kernel
from nplectic.identities import random_symplectic
from nplectic.pairs import ConstantPair, PolyVectorFieldPair
from nplectic.sampling import random_cotensor, random_poly, random_tensor
from conftest import wedge_by_polys

PLANE = PolyVectorFieldPair(2)
FOUR = PolyVectorFieldPair(4)
SU2 = ConstantPair.from_brackets(3, {(1, 2): {3: 1}, (2, 3): {1: 1}, (3, 1): {2: 1}})
PAIRS = pytest.mark.parametrize("pair", [PLANE, FOUR, SU2], ids=["plane", "four", "su2"])


def in_lowest_terms(elem) -> bool:
    nums, den = label_vector(elem)
    return den > 0 and all(nums.values()) and math.gcd(den, *nums.values()) == 1


def draw(rng, pair, cls):
    """A draw of one random word length, or the sum of two lengths."""
    sample = random_tensor if cls is Tensor else random_cotensor
    x = sample(rng, pair, rng.randint(0, min(2, pair.ngens)), 2)
    if rng.random() < 0.3:
        x = x + sample(rng, pair, rng.randint(0, pair.ngens), 2)
    return x


@PAIRS
@pytest.mark.parametrize("cls", [Tensor, Cotensor])
def test_the_label_wedge_matches_the_poly_level_oracle(pair, cls):
    rng = random.Random(29)
    scalar_factors = shared_letters = nonzero = 0
    for _ in range(80):
        u, v = draw(rng, pair, cls), draw(rng, pair, cls)
        got = u.wedge(v)
        assert got == wedge_by_polys(u, v)
        assert in_lowest_terms(got)
        scalar_factors += 0 in u.degrees() + v.degrees()
        shared_letters += any(set(w1) & set(w2) for w1, _ in u.items() for w2, _ in v.items())
        nonzero += not got.is_zero()
    assert scalar_factors and shared_letters and nonzero


def test_equal_values_compare_and_hash_equal_across_entries():
    p = PLANE
    half = Fraction(1, 2)
    e1, e2 = Tensor.basis(p, (1,)), Tensor.basis(p, (2,))
    same = [
        Tensor(p, {(2, 1): "1/2"}),
        Tensor(p, {(1, 2): "-1/2"}),
        Tensor(p, [((1, 2), "-1/3"), ((2, 1), "1/6"), ((1, 1), 7)]),
        Tensor.from_json(p, [[[1, 2], "-1/2"]]),
        Tensor(p, {(1, 2): "1/3"}) + Tensor(p, {(1, 2): "-5/6"}),
        -(half * e1.wedge(e2)),
        e2.wedge(e1) * half,
        e2.wedge(Tensor.scalar(p, half)).wedge(e1),
        Tensor.scalar(p, "-3/2").wedge(e1.wedge(e2)) * Fraction(1, 3),
        label_element(p, Tensor, {((1, 2), 0): -3}, 6),
        schouten(Tensor(p, {(1,): "-1/2"}), Tensor(p, {(1, 2): "x"})),
    ]
    assert len(set(same)) == 1 and all(x == same[0] for x in same)
    assert all(in_lowest_terms(x) for x in same)
    assert Cotensor(p, {(2, 1): "1/2"}) != same[0]
    assert hash(Tensor(p, {(1,): 2}) * half) == hash(e1)


def test_bigraded_parts_split_a_coefficient_by_its_degree():
    f = Cotensor(PLANE, {(): "x^2 + x*y + x + 3", (1,): "y"})
    parts = f.bigraded_parts()
    assert sorted(parts) == [(-1, 1), (0, 0), (0, 1), (0, 2)]
    assert parts[0, 2] == Cotensor(PLANE, {(): "x^2 + x*y"})
    assert parts[-1, 1] == Cotensor(PLANE, {(1,): "y"})
    assert sum(parts.values(), Cotensor.zero(PLANE)) == f
    assert f.homogeneous_parts() == {-1: parts[-1, 1], 0: f - parts[-1, 1]}


@PAIRS
def test_every_entry_leaves_the_vector_in_lowest_terms(pair):
    rng = random.Random(31)
    n = 2 if pair is SU2 else 1
    omega = Cotensor(pair, {tuple(range(1, n + 2)): "2/3"})
    s = NPlecticStructure(pair, n, omega)
    for _ in range(25):
        x, y = draw(rng, pair, Tensor), draw(rng, pair, Tensor)
        f = draw(rng, pair, Cotensor)
        a = random_poly(rng, pair.poly_nvars, 2)
        q = Fraction(rng.choice([-6, -2, 3, 4]), rng.choice([1, 4, 9]))
        built = [
            x, f, Tensor.from_json(pair, x.to_json()), Cotensor(pair, f.items()),
            x + y, x - x, -f, q * x, a * f, f * q, x.wedge(y), f.wedge(f),
            contract(x, f), ce_differential(f), schouten(x, y), higher_bracket([x, y, x]),
            reduce_mod_kernel(s, x), random_symplectic(rng, s, rng.randint(0, pair.ngens)),
            *x.homogeneous_parts().values(), *f.bigraded_parts().values(),
        ]
        assert all(in_lowest_terms(e) for e in built)
        for e in built[:2] + built[4:12]:
            assert e == type(e)(pair, e.items()) and hash(e) == hash(type(e)(pair, e.items()))
        assert x + y - y == x and hash(x + y - y) == hash(x)
        assert (x * 6) * Fraction(1, 6) == x
