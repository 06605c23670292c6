"""Seeded random elements: a word is drawn by its index, without a list of
every word, and the draws and the rest of the random stream are the ones
`choice` on that list gives."""

import math
import random
from fractions import Fraction

import pytest

from nplectic.elements import Cotensor, Tensor, ascending_words
from nplectic.engine import NPlecticStructure, symplectic_basis
from nplectic.identities import random_symplectic
from nplectic.pairs import ConstantPair, PolyVectorFieldPair
from nplectic.sampling import (
    _unrank_word,
    random_cotensor,
    random_fraction,
    random_poly,
    random_tensor,
)
from nplectic.scalars import Poly


def listed_draw(rng, pair, cls, length, max_degree=3, terms=2):
    """Oracle: the draw as `choice` over the list of every ascending word."""
    words = list(ascending_words(pair.ngens, length))
    if not words:
        return cls.zero(pair)
    data = []
    for _ in range(rng.randint(1, terms)):
        word = rng.choice(words)
        data.append((word, random_poly(rng, pair.poly_nvars, max_degree)))
    return cls(pair, data)


@pytest.mark.parametrize("ngens", range(0, 9))
def test_unranking_walks_the_ascending_words_in_order(ngens):
    for length in range(ngens + 1):
        words = list(ascending_words(ngens, length))
        assert len(words) == math.comb(ngens, length)
        assert [_unrank_word(i, ngens, length) for i in range(len(words))] == words


@pytest.mark.parametrize("pair", [ConstantPair(n, ()) for n in range(1, 9)]
                         + [PolyVectorFieldPair(2)], ids=lambda p: f"{p.family}-{p.ngens}")
@pytest.mark.parametrize("cls, draw", [(Tensor, random_tensor), (Cotensor, random_cotensor)],
                         ids=["tensor", "cotensor"])
def test_a_draw_matches_choice_on_the_list_of_words(pair, cls, draw):
    for length in range(-1, pair.ngens + 2):
        for seed in range(20):
            rng, ref = random.Random(seed), random.Random(seed)
            assert draw(rng, pair, length) == listed_draw(ref, pair, cls, length)
            assert rng.random() == ref.random()


def checked_poly(rng, nvars, max_degree=3, terms=3):
    """Oracle: the drawn Fractions summed one by one from Fraction(0) and
    passed to the checked `Poly` constructor."""
    data = {}
    for _ in range(rng.randint(1, terms)):
        expo = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            if nvars:
                expo[rng.randrange(nvars)] += 1
        data[tuple(expo)] = data.get(tuple(expo), Fraction(0)) + random_fraction(rng)
    return Poly(nvars, data)


@pytest.mark.parametrize("nvars, max_degree, terms", [
    (0, 3, 3), (0, 0, 6), (1, 1, 6), (2, 2, 3), (3, 3, 4), (4, 2, 2)])
def test_a_polynomial_draw_equals_the_checked_construction(nvars, max_degree, terms):
    cancelled = 0
    for seed in range(200):
        rng, ref = random.Random(seed), random.Random(seed)
        p = random_poly(rng, nvars, max_degree, terms)
        assert p == checked_poly(ref, nvars, max_degree, terms)
        assert rng.getstate() == ref.getstate()
        cancelled += p.is_zero()
    if nvars <= 1:
        # repeated exponents: some draws sum to zero
        assert cancelled


def checked_symplectic(rng, s, grade, poly_degree=2):
    """Oracle: the random combination of the symplectic basis as Tensor adds."""
    x = Tensor.zero(s.pair)
    for b in symplectic_basis(s, grade, max_poly_degree=poly_degree):
        if rng.random() < 0.6:
            x = x + random_fraction(rng) * b
    return x


@pytest.mark.parametrize("s", [
    NPlecticStructure(PolyVectorFieldPair(2), 1, Cotensor(PolyVectorFieldPair(2), {(1, 2): 1})),
    NPlecticStructure(PolyVectorFieldPair(3), 1, Cotensor(PolyVectorFieldPair(3), {(1, 2): 1})),
    NPlecticStructure(ConstantPair.from_brackets(3, {(1, 2): {3: 1}, (2, 3): {1: 1},
                                                     (3, 1): {2: 1}}),
                      2, Cotensor(ConstantPair.from_brackets(
                          3, {(1, 2): {3: 1}, (2, 3): {1: 1}, (3, 1): {2: 1}}),
                          {(1, 2, 3): 1})),
], ids=["plane", "degenerate-plane", "su2"])
def test_a_symplectic_draw_equals_the_sum_of_tensor_adds(s):
    for grade in range(s.pair.ngens + 1):
        for seed in range(30):
            rng, ref = random.Random(seed), random.Random(seed)
            assert random_symplectic(rng, s, grade) == checked_symplectic(ref, s, grade)
            assert rng.getstate() == ref.getstate()
