"""Seeded random elements: a word is drawn by its index, without a list of
every word, and the draws and the rest of the random stream are the ones
`choice` on that list gives."""

import math
import random

import pytest

from nplectic.elements import Cotensor, Tensor, ascending_words
from nplectic.pairs import ConstantPair, PolyVectorFieldPair
from nplectic.sampling import _unrank_word, random_cotensor, random_poly, random_tensor


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
