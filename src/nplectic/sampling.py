"""Seeded random generators for exact test data.

All sampling goes through `random.Random` instances handed in by the
caller, so identical seeds reproduce identical objects everywhere (the
CLI records the seed in each report for exactly this reason).
"""

from __future__ import annotations

import bisect
import math
import random
from fractions import Fraction

from .elements import Cotensor, Tensor
from .scalars import Poly, over_lcm, sparse_sum, variable_key


def random_fraction(rng: random.Random) -> Fraction:
    """num / den with num drawn from -3..3, then den from 1..3."""
    num = rng.randint(-3, 3)
    den = rng.randint(1, 3)
    return Fraction(num, den)


def random_poly(rng: random.Random, nvars: int, max_degree: int = 3,
                terms: int = 3) -> Poly:
    """Random sparse polynomial of total degree <= max_degree.

    The degree is drawn even with no variables, so every family reads the
    same random stream.  Each drawn variable adds its key, so the monomial
    keys are valid by construction and the summed coefficients go to
    `Poly` without checks.
    """
    draws = []
    for _ in range(rng.randint(1, terms)):
        key = 0
        for _ in range(rng.randint(0, max_degree)):
            if nvars:
                key += variable_key(nvars, rng.randrange(nvars))
        draws.append((key, random_fraction(rng)))
    return Poly._from_nums(nvars, *over_lcm(sparse_sum(draws)))


def random_coeff(rng: random.Random, pair, max_degree: int = 3) -> Poly:
    return random_poly(rng, pair.poly_nvars, max_degree)


def random_tensor(rng: random.Random, pair, grade: int, max_degree: int = 3,
                  terms: int = 2) -> Tensor:
    """Random homogeneous tensor of the given wedge degree."""
    return _random_element(rng, pair, Tensor, grade, max_degree, terms)


def random_cotensor(rng: random.Random, pair, word_length: int, max_degree: int = 3,
                    terms: int = 2) -> Cotensor:
    """Random homogeneous cotensor with the given word length (degree -length)."""
    return _random_element(rng, pair, Cotensor, word_length, max_degree, terms)


def _random_element(rng, pair, cls, length, max_degree, terms):
    count = math.comb(pair.ngens, length) if length >= 0 else 0
    if not count:
        return cls.zero(pair)
    data = []
    for _ in range(rng.randint(1, terms)):
        word = _unrank_word(rng.randrange(count), pair.ngens, length)
        data.append((word, random_poly(rng, pair.poly_nvars, max_degree)))
    # unranked words are ascending and in range, and the coefficients are
    # Polys in the pair's variables: nothing for the constructor to check
    return cls.zero(pair)._make(sparse_sum(data))


def _unrank_word(index: int, ngens: int, length: int) -> tuple:
    """The word at `index` of `ascending_words(ngens, length)`, so that
    randrange(count) draws what choice() on the list of words draws.

    The values b = ngens - a over the letters a form the word of
    colexicographic rank count - 1 - index, which is the sum of
    comb(b, left) over them; one greedy bisection finds each b.
    """
    rank = math.comb(ngens, length) - 1 - index
    word, top = [], ngens
    for left in range(length, 0, -1):
        top = bisect.bisect_right(range(top), rank, key=lambda b: math.comb(b, left)) - 1
        rank -= math.comb(top, left)
        word.append(ngens - top)
    return tuple(word)


def random_gvector(rng: random.Random, pair, max_degree: int = 3) -> Tensor:
    return random_tensor(rng, pair, 1, max_degree, terms=max(2, pair.ngens))


def random_tuples(rng: random.Random, pair, samplers, count: int, max_degree: int = 3):
    """`count` tuples holding one sampler(rng, pair, max_degree) per slot,
    drawn lazily, one tuple at a time and slot by slot."""
    for _ in range(count):
        yield tuple(sample(rng, pair, max_degree) for sample in samplers)
