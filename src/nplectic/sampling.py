"""Seeded random generators for exact test data.

All sampling goes through `random.Random` instances handed in by the
caller, so identical seeds reproduce identical objects everywhere (the
CLI records the seed in each report for exactly this reason).
"""

from __future__ import annotations

import random
from fractions import Fraction

from .elements import Cotensor, Tensor, ascending_words
from .scalars import Poly


def random_fraction(rng: random.Random, span: int = 3) -> Fraction:
    num = rng.randint(-span, span)
    den = rng.randint(1, span)
    return Fraction(num, den)


def random_poly(rng: random.Random, nvars: int, max_degree: int = 3,
                terms: int = 3) -> Poly:
    """Random sparse polynomial of total degree <= max_degree."""
    data = {}
    for _ in range(rng.randint(1, terms)):
        expo = [0] * nvars
        for _ in range(rng.randint(0, max_degree)):
            if nvars:
                expo[rng.randrange(nvars)] += 1
        data[tuple(expo)] = data.get(tuple(expo), Fraction(0)) + random_fraction(rng)
    return Poly(nvars, data)


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
    words = list(ascending_words(pair.ngens, length))
    if not words:
        return cls.zero(pair)
    data = []
    for _ in range(rng.randint(1, terms)):
        word = rng.choice(words)
        data.append((word, random_poly(rng, pair.poly_nvars, max_degree)))
    return cls(pair, data)


def random_gvector(rng: random.Random, pair, max_degree: int = 3) -> Tensor:
    return random_tensor(rng, pair, 1, max_degree, terms=max(2, pair.ngens))


def random_tuples(rng: random.Random, pair, samplers, count: int, max_degree: int = 3):
    """`count` tuples holding one sampler(rng, pair, max_degree) per slot,
    drawn lazily, one tuple at a time and slot by slot."""
    for _ in range(count):
        yield tuple(sample(rng, pair, max_degree) for sample in samplers)
