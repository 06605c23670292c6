"""Seeded random generators for exact test data.

All sampling goes through `random.Random` instances handed in by the
caller, so identical seeds reproduce identical objects everywhere (the
CLI records the seed in each report for exactly this reason).

Every drawn coefficient is an int numerator over `DRAW_DEN`, so a draw
collects its ((word, monomial key), int) terms (the empty word for a
polynomial), sums them once with `sparse_sum` and builds the result at the
end: no Fraction and no `Poly` sum per term.
"""

from __future__ import annotations

import bisect
import math
import random

from .elements import Cotensor, Tensor, label_element
from .scalars import CapExceeded, Poly, sparse_sum, variable_key

# random_numerator draws a denominator from 1..3, so every draw is an int over 6
DRAW_DEN = 6

# The largest max_degree random_tuples draws at over a pair with variables:
# a term of drawn degree D draws D variables, one rng call each.
# `validate-pair models/symplectic_plane.json` took 0.26 s at --max-degree
# 1,000 and 2.6 s at 10,000 (2-vCPU Xeon, Python 3.11).
MAX_DRAW_DEGREE = 10_000


def random_numerator(rng: random.Random) -> int:
    """The numerator over DRAW_DEN of num / den, with num drawn from -3..3,
    then den from 1..3."""
    num = rng.randint(-3, 3)
    return num * (DRAW_DEN // rng.randint(1, 3))


def _add_poly_draws(acc: list, word, rng, nvars: int, max_degree: int, terms: int) -> None:
    """Append the terms of one random polynomial to acc, as ((word,
    monomial key), numerator over DRAW_DEN) pairs for `sparse_sum`.

    The degree is drawn even with no variables, so every family reads the
    same random stream; with none, nothing loops over it.  Each drawn
    variable adds its key, so the monomial keys are valid by construction.
    """
    for _ in range(rng.randint(1, terms)):
        key, degree = 0, rng.randint(0, max_degree)
        for _ in range(degree if nvars else 0):
            key += variable_key(nvars, rng.randrange(nvars))
        acc.append(((word, key), random_numerator(rng)))


def random_poly(rng: random.Random, nvars: int, max_degree: int = 3,
                terms: int = 3) -> Poly:
    """Random sparse polynomial of total degree <= max_degree."""
    acc: list = []
    _add_poly_draws(acc, (), rng, nvars, max_degree, terms)
    return Poly._from_nums(nvars, {key: c for (_, key), c in sparse_sum(acc).items()}, DRAW_DEN)


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
    acc: list = []
    for _ in range(rng.randint(1, terms)):
        word = _unrank_word(rng.randrange(count), pair.ngens, length)
        _add_poly_draws(acc, word, rng, pair.poly_nvars, max_degree, 3)
    # unranked words are ascending and in range, and the keys are monomials
    # in the pair's variables: nothing for a constructor to check
    return label_element(pair, cls, sparse_sum(acc), DRAW_DEN)


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
    drawn lazily, one tuple at a time and slot by slot.  Over a pair with
    variables a max_degree past MAX_DRAW_DEGREE raises CapExceeded at once."""
    if pair.poly_nvars and max_degree > MAX_DRAW_DEGREE:
        raise CapExceeded(f"drawn polynomial degree {max_degree} exceeds cap {MAX_DRAW_DEGREE}")
    return (tuple(sample(rng, pair, max_degree) for sample in samplers) for _ in range(count))
