"""Sparse exterior (co)tensors over a Lie-Rinehart pair.

A Tensor is an element of the exterior tensor algebra of the pair: an
A-linear combination of wedge words e_{i1} ^ ... ^ e_{ik} in the module
generators, graded by word length (A itself sits in degree 0 as the empty
word).  A Cotensor is the same thing built on the dual generators; its
tensor degree is minus the word length.

An element stores one thing, its label vector: nonzero int numerators
keyed by label (word, monomial key) over one denominator, in lowest terms,
the form of every slice vector.  The form is canonical, so `==` and `hash`
compare it directly.  Every operation here acts on it: a sum is an int
combination, and a wedge or a ring multiple is an int convolution of
monomial keys per word pair (`_wedge_into`, which the higher brackets in
`calculus` share).  `label_vector` reads the vector and `label_element`
is the trusted constructor from one.  A `Poly` is met only at the
Poly-level boundary: the checked constructor, `from_json`, `basis` and
`scalar` take ring elements, and `items()` gives one `Poly` per word.
Its readers are `to_json` and `repr`, `calculus.contract`,
`pairs.lie_bracket`, `pairs.action`, `PairMorphismCandidate.apply_g`,
and `linf.PairLinf`, which reads a scalar part.

Words are kept strictly ascending.  `sort_word` gives the reordering sign
of an input word and of a word built by concatenation (wedge, Schouten);
`calculus.contract` (the Laplace sign) and `calculus.label_differential`
(insertion signs) read theirs from letter positions instead.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import TYPE_CHECKING

from .scalars import (
    Poly,
    add_product,
    as_int,
    combine,
    format_poly,
    lowest_terms,
    monomial_degree,
    require_exponents,
    sum_vectors,
)

if TYPE_CHECKING:  # descriptors live in pairs.py; no runtime cycle
    from .pairs import PairDescriptor

Word = tuple[int, ...]


def sort_word(word) -> tuple[int, Word | None]:
    """Normalize a wedge word: (sign, ascending word), or (0, None) on a repeat.

    Generators have tensor degree one, so each adjacent transposition
    contributes a plain factor of -1.
    """
    letters = list(word)
    sign = 1
    for i in range(1, len(letters)):
        j = i
        while j > 0 and letters[j - 1] > letters[j]:
            letters[j - 1], letters[j] = letters[j], letters[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(letters, letters[1:]):
        if a == b:
            return 0, None
    return sign, tuple(letters)


def ascending_words(ngens: int, length: int):
    """All strictly ascending words of the given length in 1..ngens."""
    if length < 0:
        return iter(())
    return itertools.combinations(range(1, ngens + 1), length)


class _Element:
    """Shared machinery for Tensor and Cotensor."""

    kind = "element"
    degree_sign = 1  # +1 for tensors, -1 for cotensors

    __slots__ = ("pair", "_vector")

    def __init__(self, pair, terms=None):
        """The checked entry: (word, ring element) terms, as a dict or as
        pairs.  Each word is sorted with its sign, its letters checked
        against the pair, and each coefficient coerced by `pair.coeff`."""
        self.pair = pair
        items = terms.items() if isinstance(terms, dict) else terms or ()
        self._vector = sum_vectors(list(self._normalized(items)))

    def _normalized(self, items):
        """The label vector of each input term: its ascending word, with the
        reordering sign, and the coefficient's numerators."""
        for word, coeff in items:
            sign, norm = sort_word(word)
            if sign == 0:
                continue
            for g in norm:
                if not 1 <= g <= self.pair.ngens:
                    raise ValueError(f"generator index {g} out of range for {self.pair}")
            nums, den = self.pair.coeff(coeff).numerators()
            yield {(norm, e): sign * c for e, c in nums.items()}, den

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, pair):
        return _stored(pair, cls, ({}, 1))

    @classmethod
    def basis(cls, pair, word):
        return cls(pair, {tuple(word): Fraction(1)})

    @classmethod
    def scalar(cls, pair, value):
        """A ring element sitting in degree zero (the empty word)."""
        return cls(pair, {(): value})

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._vector[0]

    def items(self):
        """(word, Poly) terms in canonical order (by length, then
        lexicographic word): one Poly per word, for printing and for the
        Poly-level operations."""
        words, den = label_words(self)
        nvars = self.pair.poly_nvars
        return [(w, Poly._from_nums(nvars, words[w], den))
                for w in sorted(words, key=lambda w: (len(w), w))]

    @property
    def grade(self) -> int | None:
        """Common tensor degree, or None if mixed or zero."""
        degrees = self.degrees()
        return degrees[0] if len(degrees) == 1 else None

    def degrees(self) -> list[int]:
        return sorted({self.degree_sign * len(w) for w, _ in self._vector[0]})

    def homogeneous_parts(self) -> dict[int, "_Element"]:
        return self._parts(lambda w, e: self.degree_sign * len(w))

    def bigraded_parts(self) -> dict[tuple[int, int], "_Element"]:
        """Split by (tensor degree, polynomial degree of the coefficient)."""
        nvars = self.pair.poly_nvars
        return self._parts(lambda w, e: (self.degree_sign * len(w), monomial_degree(e, nvars)))

    def _parts(self, grading) -> dict:
        """The element split by grading(word, key), in ascending order."""
        nums, den = self._vector
        parts: dict = {}
        for lab, c in nums.items():
            parts.setdefault(grading(*lab), {})[lab] = c
        return {g: label_element(self.pair, type(self), part, den)
                for g, part in sorted(parts.items())}

    def max_poly_degree(self) -> int:
        nvars = self.pair.poly_nvars
        return max((monomial_degree(e, nvars) for _, e in self._vector[0]), default=-1)

    # -- linear structure ------------------------------------------------------

    def __add__(self, other):
        require_element(self.pair, type(self), other)
        return _stored(self.pair, type(self), sum_vectors([self._vector, other._vector]))

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Module scaling by a ring element (Poly, Fraction, int or string):
        a rational scales the numerators, and any other ring element is
        wedged in as a scalar, an int convolution per word."""
        if isinstance(other, (int, Fraction)):
            scaled = combine(({0: other.numerator}, other.denominator), [self._vector])
            return _stored(self.pair, type(self), scaled)
        nums, den = self.pair.coeff(other).numerators()
        return self._times({(): nums}, den)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.pair == other.pair
            and self._vector == other._vector
        )

    def __hash__(self):
        nums, den = self._vector
        return hash((self.kind, self.pair, frozenset(nums.items()), den))

    # -- wedge -----------------------------------------------------------------

    def wedge(self, other):
        require_element(self.pair, type(self), other)
        return self._times(*label_words(other))

    def _times(self, words: dict, den: int):
        """self ^ y for y given by its word-grouped numerators over den."""
        mine, own = label_words(self)
        return words_element(self.pair, type(self), _wedge_into({}, mine, words, 1), own * den)

    # -- serialization -----------------------------------------------------------

    def to_json(self):
        return [[list(w), format_poly(c)] for w, c in self.items()]

    @classmethod
    def from_json(cls, pair, data):
        terms = []
        for word, coeff in data:
            terms.append((tuple(as_int(g, "a word letter") for g in word), pair.coeff(coeff)))
        return cls(pair, terms)

    # -- display -------------------------------------------------------------

    def _letter(self, g: int) -> str:
        raise NotImplementedError

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for w, c in self.items():
            word = "^".join(self._letter(g) for g in w) if w else "1"
            coeff = format_poly(c)
            if " " in coeff or "+" in coeff[1:] or "-" in coeff[1:]:
                coeff = f"({coeff})"
            bits.append(word if coeff == "1" else f"{coeff}*{word}")
        return " + ".join(bits)


class Tensor(_Element):
    """Element of the exterior tensor algebra (degrees >= 0)."""

    kind = "tensor"
    degree_sign = 1

    def _letter(self, g):
        return self.pair.gen_name(g)


class Cotensor(_Element):
    """Element of the exterior cotensor algebra (degrees <= 0)."""

    kind = "cotensor"
    degree_sign = -1

    def _letter(self, g):
        return self.pair.dual_name(g)


def require_element(pair, cls, x) -> None:
    """Raise TypeError unless x is a cls element, then ValueError unless it
    lives over pair."""
    if type(x) is not cls:
        raise TypeError(f"cannot mix {cls.kind} with {getattr(x, 'kind', type(x))}")
    if x.pair != pair:
        raise ValueError("elements live over different pairs")


def wedge_list(pair, cls, elems):
    """Wedge a possibly-empty list of cls elements over pair, left to right.

    The empty product is the unit scalar.  Otherwise the fold starts from
    the first factor, with no unit factor wedged in, and that factor is
    checked against cls and pair as any later one is.
    """
    if not elems:
        return cls.scalar(pair, 1)
    out = elems[0]
    require_element(pair, cls, out)
    for e in elems[1:]:
        out = out.wedge(e)
    return out


# ---------------------------------------------------------------------------
# label vectors
# ---------------------------------------------------------------------------

def label_vector(elem) -> tuple[dict[tuple, int], int]:
    """(nums, den), the storage of an element: int numerators keyed by label
    (word, monomial key) over one denominator, in lowest terms.  Callers
    must not change it."""
    return elem._vector


def label_words(elem) -> tuple[dict, int]:
    """(words, den): the label vector of an element grouped by word,
    {word: {monomial key: int}}, the form the product formulas take."""
    nums, den = elem._vector
    words: dict = {}
    for (w, e), c in nums.items():
        words.setdefault(w, {})[e] = c
    return words, den


def _stored(pair, cls, vector: tuple[dict, int]):
    """The cls element storing a label vector already in lowest terms."""
    out = object.__new__(cls)
    out.pair, out._vector = pair, vector
    return out


def label_element(pair, cls, nums: dict, den: int):
    """The trusted constructor: the cls element with label vector (nums,
    den), nonzero int numerators at ascending words of the pair's
    generators and monomial keys of its variables, den > 0.  It only
    divides out the common factor, and keeps nums: callers must not
    change it afterwards."""
    return _stored(pair, cls, lowest_terms(nums, den))


def words_element(pair, cls, words: dict, den: int):
    """The cls element with word-grouped numerators {word: {key: int}} over
    den, zeros dropped; raises CapExceeded as `_nonzero` does."""
    nums = {(w, e): c for w, by_key in words.items() for e, c in by_key.items() if c}
    require_exponents((e for _, e in nums), pair.poly_nvars)
    return label_element(pair, cls, nums, den)


# ---------------------------------------------------------------------------
# products on word-grouped numerators
# ---------------------------------------------------------------------------
#
# Products act on label vectors grouped by word: {word: {monomial key: int
# numerator}} over one denominator, so a coefficient product is an int
# convolution of two such key dicts, `scalars.add_product`, which `Poly`
# multiplies with too.  The wedge here and the Schouten and higher brackets
# in `calculus` all go through `_emit`.

def _emit(out: dict, word, c: int, a: dict, b: dict) -> None:
    """Add c a b to out at the ascending form of word, with its reordering
    sign; nothing when a letter repeats."""
    sign, norm = sort_word(word)
    if sign:
        add_product(out.setdefault(norm, {}), a, b, c if sign == 1 else -c)


def _wedge_into(out: dict, x: dict, y: dict, c: int) -> dict:
    """out += c x ^ y on word-grouped numerators, over the product of the
    denominators of x and y; returns out."""
    for w1, a in x.items():
        for w2, b in y.items():
            _emit(out, w1 + w2, c, a, b)
    return out


def _nonzero(pair, out: dict) -> dict:
    """out without zero numerators and empty words; raises CapExceeded if
    a product's exponent passed MAX_EXPONENT."""
    out = {w: kept for w, nums in out.items() if (kept := {e: c for e, c in nums.items() if c})}
    require_exponents(itertools.chain.from_iterable(out.values()), pair.poly_nvars)
    return out
