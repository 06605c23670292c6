"""Sparse exterior (co)tensors over a Lie-Rinehart pair.

A Tensor is an element of the exterior tensor algebra of the pair: an
A-linear combination of wedge words e_{i1} ^ ... ^ e_{ik} in the module
generators, graded by word length (A itself sits in degree 0 as the empty
word).  A Cotensor is the same thing built on the dual generators; its
tensor degree is minus the word length.

Words are kept strictly ascending.  `sort_word` gives the reordering sign
of an input word and of a word built by concatenation (wedge, Schouten);
`calculus.contract` (the Laplace sign) and `calculus.ce_differential`
(insertion signs) read theirs from letter positions instead.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import TYPE_CHECKING

from .scalars import Poly, as_int, format_poly, sparse_sum

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

    __slots__ = ("pair", "terms")

    def __init__(self, pair, terms=None):
        self.pair = pair
        self.terms: dict[Word, Poly] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            self.terms = sparse_sum(self._normalized(items))

    def _normalized(self, items):
        """(ascending word, signed ring coefficient) per input term."""
        for word, coeff in items:
            sign, norm = sort_word(word)
            if sign == 0:
                continue
            for g in norm:
                if not 1 <= g <= self.pair.ngens:
                    raise ValueError(f"generator index {g} out of range for {self.pair}")
            coeff = self.pair.coeff(coeff)
            yield norm, coeff if sign == 1 else -coeff

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, pair):
        return cls(pair)

    @classmethod
    def basis(cls, pair, word):
        return cls(pair, {tuple(word): Fraction(1)})

    @classmethod
    def scalar(cls, pair, value):
        """A ring element sitting in degree zero (the empty word)."""
        return cls(pair, {(): value})

    # -- structure -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def items(self):
        """Terms in canonical order (by length, then lexicographic word)."""
        return sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    @property
    def grade(self) -> int | None:
        """Common tensor degree, or None if mixed or zero."""
        lengths = {len(w) for w in self.terms}
        if len(lengths) != 1:
            return None
        return self.degree_sign * lengths.pop()

    def degrees(self) -> list[int]:
        return sorted({self.degree_sign * len(w) for w in self.terms})

    def homogeneous_parts(self) -> dict[int, "_Element"]:
        parts: dict[int, dict] = {}
        for w, c in self.terms.items():
            parts.setdefault(self.degree_sign * len(w), {})[w] = c
        return {d: self._make(t) for d, t in sorted(parts.items())}

    def bigraded_parts(self) -> dict[tuple[int, int], "_Element"]:
        """Split by (tensor degree, polynomial degree of the coefficient)."""
        parts: dict[tuple[int, int], dict] = {}
        for w, c in self.terms.items():
            d = self.degree_sign * len(w)
            for pd, comp in c.homogeneous_components().items():
                parts.setdefault((d, pd), {})[w] = comp
        return {key: self._make(t) for key, t in sorted(parts.items())}

    def max_poly_degree(self) -> int:
        return max((c.max_degree() for c in self.terms.values()), default=-1)

    def _make(self, terms):
        out = type(self)(self.pair)
        out.terms = dict(terms)
        return out

    # -- linear structure ------------------------------------------------------

    def _check(self, other):
        if type(self) is not type(other):
            raise TypeError(f"cannot mix {self.kind} with {getattr(other, 'kind', type(other))}")
        if self.pair != other.pair:
            raise ValueError("elements live over different pairs")

    def __add__(self, other):
        self._check(other)
        return self._make(sparse_sum(itertools.chain(self.terms.items(), other.terms.items())))

    def __neg__(self):
        return self._make({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Module scaling by a ring element (Poly, Fraction, int or string);
        a rational scales each coefficient without building a constant Poly."""
        if isinstance(other, (int, Fraction)):
            if not other:
                return self._make({})
            return self._make({w: c.scale(other) for w, c in self.terms.items()})
        coeff = self.pair.coeff(other)
        if coeff.is_zero():
            return self._make({})
        terms = {}
        for w, c in self.terms.items():
            acc = c * coeff
            if not acc.is_zero():
                terms[w] = acc
        return self._make(terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.pair == other.pair
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.kind, self.pair, frozenset((w, hash(c)) for w, c in self.terms.items())))

    # -- wedge -----------------------------------------------------------------

    def wedge(self, other):
        self._check(other)
        products = []
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                sign, norm = sort_word(w1 + w2)
                if sign:
                    c = c1 * c2
                    products.append((norm, c if sign == 1 else -c))
        return self._make(sparse_sum(products))

    # -- serialization -----------------------------------------------------------

    def to_json(self):
        names = self.pair.var_names
        return [[list(w), format_poly(c, names)] for w, c in self.items()]

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
        if not self.terms:
            return "0"
        bits = []
        for w, c in self.items():
            word = "^".join(self._letter(g) for g in w) if w else "1"
            coeff = format_poly(c, self.pair.var_names)
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


def wedge_list(pair, cls, elems):
    """Wedge a possibly-empty list of cls elements over pair, left to right.

    The empty product is the unit scalar.  Otherwise the fold starts from
    the first factor, with no unit factor wedged in, and that factor is
    checked against cls and pair as any later one is.
    """
    if not elems:
        return cls.scalar(pair, 1)
    out = elems[0]
    cls.zero(pair)._check(out)
    for e in elems[1:]:
        out = out.wedge(e)
    return out
