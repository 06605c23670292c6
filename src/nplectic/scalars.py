"""Exact scalars and sign combinatorics.

Everything downstream runs over the rationals: coefficients are
`fractions.Fraction` or sparse multivariate polynomials over Q.  A `Poly`
stores integer numerators over one common denominator, so its ring
arithmetic runs on Python ints; only this module reads that storage.
Everything else sees (monomial key, Fraction) pairs, or the numerators and
their denominator through `Poly.numerators`, read-only.  The same form,
with opaque keys, is the label vector of a (co)tensor and of a slice
vector: `lowest_terms`, `combine` and `sum_vectors` are its arithmetic,
shared by all three.  Each formula has its one implementation here:
`sum_vectors` adds vectors over a common denominator, `sparse_sum` sums
(key, value) terms per key and `monomial_derivatives` walks the set fields
of a monomial key.  Elsewhere only `calculus.differential_numerators`,
the inner loop of every slice build, sums inline, which measured faster.

A monomial x_0^e_0 ... x_{m-1}^e_{m-1} is one int, its key: a 32-bit field
per variable, variable 0 in the most significant field, so the key is
sum(e_i << 32 (m - 1 - i)).  Keys multiply by adding and differentiate by
subtracting one unit, and their int order is the lexicographic order of
the exponent tuples.  Every exponent stays at most MAX_EXPONENT = 2^31 - 1,
so the top bit of each field is a guard: a sum of two keys never carries
into the next field, and a product whose exponent would pass the bound
sets a guard bit and raises CapExceeded instead of being stored.  The
checked constructor rejects a larger exponent with ValueError.  Parsing
and printing convert between keys and exponent tuples at the boundary
(`monomial_key`, `monomial_exponents`).

Shuffles, Koszul signs and Bell numbers live here too, since every bracket
formula downstream is a signed sum over shuffles.  A permutation s of 1..k
is never an object: it is the plain image tuple (s(1), ..., s(k)) that
callers index.  No floats anywhere.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
from fractions import Fraction
from operator import or_


class CapExceeded(Exception):
    """Raised when a combinatorial enumeration would blow past its cap."""


def require_arity(k: int, cap: int) -> None:
    """Raise CapExceeded when a bracket arity k exceeds its cap."""
    if k > cap:
        raise CapExceeded(f"bracket arity {k} exceeds cap {cap}")


def as_rational(value) -> Fraction:
    """Coerce ints, Fractions and strings like '-3/2' to an exact rational.

    Malformed text, a zero denominator included, raises ValueError; a bool
    is not a number here and raises TypeError, like any other type.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {value!r}") from None
    raise TypeError(f"cannot interpret {value!r} as a rational")


def as_int(value, what: str) -> int:
    """A JSON integer: an int that is not a bool.  Anything else, a float,
    a string or null included, raises TypeError naming `what`."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise TypeError(f"{what} must be an integer, got {value!r}")


def sparse_sum(pairs) -> dict:
    """Sum the values of (key, value) pairs per key, dropping zero sums.

    Values only need `+` and truthiness, so Fractions and Polys both
    work.  Zeros are dropped once, after the whole sum.
    """
    out = {}
    for key, value in pairs:
        prev = out.get(key)
        out[key] = value if prev is None else prev + value
    return {key: value for key, value in out.items() if value}


def lowest_terms(nums: dict, den: int) -> tuple[dict, int]:
    """Int numerators over den > 0 with their common factor divided out;
    zero is ({}, 1).  Keys are opaque."""
    if den == 1:
        return nums, den
    g = math.gcd(den, *nums.values())
    if g == 1:
        return nums, den
    return {e: c // g for e, c in nums.items()}, den // g


def combine(coeffs: tuple[dict, int], vectors: list[tuple[dict, int]]) -> tuple[dict, int]:
    """sum_i c_i * vectors[i] for coefficients and vectors given as (int
    numerators, denominator), in lowest terms; keys of the vectors are opaque."""
    nums, den = coeffs
    scale = math.lcm(*[vectors[i][1] for i in nums])
    out: dict = {}
    get = out.get
    for i, c in nums.items():
        vec, d = vectors[i]
        c *= scale // d
        for key, a in vec.items():
            out[key] = get(key, 0) + c * a
    return lowest_terms({key: a for key, a in out.items() if a}, den * scale)


def sum_vectors(vectors: list[tuple[dict, int]]) -> tuple[dict, int]:
    """The sum of vectors given as (int numerators, denominator), through
    `combine`, in lowest terms."""
    return combine((dict.fromkeys(range(len(vectors)), 1), 1), vectors)


def add_product(acc: dict, a: dict, b: dict, c: int) -> None:
    """acc += c a b for numerators {monomial key: int}: an int convolution,
    keys adding; zero numerators stay in acc."""
    get, b = acc.get, b.items()
    for e1, c1 in a.items():
        c1 *= c
        for e2, c2 in b:
            e = e1 + e2
            acc[e] = get(e, 0) + c1 * c2


# ---------------------------------------------------------------------------
# monomial keys
# ---------------------------------------------------------------------------

_FIELD_BITS = 32
# the top bit of every field stays clear in a stored key (see the docstring)
MAX_EXPONENT = (1 << (_FIELD_BITS - 1)) - 1


@functools.cache
def _fields(nvars: int) -> struct.Struct:
    """The byte layout of a key: one big-endian unsigned 32-bit field per variable."""
    return struct.Struct(f">{nvars}I")


@functools.cache
def _guard_bits(nvars: int) -> int:
    """The top bit of every field: set in a key only past MAX_EXPONENT."""
    return int.from_bytes(b"\x80\0\0\0" * nvars, "big")


def monomial_key(expo) -> int:
    """The key of an exponent tuple whose entries lie in 0..MAX_EXPONENT."""
    return int.from_bytes(_fields(len(expo)).pack(*expo), "big")


def monomials_exact(nvars: int, degree: int) -> list[int]:
    """The keys of all monomials of total degree `degree`, ascending.

    Stars and bars: nvars - 1 ascending cuts of 0..degree; the exponents
    are the gaps between them, so lexicographic cuts give lexicographic
    exponents, which is ascending key order.  Each key is shifted together
    from its gaps, in time linear in nvars whatever the degree; building
    no exponent tuple per key keeps a slice build's resident memory down.
    """
    if degree < 0 or nvars == 0:
        return [0] if degree == 0 else []
    keys = []
    for cuts in itertools.combinations_with_replacement(range(degree + 1), nvars - 1):
        key = prev = 0
        for cut in cuts:
            key = key << _FIELD_BITS | cut - prev
            prev = cut
        keys.append(key << _FIELD_BITS | degree - prev)
    return keys


def monomial_exponents(key: int, nvars: int) -> tuple[int, ...]:
    """The exponent tuple of a key in `nvars` variables."""
    fields = _fields(nvars)
    return fields.unpack(key.to_bytes(fields.size, "big"))


def monomial_degree(key: int, nvars: int) -> int:
    """The total degree of a key in `nvars` variables."""
    return sum(monomial_exponents(key, nvars))


def variable_key(nvars: int, index: int) -> int:
    """The key of the 0-based variable `index`: one unit in its field."""
    return 1 << (_FIELD_BITS * (nvars - 1 - index))


def monomial_derivatives(key: int, nvars: int, first: int = 0) -> list[tuple[int, int, int]]:
    """(v, k, lowered) for each variable v that occurs in the key, ascending,
    variables numbered from `first`: d/dx_v of the monomial is k times the
    monomial `lowered`.  Only the nonzero fields are visited, from the
    first variable on."""
    out, mask, last = [], key, nvars - 1 + first
    while mask:
        shift = (mask.bit_length() - 1) & -_FIELD_BITS  # the start of the top set field
        unit = 1 << shift
        out.append((last - shift // _FIELD_BITS, mask >> shift, key - unit))
        mask &= unit - 1  # higher fields are already cleared
    return out


def require_exponents(keys, nvars: int) -> None:
    """Raise CapExceeded if a key sets a guard bit: a sum of two keys whose
    exponent passed MAX_EXPONENT."""
    if functools.reduce(or_, keys, 0) & _guard_bits(nvars):
        raise CapExceeded(f"a polynomial exponent exceeds cap {MAX_EXPONENT}")


# ---------------------------------------------------------------------------
# sparse polynomials over Q
# ---------------------------------------------------------------------------

def _default_names(nvars: int) -> tuple[str, ...]:
    if nvars <= 3:
        return ("x", "y", "z")[:nvars]
    return tuple(f"x{i}" for i in range(1, nvars + 1))


class Poly:
    """Sparse polynomial in `nvars` variables with rational coefficients.

    Stored as integer numerators over one common denominator:
    `nums` maps monomial keys to nonzero ints and `den > 0` with
    gcd(den, *nums) == 1, so the zero polynomial has `den == 1` and equal
    polynomials have equal storage.  Ring arithmetic then runs on ints,
    with one gcd per result instead of one per coefficient.

    A key packs the exponent tuple into one int, a 32-bit field per
    variable with variable 0 in the most significant field, so keys sort
    as their tuples do and a term product is one int add.  Each exponent
    is at most MAX_EXPONENT = 2^31 - 1, so no sum of two keys carries into
    the next field; a product that would pass the bound raises
    CapExceeded.  Outside this module coefficients are read as (key,
    Fraction) pairs through `coefficients` or as (nums, den) through
    `numerators`, and keys through the `monomial_*` helpers.  A
    polynomial in zero variables is just a rational number wearing a hat
    (its one key is 0); the constant Lie-Rinehart family uses that.
    """

    __slots__ = ("nvars", "nums", "den")

    def __init__(self, nvars: int, terms=None):
        """The checked entry: takes (exponent tuple, coefficient) terms,
        validates the exponents and coerces the coefficients."""
        vectors = []
        for expo, coeff in terms.items() if isinstance(terms, dict) else terms or ():
            expo = tuple(map(int, expo))
            if len(expo) != nvars or (expo and min(expo) < 0):
                raise ValueError(f"bad exponent tuple {expo} for {nvars} variables")
            if expo and max(expo) > MAX_EXPONENT:
                raise ValueError(f"exponent {max(expo)} exceeds {MAX_EXPONENT}")
            coeff = as_rational(coeff)
            vectors.append(({monomial_key(expo): coeff.numerator}, coeff.denominator))
        self.nvars = nvars
        self.nums, self.den = sum_vectors(vectors)

    @classmethod
    def _from_nums(cls, nvars: int, nums: dict, den: int = 1) -> "Poly":
        """Trusted constructor: valid exponents, nonzero int numerators and
        den > 0; only divides out the common factor."""
        out = cls.__new__(cls)
        out.nvars = nvars
        out.nums, out.den = lowest_terms(nums, den)
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls._from_nums(nvars, {})

    @classmethod
    def const(cls, nvars: int, value) -> "Poly":
        value = as_rational(value)
        nums = {0: value.numerator} if value else {}
        return cls._from_nums(nvars, nums, value.denominator)

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Poly":
        # index is 0-based
        assert 0 <= index < nvars
        return cls._from_nums(nvars, {variable_key(nvars, index): 1})

    # -- structure ----------------------------------------------------------

    def numerators(self) -> tuple[dict, int]:
        """(nums, den): the int numerators by monomial key, which the caller
        must not change, over the one denominator."""
        return self.nums, self.den

    def coefficients(self):
        """The (monomial key, Fraction coefficient) pairs of the nonzero terms."""
        den = self.den
        return ((e, Fraction(c, den)) for e, c in self.nums.items())

    def is_zero(self) -> bool:
        return not self.nums

    def __bool__(self) -> bool:
        return bool(self.nums)

    def is_constant(self) -> bool:
        return not any(self.nums)

    def constant_value(self) -> Fraction:
        if not self.nums:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return Fraction(next(iter(self.nums.values())), self.den)

    def variables(self) -> list[int]:
        """The 0-based indices of the variables that occur in some term,
        ascending: the nonzero fields of the OR of the keys."""
        mask = functools.reduce(or_, self.nums, 0)
        return [v for v, _, _ in monomial_derivatives(mask, self.nvars)]

    # -- arithmetic ----------------------------------------------------------

    def _operand(self, other):
        """other as a Poly in the same variables, or None if it is no scalar."""
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction, str)):
                return None
            return Poly.const(self.nvars, other)
        if self.nvars != other.nvars:
            raise ValueError("mixed variable counts")
        return other

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return Poly._from_nums(self.nvars,
                               *sum_vectors([(self.nums, self.den), (other.nums, other.den)]))

    __radd__ = __add__

    def __neg__(self):
        return Poly._from_nums(self.nvars, {e: -c for e, c in self.nums.items()}, self.den)

    def __sub__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, q) -> "Poly":
        """The multiple q * self for a rational (int or Fraction) q."""
        if q == 1:
            return self
        if not q:
            return Poly.zero(self.nvars)
        p, r = q.numerator, q.denominator
        return Poly._from_nums(self.nvars, {e: c * p for e, c in self.nums.items()}, self.den * r)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, str)):
            return self.scale(as_rational(other))
        other = self._operand(other)
        if other is None:
            return NotImplemented
        a, b = self.nums, other.nums
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            # a single term: no two products share a monomial
            ((e2, c2),) = b.items()
            nums = {e1 + e2: c1 * c2 for e1, c1 in a.items()}
        else:
            nums = {}
            add_product(nums, a, b, 1)
            nums = {e: c for e, c in nums.items() if c}
        require_exponents(nums, self.nvars)
        return Poly._from_nums(self.nvars, nums, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        assert k >= 0
        out = Poly.const(self.nvars, 1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.nvars, other)
        return (isinstance(other, Poly) and self.nvars == other.nvars
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self):
        return hash((self.nvars, self.den, frozenset(self.nums.items())))

    # -- calculus ------------------------------------------------------------

    def diff(self, index: int) -> "Poly":
        """Partial derivative with respect to the 0-based variable `index`."""
        assert 0 <= index < self.nvars
        nums = {lowered: c * k for key, c in self.nums.items()
                for v, k, lowered in monomial_derivatives(key, self.nvars) if v == index}
        return Poly._from_nums(self.nvars, nums, self.den)

    def substitute(self, images: tuple["Poly", ...]) -> "Poly":
        """Ring morphism: plug `images[i]` in for variable i."""
        assert len(images) == self.nvars
        if not images:
            # zero variables: constants map to constants of the target ring
            raise ValueError("substitute needs a target arity; use const()")
        nv = images[0].nvars
        out = Poly.zero(nv)
        for key, c in self.coefficients():
            term = Poly.const(nv, c)
            for img, e in zip(images, monomial_exponents(key, self.nvars)):
                if e:
                    term = term * img ** e
            out = out + term
        return out

    # -- formatting ----------------------------------------------------------

    def __str__(self):
        return format_poly(self)

    __repr__ = __str__


def format_poly(p: Poly) -> str:
    """Canonical string form, graded-lexicographic from the top."""
    if p.is_zero():
        return "0"
    terms = ((monomial_exponents(e, p.nvars), c) for e, c in p.coefficients())
    keyed = sorted(terms, key=lambda kv: (-sum(kv[0]), tuple(-e for e in kv[0])))
    chunks = []
    for expo, coeff in keyed:
        factors = []
        for name, e in zip(_default_names(p.nvars), expo):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            body = str(abs(coeff))
        elif abs(coeff) == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(abs(coeff))] + factors)
        sign = "-" if coeff < 0 else "+"
        chunks.append((sign, body))
    first_sign, first_body = chunks[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in chunks[1:]:
        text += f" {sign} {body}"
    return text


def parse_poly(text: str, nvars: int) -> Poly:
    """Parse the format emitted by `format_poly` (and reasonable variants)."""
    index = {n: i for i, n in enumerate(_default_names(nvars))}
    text = text.strip()
    if not text or text == "0":
        return Poly.zero(nvars)
    # split into signed terms at top level (no parentheses in the grammar)
    pieces: list[str] = []
    current = ""
    for ch in text:
        if ch in "+-" and current.strip() and not current.rstrip().endswith(("^", "*", "/")):
            pieces.append(current)
            current = ch
        else:
            current += ch
    pieces.append(current)
    terms = []
    for piece in pieces:
        piece = piece.strip()
        sign = Fraction(1)
        while piece and piece[0] in "+-":
            if piece[0] == "-":
                sign = -sign
            piece = piece[1:].strip()
        if not piece:
            raise ValueError(f"dangling sign in polynomial {text!r}")
        coeff = sign
        expo = [0] * nvars
        for factor in piece.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError(f"empty factor in {text!r}")
            if factor[0].isdigit():
                coeff *= as_rational(factor)
                continue
            if "^" in factor:
                name, _, power = factor.partition("^")
                # ASCII digits only: int() would also take x^1_0, x^+3, x^٣
                power = power.strip()
                if not (power.isascii() and power.isdigit()):
                    raise ValueError(f"exponent {power!r} in {text!r}: digits only")
                k = int(power)
            else:
                name, k = factor, 1
            name = name.strip()
            if name not in index:
                raise ValueError(f"unknown variable {name!r} in {text!r}")
            expo[index[name]] += k
        terms.append((expo, coeff))
    return Poly(nvars, terms)


# ---------------------------------------------------------------------------
# shuffles and the Koszul sign, on image tuples (s(1), ..., s(k))
# ---------------------------------------------------------------------------

def koszul_sign(images, degrees) -> int:
    """Sign picked up by permuting graded objects of the given degrees.

    The permutation s of 1..k is given as its image tuple (s(1), ..., s(k)).
    Convention: v_1 x ... x v_k = sign * v_{s(1)} x ... x v_{s(k)}, and each
    transposition of adjacent factors of degrees p, q contributes (-1)^(p*q).
    Computed as a product over inversions of s, once per image tuple and
    tuple of degree parities.
    """
    parities = tuple([int(d) % 2 for d in degrees])
    if len(parities) != len(images):
        raise ValueError("degree list does not match permutation length")
    return _koszul_table(tuple(images), parities)


def enumerate_shuffles(block_sizes) -> list[tuple[int, ...]]:
    """(p_1,...,p_r)-shuffles as image tuples, in lexicographic order.

    A shuffle's images ascend inside each block of positions.  Each block
    takes its images from the values the earlier blocks left, in
    `itertools.combinations` order, so the tuples come out sorted.  There
    are multinomially many; callers bound the total p_1+...+p_r.  The table
    is built once per tuple of sizes, and each call gets a fresh list of it.
    """
    sizes = tuple(int(p) for p in block_sizes)
    if any(p < 0 for p in sizes):
        raise ValueError(f"negative block size in {sizes}")
    return list(_shuffle_table(sizes))


@functools.cache
def _shuffle_table(sizes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The shuffles of `enumerate_shuffles` for checked sizes, as a tuple."""
    partial = [((), tuple(range(1, sum(sizes) + 1)))]
    for p in sizes:
        partial = [(head + chosen, tuple(v for v in left if v not in chosen))
                   for head, left in partial
                   for chosen in itertools.combinations(left, p)]
    return tuple(head for head, _ in partial)


@functools.cache
def _koszul_table(images: tuple[int, ...], parities: tuple[int, ...]) -> int:
    """The sign of `koszul_sign` for checked images and degree parities."""
    odd = 0
    for a in range(len(images)):
        for b in range(a + 1, len(images)):
            if images[a] > images[b]:
                odd ^= parities[images[a] - 1] & parities[images[b] - 1]
    return -1 if odd else 1


# ---------------------------------------------------------------------------
# Bell numbers
# ---------------------------------------------------------------------------

def bell(k: int) -> int:
    """k-th Bell number, B_0 = 1, via B_{k+1} = sum_p C(k,p) B_p."""
    if k < 0:
        raise ValueError("Bell numbers start at k = 0")
    bells = [1]
    for m in range(k):
        bells.append(sum(math.comb(m, p) * bells[p] for p in range(m + 1)))
    return bells[k]


def bell_identity_check(k: int) -> bool:
    """Exactly test sum_{q=2}^{k-1} (k-2)!/((q-1)!(k-1-q)!) B_{q-1} = B_{k-1} - B_0.

    The factorial ratio is the integer binomial C(k-2, q-1), so the whole
    identity is checked in integer arithmetic.
    """
    if k < 3:
        raise ValueError("identity needs k >= 3")
    lhs = sum(math.comb(k - 2, q - 1) * bell(q - 1) for q in range(2, k))
    return lhs == bell(k - 1) - bell(0)
