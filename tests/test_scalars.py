import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nplectic.elements import Cotensor
from nplectic.pairs import ConstantPair, PolyVectorFieldPair
from nplectic.scalars import (
    MAX_EXPONENT,
    CapExceeded,
    Poly,
    as_int,
    as_rational,
    bell,
    bell_identity_check,
    enumerate_shuffles,
    format_poly,
    koszul_sign,
    monomial_degree,
    monomial_derivatives,
    monomial_exponents,
    monomial_key,
    parse_poly,
    sparse_sum,
    variable_key,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=12)


# ---------------------------------------------------------------------------
# shuffles
# ---------------------------------------------------------------------------

def brute_shuffles(block_sizes):
    """Oracle: filter all permutations for ascending images inside each block."""
    n = sum(block_sizes)
    edges = list(itertools.accumulate((0,) + tuple(block_sizes)))
    out = []
    for images in itertools.permutations(range(1, n + 1)):
        ok = all(
            images[a] < images[a + 1]
            for lo, hi in zip(edges, edges[1:])
            for a in range(lo, hi - 1)
        )
        if ok:
            out.append(images)
    return sorted(out)


@pytest.mark.parametrize("blocks", [(2, 1), (1, 2), (2, 2), (3, 1), (1, 1, 1), (2, 1, 2)])
def test_shuffles_match_bruteforce(blocks):
    assert enumerate_shuffles(blocks) == brute_shuffles(blocks)


def test_shuffle_counts():
    assert len(enumerate_shuffles((2, 1))) == 3
    assert enumerate_shuffles((1,)) == [(1,)]
    assert enumerate_shuffles((0, 0)) == [()]
    assert len(enumerate_shuffles((2, 2))) == 6
    for p, q in [(1, 3), (2, 3), (3, 3)]:
        assert len(enumerate_shuffles((p, q))) == math.comb(p + q, p)


def test_a_returned_shuffle_list_is_the_callers_own():
    expected = brute_shuffles((2, 3))
    first = enumerate_shuffles((2, 3))
    first.reverse()
    first[0] = (9,)
    first.append(())
    assert enumerate_shuffles((2, 3)) == expected
    assert enumerate_shuffles([2, 3]) == expected


def test_a_negative_block_size_raises_on_every_call():
    for _ in range(3):
        with pytest.raises(ValueError, match="negative block size"):
            enumerate_shuffles((2, -1))


def test_shuffle_order_is_lexicographic():
    images = enumerate_shuffles((2, 2))
    assert images == sorted(images)


# ---------------------------------------------------------------------------
# Koszul signs
# ---------------------------------------------------------------------------

def random_images(rng, k):
    return tuple(rng.sample(range(1, k + 1), k))


def koszul_by_adjacent_swaps(images, degrees):
    """Oracle: bubble-sort the images, one (-1)^(pq) per adjacent swap."""
    seq = list(images)
    sign = 1
    changed = True
    while changed:
        changed = False
        for a in range(len(seq) - 1):
            if seq[a] > seq[a + 1]:
                p, q = degrees[seq[a] - 1], degrees[seq[a + 1] - 1]
                if (p * q) % 2:
                    sign = -sign
                seq[a], seq[a + 1] = seq[a + 1], seq[a]
                changed = True
    return sign


def sign_by_cycles(images):
    """Oracle: a permutation of k points with c cycles has sign (-1)^(k - c)."""
    seen, cycles = set(), 0
    for start in images:
        if start not in seen:
            cycles += 1
            a = start
            while a not in seen:
                seen.add(a)
                a = images[a - 1]
    return -1 if (len(images) - cycles) % 2 else 1


def test_koszul_examples():
    assert koszul_sign((2, 1), (1, 1)) == -1
    assert koszul_sign((2, 1), (1, 2)) == 1
    assert koszul_sign((1, 2, 3, 4), (1, 2, 3, 4)) == 1
    assert koszul_sign((2, 3, 1), (1, 1, 1)) == 1  # 1 -> 2 -> 3 -> 1
    with pytest.raises(ValueError):
        koszul_sign((2, 1), (1, 1, 1))


def test_koszul_matches_adjacent_swap_oracle():
    rng = random.Random(11)
    for _ in range(200):
        k = rng.randint(1, 6)
        images = random_images(rng, k)
        degrees = tuple(rng.randint(0, 3) for _ in range(k))
        assert koszul_sign(images, degrees) == koszul_by_adjacent_swaps(images, degrees)


def test_koszul_reduces_to_sign_in_odd_degrees():
    rng = random.Random(3)
    for _ in range(50):
        k = rng.randint(1, 6)
        images = random_images(rng, k)
        assert koszul_sign(images, (1,) * k) == sign_by_cycles(images)


def test_koszul_composition_rule():
    # sign(s o t; v) = sign(s; v) * sign(t; s.v) where (s.v)_a = v_{s(a)}
    rng = random.Random(7)
    for _ in range(200):
        k = rng.randint(2, 6)
        s, t = random_images(rng, k), random_images(rng, k)
        degrees = tuple(rng.randint(0, 3) for _ in range(k))
        s_after_t = tuple(s[b - 1] for b in t)
        s_degrees = tuple(degrees[b - 1] for b in s)
        assert koszul_sign(s_after_t, degrees) == (koszul_sign(s, degrees)
                                                   * koszul_sign(t, s_degrees))


# ---------------------------------------------------------------------------
# Bell numbers
# ---------------------------------------------------------------------------

def count_set_partitions(k):
    """Oracle: enumerate set partitions of {0..k-1} by restricted growth."""
    if k == 0:
        return 1
    count = 0
    for labels in itertools.product(range(k), repeat=k - 1):
        word = (0,) + labels
        if all(word[i] <= max(word[:i]) + 1 for i in range(1, k)):
            count += 1
    return count


def test_bell_values():
    assert bell(0) == 1
    assert bell(3) == 5
    assert bell(5) == 52


def test_bell_against_partition_count():
    for k in range(7):
        assert bell(k) == count_set_partitions(k)


def test_bell_identity():
    for k in range(3, 11):
        assert bell_identity_check(k)


def test_bell_numbers_refuse_an_index_below_their_range():
    with pytest.raises(ValueError, match="Bell numbers start at k = 0"):
        bell(-1)
    with pytest.raises(ValueError, match="identity needs k >= 3"):
        bell_identity_check(2)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def rand_poly(rng, nvars, deg=3):
    terms = {}
    for _ in range(rng.randint(0, 5)):
        expo = [0] * nvars
        for _ in range(rng.randint(0, deg)):
            expo[rng.randrange(nvars)] += 1
        terms[tuple(expo)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Poly(nvars, terms)


def test_poly_ring_axioms_randomized():
    rng = random.Random(23)
    for _ in range(150):
        nvars = rng.randint(1, 3)
        a, b, c = (rand_poly(rng, nvars) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == Poly.zero(nvars)


@given(rationals, rationals, rationals)
def test_zero_variable_polys_are_rationals(p, q, r):
    a, b, c = (Poly.const(0, v) for v in (p, q, r))
    assert (a * b + c).constant_value() == p * q + r


def test_poly_constructor_checks_exponents_and_coefficients():
    for bad in ({(1,): 1}, {(1, 2, 3): 1}, {(1, -1): 1}):
        with pytest.raises(ValueError):
            Poly(2, bad)
    with pytest.raises(ValueError):
        Poly(2, {(1, 0): "1/0"})
    p = Poly(2, [((1, 0), 3), ((0, 1), Fraction(1, 2)), ((0, 0), "-2/3"), ((1, 0), "1/3")])
    assert p == parse_poly("10/3*x + 1/2*y - 2/3", 2)
    assert (p.den, p.nums) == (6, {1 << 32: 20, 1: 3, 0: -4})
    assert Poly(2, {(1, 0): 1, (0, 1): 0}) == Poly.variable(2, 0)


def test_poly_diff_product_rule():
    rng = random.Random(9)
    for _ in range(100):
        nvars = rng.randint(1, 3)
        a, b = rand_poly(rng, nvars), rand_poly(rng, nvars)
        i = rng.randrange(nvars)
        assert (a * b).diff(i) == a.diff(i) * b + a * b.diff(i)


def test_poly_diff_example():
    x = Poly.variable(2, 0)
    assert (x * x).diff(0) == 2 * x


def test_poly_format_and_parse_roundtrip():
    rng = random.Random(31)
    for _ in range(100):
        nvars = rng.randint(1, 4)
        p = rand_poly(rng, nvars)
        assert parse_poly(format_poly(p), nvars) == p


def test_poly_parse_examples():
    p = parse_poly("2*x^2*y - 1/3*y + 4", 2)
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    assert p == 2 * x * x * y - Fraction(1, 3) * y + 4
    assert parse_poly("-x", 1) == -Poly.variable(1, 0)
    assert parse_poly("0", 3) == Poly.zero(3)
    assert parse_poly("12*x - 0.25*x + 007/010", 2) == Fraction(47, 4) * x + Fraction(7, 10)
    with pytest.raises(ValueError):
        parse_poly("q + 1", 2)
    with pytest.raises(ValueError):
        parse_poly("1/0*x", 2)
    with pytest.raises(ValueError):
        as_rational(" 3/0")


@pytest.mark.parametrize("text, message", [
    ("x -", "dangling sign in polynomial 'x -'"),
    ("+", "dangling sign in polynomial '+'"),
    ("2**x", "empty factor in '2**x'"),
    ("x*", "empty factor in 'x*'"),
])
def test_poly_parse_refuses_a_dangling_sign_and_an_empty_factor(text, message):
    with pytest.raises(ValueError) as exc:
        parse_poly(text, 2)
    assert str(exc.value) == message


@pytest.mark.parametrize("text, power", [("x^1_0", "1_0"), ("x^+3", "+3"), ("y*x^٣", "٣")])
def test_poly_parse_reads_an_exponent_as_ascii_digits_only(text, power):
    # int() takes each of these, as x^10, x^3 and x^3
    with pytest.raises(ValueError) as exc:
        parse_poly(text, 2)
    assert str(exc.value) == f"exponent {power!r} in {text!r}: digits only"


@pytest.mark.parametrize("text, coeff", [
    ("1_0*x", "1_0"), ("\u0663*x", "\u0663"), ("1e2*x", "1e2"), ("y + 2E1", "2E1"),
    ("1.*x", "1."), ("1/2_0*y", "1/2_0"), ("3/\u0664", "3/\u0664"), ("1.5.2", "1.5.2"),
    ("1/2/3*x", "1/2/3"), ("2x", "2x"),
])
def test_poly_parse_reads_a_coefficient_as_ascii_digits_only(text, coeff):
    # Fraction takes all but the last three, as 10, 3, 100, 20, 1, 1/20 and 3/4
    with pytest.raises(ValueError) as exc:
        parse_poly(text, 2)
    assert str(exc.value) == (f"coefficient {coeff!r} in {text!r}: "
                              "digits, digits/digits or digits.digits only")


def test_poly_refuses_mixed_variable_counts_a_non_constant_value_and_no_images():
    x = Poly.variable(2, 0)
    with pytest.raises(ValueError, match="mixed variable counts"):
        x + Poly.zero(3)
    with pytest.raises(ValueError, match="mixed variable counts"):
        x * Poly.variable(3, 0)
    with pytest.raises(ValueError, match="x is not constant"):
        x.constant_value()
    assert (x - x + 5).constant_value() == 5
    with pytest.raises(ValueError, match="substitute needs a target arity"):
        Poly.const(0, 3).substitute(())


def test_poly_parse_sums_repeated_and_cancelling_monomials():
    # one Poly from every term equals the term-by-term sum, also when a
    # monomial repeats, cancels, or cancels and comes back
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    assert parse_poly("x + x - 2*x", 2) == Poly.zero(2)
    assert parse_poly("x - x + y + x", 2) == x + y
    assert parse_poly("1/2*x*y + y*x - 3/2*x*y + 4 - 4", 2) == Poly.zero(2)
    rng = random.Random(37)
    names = ("x", "y", "z")
    for _ in range(100):
        nvars = rng.randint(1, 3)
        pool = [tuple(rng.randint(0, 2) for _ in range(nvars)) for _ in range(3)]
        terms = [(rng.choice(pool), Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                 for _ in range(rng.randint(1, 8))]
        text = " ".join(("-" if c < 0 else "+") + " " + "*".join(
            [str(abs(c))] + [f"{n}^{e}" for n, e in zip(names, expo) if e]) for expo, c in terms)
        expected = Poly.zero(nvars)
        for expo, c in terms:
            expected = expected + Poly(nvars, {expo: c})
        assert parse_poly(text, nvars) == expected
        assert parse_poly(format_poly(expected), nvars) == expected


@pytest.mark.parametrize("value", [True, False, 1.0, "1", None, Fraction(1)], ids=repr)
def test_as_int_takes_only_an_int_that_is_not_a_bool(value):
    with pytest.raises(TypeError, match="'n' must be an integer"):
        as_int(value, "'n'")


def test_as_int_returns_an_int_and_as_rational_rejects_a_bool():
    assert as_int(-7, "'n'") == -7 and as_rational(-7) == -7
    for flag in (True, False):
        with pytest.raises(TypeError, match="as a rational"):
            as_rational(flag)


def test_sparse_sum_drops_zero_sums_after_summing():
    x = Poly.variable(2, 0)
    pairs = [("a", Fraction(1)), ("b", Fraction(2)), ("a", Fraction(-1)), ("a", Fraction(3))]
    assert sparse_sum(pairs) == {"a": 3, "b": 2}
    assert sparse_sum([("p", x), ("q", x), ("p", -x)]) == {"q": x}
    assert not Poly.zero(2) and x


# Coefficients with large, coprime denominators (products of the primes the
# benchmark rescales by) and numerators far outside -6..6, plus small ones
# so that sums and products also cancel.
PRIMES = (11, 13, 17, 19, 23, 29, 31, 37)
coefficients = st.one_of(
    st.builds(lambda n, ps, k: Fraction(n, math.prod(ps) * k),
              st.integers(-10**12, 10**12), st.lists(st.sampled_from(PRIMES), max_size=3),
              st.integers(1, 8)),
    st.integers(-3, 3).map(Fraction))


# Small exponents, and exponents at the field bound, where a product passes it.
small_exponents = st.integers(0, 2)
any_exponents = small_exponents | st.integers(MAX_EXPONENT - 2, MAX_EXPONENT)


def poly_dicts(nvars, max_terms=4, exponents=small_exponents):
    expos = st.tuples(*[exponents] * nvars)
    return st.dictionaries(expos, coefficients, max_size=max_terms).map(
        lambda d: {e: c for e, c in d.items() if c})


@st.composite
def poly_cases(draw):
    nvars = draw(st.integers(0, 8))
    a, b = draw(poly_dicts(nvars, exponents=any_exponents)), draw(poly_dicts(nvars))
    if draw(st.booleans()):
        a, b = b, a
    target = draw(st.integers(0, 3))
    images = [draw(poly_dicts(target, max_terms=2, exponents=st.integers(0, 1)))
              for _ in range(nvars)]
    return nvars, a, b, draw(coefficients), draw(st.integers(0, 3)), target, images


def canonical(p: Poly, nvars: int) -> Poly:
    """The storage invariant: nonzero int numerators over one den > 0, gcd 1,
    and keys that are exponent tuples within the bound."""
    assert p.nvars == nvars and p.den > 0 and all(p.nums.values())
    assert math.gcd(p.den, *p.nums.values()) == 1
    for key in p.nums:
        expo = monomial_exponents(key, nvars)
        assert monomial_key(expo) == key and max(expo, default=0) <= MAX_EXPONENT
    return p


def tuple_terms(p: Poly) -> dict:
    return {monomial_exponents(e, p.nvars): c for e, c in p.coefficients()}


@settings(max_examples=150, deadline=None)
@given(poly_cases())
def test_poly_matches_the_dict_oracle(poly_oracle, case):
    nvars, a, b, q, k, target, images = case
    O = poly_oracle

    def check(p, expected, nv=nvars):
        assert tuple_terms(canonical(p, nv)) == expected

    def check_product(product, expected):
        """Exact, or refused when the exact product has an exponent past
        the bound: never a carried key."""
        if any(max(e, default=0) > MAX_EXPONENT for e in expected):
            with pytest.raises(CapExceeded, match="exponent exceeds cap"):
                product()
        else:
            check(product(), expected)

    A, B = Poly(nvars, a), Poly(nvars, b)
    check(A, a)
    check(A + B, O.add(a, b))
    check(A - B, O.add(a, O.scale(-1, b)))
    check(-A, O.scale(-1, a))
    check_product(lambda: A * B, O.mul(a, b))
    # the cross terms of (A + B)(A - B) cancel inside the product
    check_product(lambda: (A + B) * (A - B), O.mul(O.add(a, b), O.add(a, O.scale(-1, b))))
    check(A * q, O.scale(q, a))
    check(q * A, O.scale(q, a))
    check(A.scale(q), O.scale(q, a))
    check_product(lambda: A ** k, O.power(a, k, nvars))
    for i in range(nvars):
        check(A.diff(i), O.diff(a, i))
    if nvars and all(max(e) <= 2 for e in a):  # substitute takes powers by repeated products
        check(A.substitute(tuple(Poly(target, img) for img in images)),
              O.substitute(a, images, target), target)
    # a coefficient split by its degree, as the bigraded parts of a scalar
    pair = PolyVectorFieldPair(nvars) if nvars else ConstantPair(1)
    parts = Cotensor.scalar(pair, A).bigraded_parts()
    assert sorted(parts) == [(0, d) for d in sorted(O.components(a))]
    for (_, d), part in parts.items():
        ((_, comp),) = part.items()
        check(comp, O.components(a)[d])
    names = "xyz"[:nvars] if nvars <= 3 else [f"x{i}" for i in range(1, nvars + 1)]
    assert format_poly(A) == O.format(a, names)
    assert (A == B) == (a == b) and (A == q) == (a == ({(0,) * nvars: q} if q else {}))
    same = Poly(nvars, list(reversed(list(a.items()))))
    for other in (same, (A + B) - B, A * Poly.const(nvars, 1)):
        assert other == A and hash(other) == hash(A)


@settings(max_examples=200)
@given(st.integers(0, 8).flatmap(
    lambda n: st.lists(st.tuples(*[any_exponents | st.integers(0, 40)] * n), max_size=8)))
def test_keys_sort_as_their_exponent_tuples(expos):
    keys = [monomial_key(e) for e in expos]
    assert sorted(keys) == [monomial_key(e) for e in sorted(expos)]
    nvars = len(expos[0]) if expos else 0
    for e, key in zip(expos, keys):
        assert monomial_exponents(key, nvars) == e and monomial_degree(key, nvars) == sum(e)
        assert key == sum(k * variable_key(nvars, i) for i, k in enumerate(e))
        # d/dx_i x^e = e_i x^(e - unit_i), one entry per variable the key holds
        lowered = [(i, k, monomial_key(e[:i] + (k - 1,) + e[i + 1:]))
                   for i, k in enumerate(e) if k]
        assert monomial_derivatives(key, nvars) == lowered
        assert monomial_derivatives(key, nvars, 1) == [(i + 1, k, low) for i, k, low in lowered]


def test_a_product_past_the_exponent_bound_is_refused_not_carried():
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    top = Poly(2, {(0, MAX_EXPONENT): 1})
    # exponents at the bound in one field leave the neighbouring field alone
    assert tuple_terms(x * top) == {(1, MAX_EXPONENT): 1}
    assert tuple_terms(Poly(2, {(0, MAX_EXPONENT - 1): 1}) * y) == {(0, MAX_EXPONENT): 1}
    assert top.diff(1) == MAX_EXPONENT * Poly(2, {(0, MAX_EXPONENT - 1): 1})
    assert top.variables() == [1] and (x * top).variables() == [0, 1]
    for product in (lambda: top * y, lambda: y * top, lambda: (x + top) * (x + y),
                    lambda: top * top, lambda: (x * top) ** 2):
        with pytest.raises(CapExceeded, match=f"exponent exceeds cap {MAX_EXPONENT}"):
            product()


def test_the_checked_constructor_refuses_an_exponent_past_the_bound():
    with pytest.raises(ValueError, match=f"exponent {MAX_EXPONENT + 1} exceeds {MAX_EXPONENT}"):
        Poly(2, {(MAX_EXPONENT + 1, 0): 1})
    with pytest.raises(ValueError, match=f"exceeds {MAX_EXPONENT}"):
        parse_poly(f"x^{MAX_EXPONENT}*x", 2)
    assert tuple_terms(parse_poly(f"x^{MAX_EXPONENT}*y", 2)) == {(MAX_EXPONENT, 1): 1}


@given(coefficients, coefficients)
def test_constants_multiply_as_rationals(q, r):
    product = Poly.const(0, q) * Poly.const(0, r)
    assert canonical(product, 0) == Poly.const(0, q * r)
