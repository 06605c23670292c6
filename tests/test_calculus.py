import functools
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nplectic import calculus
from nplectic.calculus import (
    MAX_BRACKET_ARITY,
    ce_differential,
    contract,
    higher_bracket,
    lie_derivative,
    natural_inclusion,
    pairing,
    schouten,
)
from nplectic.elements import Cotensor, Tensor, ascending_words, wedge_list
from nplectic.engine import differential_slice
from nplectic.linf import TensorLinf, jacobi_residual
from nplectic.pairs import ConstantPair, PolyVectorFieldPair, action, lie_bracket, pair_from_json
from nplectic.sampling import random_cotensor, random_poly, random_tensor
from nplectic.scalars import MAX_EXPONENT, CapExceeded, Poly, koszul_sign, parse_poly
from conftest import basis_elements, higher_bracket_by_terms, pairing_by_polys, schouten_by_terms


def su2():
    return ConstantPair.from_brackets(3, {(1, 2): {3: 1}, (2, 3): {1: 1}, (3, 1): {2: 1}})


GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"
PLANE = PolyVectorFieldPair(2)
SPACE = PolyVectorFieldPair(3)
FAMILIES = (su2(), SPACE)


def basis_t(pair, *word):
    return Tensor.basis(pair, word)


def basis_c(pair, *word):
    return Cotensor.basis(pair, word)


# ---------------------------------------------------------------------------
# wedge
# ---------------------------------------------------------------------------

def test_wedge_normalization():
    p = su2()
    assert Tensor(p, {(2, 1): 1}) == -basis_t(p, 1, 2)
    assert Tensor(p, {(1, 1): 1}).is_zero()
    assert basis_t(p, 1).wedge(basis_t(p, 1)).is_zero()
    assert basis_t(p, 2).wedge(basis_t(p, 1)) == -basis_t(p, 1, 2)


def test_wedge_is_associative_and_bilinear():
    rng = random.Random(13)
    for pair in FAMILIES:
        for _ in range(30):
            u = random_tensor(rng, pair, rng.randint(0, 2))
            v = random_tensor(rng, pair, rng.randint(0, 2))
            w = random_tensor(rng, pair, rng.randint(0, 1))
            assert u.wedge(v).wedge(w) == u.wedge(v.wedge(w))
            assert (u + v).wedge(w) == u.wedge(w) + v.wedge(w)
            a = random_poly(rng, pair.poly_nvars, 2)
            assert (a * u).wedge(v) == a * u.wedge(v)


def test_wedge_graded_commutativity():
    rng = random.Random(14)
    for pair in FAMILIES:
        for _ in range(30):
            p, q = rng.randint(0, 2), rng.randint(0, 2)
            u, v = random_tensor(rng, pair, p), random_tensor(rng, pair, q)
            sign = -1 if (p * q) % 2 else 1
            assert u.wedge(v) == sign * v.wedge(u)


def test_wedge_list_folds_from_its_first_factor():
    rng = random.Random(19)
    for pair in FAMILIES:
        assert wedge_list(pair, Tensor, []) == Tensor.scalar(pair, 1)
        assert wedge_list(pair, Cotensor, []) == Cotensor.scalar(pair, 1)
        for _ in range(10):
            x, y, z = (random_tensor(rng, pair, rng.randint(0, 2)) for _ in range(3))
            assert wedge_list(pair, Tensor, [x]) == x
            assert wedge_list(pair, Tensor, [x, y, z]) == x.wedge(y).wedge(z)


@pytest.mark.parametrize("position", [0, 1])
def test_wedge_list_checks_every_factor_against_its_kind_and_pair(position):
    p = su2()
    x = basis_t(p, 1)
    bad = [(basis_c(p, 1), TypeError, "^cannot mix tensor with cotensor$"),
           (basis_t(SPACE, 1), ValueError, "^elements live over different pairs$")]
    for factor, error, message in bad:
        for length in range(position + 1, 4):
            factors = [x] * length
            factors[position] = factor
            with pytest.raises(error, match=message):
                wedge_list(p, Tensor, factors)


# ---------------------------------------------------------------------------
# pairing, with the determinant oracle
# ---------------------------------------------------------------------------

def one_form_value(f, x):
    out = Poly.zero(f.pair.poly_nvars)
    on_x = dict(x.items())
    for (g,), b in f.items():
        a = on_x.get((g,))
        if a is not None:
            out = out + a * b
    return out


def det_pairing(fs, xs):
    """Oracle: <f^1 ^..^ f^n, x_1 ^..^ x_n> = det(f^j(x_i))."""
    n = len(fs)
    m = [[one_form_value(fs[j], xs[i]) for j in range(n)] for i in range(n)]
    total = Poly.zero(fs[0].pair.poly_nvars)
    for perm in itertools.permutations(range(n)):
        sgn = koszul_sign(tuple(p + 1 for p in perm), (1,) * n)
        prod = Poly.const(fs[0].pair.poly_nvars, sgn)
        for i in range(n):
            prod = prod * m[i][perm[i]]
        total = total + prod
    return total


def test_pairing_examples():
    assert pairing(basis_c(PLANE, 1, 2), basis_t(PLANE, 1, 2)) == Poly.const(2, 1)
    p = su2()
    assert pairing(basis_c(p, 1, 3), basis_t(p, 1, 2)).is_zero()
    # scalars pair by multiplication
    a = Cotensor.scalar(PLANE, parse_poly("x", 2))
    b = Tensor.scalar(PLANE, parse_poly("y", 2))
    assert pairing(a, b) == parse_poly("x*y", 2)


def test_pairing_matches_determinant_oracle():
    rng = random.Random(21)
    for pair in FAMILIES:
        for _ in range(40):
            n = rng.randint(1, 3)
            fs = [random_cotensor(rng, pair, 1, 2) for _ in range(n)]
            xs = [random_tensor(rng, pair, 1, 2) for _ in range(n)]
            fwedge = wedge_list(pair, Cotensor, fs)
            xwedge = wedge_list(pair, Tensor, xs)
            assert pairing(fwedge, xwedge) == det_pairing(fs, xs)


def test_pairing_mismatched_degrees_is_zero():
    p = su2()
    assert pairing(basis_c(p, 1), basis_t(p, 1, 2)).is_zero()
    assert pairing(Cotensor.scalar(p, 1), basis_t(p, 1)).is_zero()


def test_pairing_matches_the_poly_oracle():
    # sums of 0-2 homogeneous parts: equal and mismatched word lengths, zeros
    rng = random.Random(37)
    seen = {"zero": 0, "equal": 0, "mismatched": 0}
    for pair in FAMILIES:
        for _ in range(80):
            f = sum((random_cotensor(rng, pair, rng.randint(0, 3), 2, 3)
                     for _ in range(rng.randint(0, 2))), Cotensor.zero(pair))
            x = sum((random_tensor(rng, pair, rng.randint(0, 3), 2, 3)
                     for _ in range(rng.randint(0, 2))), Tensor.zero(pair))
            got = pairing(f, x)
            assert got == pairing_by_polys(f, x)
            if f.is_zero() or x.is_zero():
                seen["zero"] += 1
            elif {-d for d in f.degrees()} & set(x.degrees()):
                seen["equal"] += not got.is_zero()
            else:
                seen["mismatched"] += 1
    assert min(seen.values()) >= 10, seen


def test_calculus_refuses_operands_over_different_pairs():
    x, f, y = basis_t(PLANE, 1), basis_c(SPACE, 1), basis_t(SPACE, 1)
    with pytest.raises(ValueError, match="pairing across different pairs"):
        pairing(f, x)
    with pytest.raises(ValueError, match="contraction across different pairs"):
        contract(x, f)
    with pytest.raises(ValueError, match="bracket across different pairs"):
        schouten(x, y)


# ---------------------------------------------------------------------------
# contraction
# ---------------------------------------------------------------------------

def test_contract_examples():
    omega = basis_c(PLANE, 1, 2)  # dx ^ dy
    assert contract(basis_t(PLANE, 1), omega) == basis_c(PLANE, 2)
    assert contract(basis_t(PLANE, 2), omega) == -basis_c(PLANE, 1)
    assert contract(basis_t(PLANE, 1, 2), omega) == Cotensor.scalar(PLANE, 1)
    # degree-zero contraction is module scaling
    x = parse_poly("x", 2)
    assert contract(Tensor.scalar(PLANE, x), omega) == x * omega


def test_contract_adjunction_exhaustive():
    for pair in FAMILIES:
        words = [w for k in range(pair.ngens + 1) for w in ascending_words(pair.ngens, k)]
        for wx, wf, wy in itertools.product(words, repeat=3):
            x, y, f = Tensor.basis(pair, wx), Tensor.basis(pair, wy), Cotensor.basis(pair, wf)
            assert pairing(contract(x, f), y) == pairing(f, x.wedge(y))


def test_contract_adjunction_randomized():
    rng = random.Random(6)
    for pair in FAMILIES:
        for _ in range(40):
            x = random_tensor(rng, pair, rng.randint(0, 2), 2)
            y = random_tensor(rng, pair, rng.randint(0, 2), 2)
            f = random_cotensor(rng, pair, rng.randint(0, 3), 2)
            assert pairing(contract(x, f), y) == pairing(f, x.wedge(y))


def test_contractions_graded_commute():
    rng = random.Random(26)
    for pair in FAMILIES:
        for _ in range(30):
            p, q = rng.randint(0, 2), rng.randint(0, 2)
            x, y = random_tensor(rng, pair, p, 2), random_tensor(rng, pair, q, 2)
            f = random_cotensor(rng, pair, 3, 2)
            sign = -1 if (p * q) % 2 else 1
            assert contract(x, contract(y, f)) == sign * contract(y, contract(x, f))


def test_contract_of_wedge_composes():
    rng = random.Random(27)
    for pair in FAMILIES:
        for _ in range(20):
            x, y = random_tensor(rng, pair, 1, 2), random_tensor(rng, pair, 1, 2)
            f = random_cotensor(rng, pair, 3, 2)
            assert contract(x.wedge(y), f) == contract(y, contract(x, f))


# ---------------------------------------------------------------------------
# the differential
# ---------------------------------------------------------------------------

def test_differential_on_functions():
    x, y = (parse_poly(s, 2) for s in ("x", "y"))
    df = ce_differential(Cotensor.scalar(PLANE, x * x))
    assert df == (2 * x) * basis_c(PLANE, 1)
    dg = ce_differential(Cotensor.scalar(PLANE, x * y))
    assert dg == y * basis_c(PLANE, 1) + x * basis_c(PLANE, 2)


def test_differential_su2_dual_basis():
    p = su2()
    assert ce_differential(basis_c(p, 1)) == -basis_c(p, 2, 3)
    assert ce_differential(basis_c(p, 2)) == basis_c(p, 1, 3)
    assert ce_differential(basis_c(p, 3)) == -basis_c(p, 1, 2)
    # constants die
    assert ce_differential(Cotensor.scalar(p, 7)).is_zero()


def test_differential_squares_to_zero():
    rng = random.Random(35)
    for pair in FAMILIES:
        for _ in range(60):
            f = random_cotensor(rng, pair, rng.randint(0, 3), 3)
            assert ce_differential(ce_differential(f)).is_zero()


ORACLE_PAIRS = {
    "su2": su2(),
    "heisenberg": ConstantPair.from_brackets(3, {(1, 2): {3: 1}}),
    "four": ConstantPair.from_brackets(4, {
        (1, 2): {3: 1, 4: -2}, (1, 3): {1: Fraction(1, 2)},
        (2, 4): {2: 3, 3: 1}, (3, 4): {1: -1, 4: 5}}),
    "space": SPACE,
}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(ORACLE_PAIRS)),
       lengths=st.lists(st.integers(0, 3), min_size=1, max_size=3),
       seed=st.integers(0, 2**16))
def test_differential_matches_the_target_word_oracle(differential_oracle, name, lengths, seed):
    pair = ORACLE_PAIRS[name]
    rng = random.Random(seed)
    f = Cotensor.zero(pair)
    for length in lengths:
        f = f + random_cotensor(rng, pair, length, max_degree=2, terms=3)
    assert ce_differential(f) == differential_oracle(f)


def label_d_disagreements(pair, differential_oracle):
    """The slice labels (word, key) whose d disagrees with the target-word
    oracle on the unit cotensor x^key e^word: d from the label vectors of
    `differential_slice` and from `ce_differential`, over every word length
    and weights 0..2."""
    bad = []
    for word_len in range(pair.ngens + 1):
        for weight in range(3) if pair.poly_nvars else [0]:
            labels, exact = differential_slice(pair, word_len, weight)
            for lab, unit, (nums, den) in zip(labels, basis_elements(pair, Cotensor, labels),
                                              exact):
                expected = differential_oracle(unit)
                rationals = {(w, e): q for w, c in expected.items()
                             for e, q in c.coefficients()}
                if ({k: Fraction(c, den) for k, c in nums.items()} != rationals
                        or ce_differential(unit) != expected):
                    bad.append(lab)
    return bad


def drop_the_insertion_sign(label_d, pair, word, key):
    """label_d with its derivation terms stripped of their sign (-1)^j."""
    return [((w, e), abs(c) if e != key else c) for (w, e), c in label_d(pair, word, key)]


def flip_the_bracket_sign(label_d, pair, word, key):
    """label_d with the sign of its bracket-insertion terms flipped."""
    return [((w, e), -c if e == key else c) for (w, e), c in label_d(pair, word, key)]


LABEL_D_PAIRS = {"space": (SPACE, drop_the_insertion_sign),
                 "su2": (su2(), flip_the_bracket_sign),
                 "four": (ORACLE_PAIRS["four"], flip_the_bracket_sign)}


@pytest.mark.parametrize("name", sorted(LABEL_D_PAIRS))
def test_label_differential_matches_the_target_word_oracle_on_every_label(
        differential_oracle, monkeypatch, name):
    # "four" has the structure constant 1/2, so its label d runs over
    # bracket_den = 2; a label d with one sign flipped must be caught
    pair, mutant = LABEL_D_PAIRS[name]
    assert label_d_disagreements(pair, differential_oracle) == []
    monkeypatch.setattr(calculus, "label_differential",
                        functools.partial(mutant, calculus.label_differential))
    assert label_d_disagreements(pair, differential_oracle)


def test_differential_is_not_module_linear():
    x = parse_poly("x", 2)
    f = basis_c(PLANE, 2)  # dy
    assert ce_differential(x * f) == basis_c(PLANE, 1, 2)
    assert (x * ce_differential(f)).is_zero()


def test_differential_acts_only_with_the_variables_a_coefficient_holds(monkeypatch):
    # on Q[x1..x1000], d of x1*x2*x5 dx2 acts with d/dx1, d/dx2 and d/dx5
    # alone: the monomial holds no other variable, and d/dx2 is already in
    # the word, so it adds no term
    pair = PolyVectorFieldPair(1000)
    x = [Poly.variable(1000, i) for i in range(5)]
    coeff = x[0] * x[1] * x[4]
    assert coeff.variables() == [0, 1, 4]
    tried = []
    original = PolyVectorFieldPair.monomial_action

    def recording(self, key):
        action = original(self, key)
        tried.extend(g for g, _, _ in action)
        return action

    monkeypatch.setattr(PolyVectorFieldPair, "monomial_action", recording)
    df = ce_differential(Cotensor(pair, {(2,): coeff}))
    assert tried == [1, 2, 5]
    assert df == Cotensor(pair, {(1, 2): x[1] * x[4], (2, 5): -x[0] * x[1]})


def test_schouten_acts_only_with_the_generators_acting_on_a_coefficient(monkeypatch):
    # [x @x, x @y] = x D_x(x) @y - x D_y(x) @x: x holds no y, so D_y is never
    # formed; the derivatives are read off the monomial keys, one D_x per operand
    x = parse_poly("x", 2)
    tried = []
    original = PolyVectorFieldPair.monomial_action

    def recording(self, key):
        out = original(self, key)
        tried.extend(g for g, _, _ in out)
        return out

    def unused(self, i, a):
        raise AssertionError("the bracket acts on labels, not through action_basis")

    monkeypatch.setattr(PolyVectorFieldPair, "monomial_action", recording)
    monkeypatch.setattr(PolyVectorFieldPair, "action_basis", unused)
    bracket = schouten(x * basis_t(PLANE, 1), x * basis_t(PLANE, 2))
    assert tried == [1, 1]
    assert bracket == x * basis_t(PLANE, 2)


# ---------------------------------------------------------------------------
# Lie derivative
# ---------------------------------------------------------------------------

def test_lie_derivative_examples():
    x = parse_poly("x", 2)
    assert lie_derivative(basis_t(PLANE, 1), x * basis_c(PLANE, 1)) == basis_c(PLANE, 1)
    omega = basis_c(PLANE, 1, 2)
    # rotational field preserves the area form
    rot = parse_poly("x", 2) * basis_t(PLANE, 2) - parse_poly("y", 2) * basis_t(PLANE, 1)
    assert lie_derivative(rot, omega).is_zero()
    # Euler field doubles it
    euler = parse_poly("x", 2) * basis_t(PLANE, 1) + parse_poly("y", 2) * basis_t(PLANE, 2)
    assert lie_derivative(euler, omega) == 2 * omega


def test_lie_derivative_of_scalar_argument():
    rng = random.Random(41)
    for pair in FAMILIES:
        for _ in range(25):
            a = Tensor.scalar(pair, random_poly(rng, pair.poly_nvars, 2))
            f = random_cotensor(rng, pair, rng.randint(0, 2), 2)
            scal = dict(a.items()).get((), Poly.zero(pair.poly_nvars))
            lhs = lie_derivative(a, f)
            rhs = ce_differential(scal * f) - scal * ce_differential(f)
            assert lhs == rhs


# ---------------------------------------------------------------------------
# odd bracket
# ---------------------------------------------------------------------------

def test_schouten_restricts_to_pair_operations():
    rng = random.Random(43)
    for pair in FAMILIES:
        for _ in range(25):
            x = random_tensor(rng, pair, 1, 2)
            y = random_tensor(rng, pair, 1, 2)
            a = random_poly(rng, pair.poly_nvars, 2)
            b = random_poly(rng, pair.poly_nvars, 2)
            assert schouten(x, y) == lie_bracket(x, y)
            assert schouten(x, Tensor.scalar(pair, a)) == Tensor.scalar(pair, action(x, a))
            assert schouten(Tensor.scalar(pair, a), x) == Tensor.scalar(pair, -action(x, a))
            assert schouten(Tensor.scalar(pair, a), Tensor.scalar(pair, b)).is_zero()


def test_schouten_example_two_vector_against_coordinate():
    f = Tensor.scalar(PLANE, parse_poly("x", 2))
    assert schouten(basis_t(PLANE, 1, 2), f) == -basis_t(PLANE, 2)
    assert schouten(basis_t(PLANE, 1, 2), Tensor.scalar(PLANE, parse_poly("y", 2))) == basis_t(PLANE, 1)


def test_schouten_hand_case():
    x1 = parse_poly("x", 2)
    assert schouten(basis_t(PLANE, 1, 2), x1 * basis_t(PLANE, 1)) == basis_t(PLANE, 1, 2)


def test_schouten_graded_antisymmetry():
    rng = random.Random(47)
    for pair in FAMILIES:
        for _ in range(40):
            p, q = rng.randint(0, 3), rng.randint(0, 3)
            u, v = random_tensor(rng, pair, p, 2), random_tensor(rng, pair, q, 2)
            # [u,v] = -(-1)^((|u|-1)(|v|-1)) [v,u]
            expect = -schouten(v, u) if ((p - 1) * (q - 1)) % 2 == 0 else schouten(v, u)
            assert schouten(u, v) == expect


def test_schouten_right_leibniz_property():
    rng = random.Random(53)
    for pair in FAMILIES:
        for _ in range(30):
            du, dv, dw = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
            u = random_tensor(rng, pair, du, 2)
            v = random_tensor(rng, pair, dv, 2)
            w = random_tensor(rng, pair, dw, 2)
            lhs = schouten(u, v.wedge(w))
            sign = -1 if ((du - 1) * dv) % 2 else 1
            rhs = schouten(u, v).wedge(w) + sign * v.wedge(schouten(u, w))
            assert lhs == rhs


def test_schouten_left_leibniz_property():
    rng = random.Random(57)
    for pair in FAMILIES:
        for _ in range(30):
            du, dv, dw = rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 2)
            u = random_tensor(rng, pair, du, 2)
            v = random_tensor(rng, pair, dv, 2)
            w = random_tensor(rng, pair, dw, 2)
            lhs = schouten(u.wedge(v), w)
            sign = -1 if ((dw - 1) * dv) % 2 else 1
            rhs = u.wedge(schouten(v, w)) + sign * schouten(u, w).wedge(v)
            assert lhs == rhs


def test_schouten_hand_case_bracket_sum():
    p = su2()
    assert schouten(basis_t(p, 1, 2), basis_t(p, 1)) == -basis_t(p, 1, 3)


def test_schouten_hand_case_left_action_sum():
    x, y = parse_poly("x", 2), parse_poly("y", 2)
    assert schouten(x * basis_t(PLANE, 1, 2), y * basis_t(PLANE, 1)) == -y * basis_t(PLANE, 1, 2)


def test_schouten_hand_case_right_action_sum():
    x, y = parse_poly("x", 3), parse_poly("y", 3)
    assert schouten(x * basis_t(SPACE, 1, 2), y * basis_t(SPACE, 3)) == x * basis_t(SPACE, 1, 3)


def test_schouten_degree():
    rng = random.Random(59)
    for pair in FAMILIES:
        for _ in range(20):
            p, q = rng.randint(1, 3), rng.randint(1, 3)
            u, v = random_tensor(rng, pair, p, 2), random_tensor(rng, pair, q, 2)
            br = schouten(u, v)
            assert br.is_zero() or br.grade == p + q - 1


# ---------------------------------------------------------------------------
# higher brackets
# ---------------------------------------------------------------------------

def bruteforce_higher_bracket(k, xs):
    """Oracle: average the summand over all of S_k instead of shuffles."""
    import math
    pair = xs[0].pair
    total = Tensor.zero(pair)
    degs = tuple(x.grade for x in xs)
    for s in itertools.permutations(range(1, k + 1)):
        sign = koszul_sign(s, degs)
        if degs[s[0] - 1] % 2:
            sign = -sign
        inner = schouten(xs[s[1] - 1], xs[s[0] - 1])
        tail = [xs[i - 1] for i in reversed(s[2:])]
        total = total + sign * wedge_list(pair, Tensor, tail).wedge(inner)
    return Fraction(1, 2 * math.factorial(k - 2)) * total


def test_label_brackets_match_the_poly_level_oracle():
    # seeded homogeneous, inhomogeneous and zero arguments on both families,
    # a table that breaks Jacobi and a structure constant of 1/2
    broken = pair_from_json(json.loads((GOLDEN_INPUTS / "broken_su2_pair.json").read_text()))
    half = ConstantPair.from_brackets(2, {(1, 2): {1: Fraction(1, 2), 2: 3}})
    rng = random.Random(103)
    for pair in (PLANE, SPACE, su2(), broken, half):
        top = min(pair.ngens, 3)

        def draw(kind):
            if kind == "zero":
                return Tensor.zero(pair)
            low = random_tensor(rng, pair, rng.randint(0, top), 2)
            if kind == "homogeneous":
                return low
            return low + random_tensor(rng, pair, rng.randint(0, top), 2)

        kinds = ("homogeneous", "inhomogeneous", "zero")
        nonzero = 0
        for _ in range(6):
            for ku, kv in itertools.product(kinds, kinds):
                u, v = draw(ku), draw(kv)
                got = schouten(u, v)
                assert got == schouten_by_terms(u, v)
                nonzero += not got.is_zero()
            for k in (2, 3, 4):
                xs = [draw(rng.choice(kinds[:2])) for _ in range(k)]
                if rng.random() < 0.2:
                    xs[rng.randrange(k)] = Tensor.zero(pair)
                got = higher_bracket(xs)
                assert got == higher_bracket_by_terms(xs)
                nonzero += not got.is_zero()
        assert nonzero, pair
    # a product whose exponent passes MAX_EXPONENT raises, in a Schouten
    # bracket (D_x(x^M) x^2) and in a tail wedge (x @y ^ M x^M)
    big = Poly(2, {(MAX_EXPONENT, 0): 1})
    x = parse_poly("x", 2)
    with pytest.raises(CapExceeded, match="exceeds cap"):
        schouten(big * basis_t(PLANE, 2), x * x * basis_t(PLANE, 1))
    with pytest.raises(CapExceeded, match="exceeds cap"):
        higher_bracket([big * basis_t(PLANE, 2), x * x * basis_t(PLANE, 1)])
    with pytest.raises(CapExceeded, match="exceeds cap"):
        higher_bracket([Tensor.scalar(PLANE, big), x * basis_t(PLANE, 1), x * basis_t(PLANE, 2)])


def test_unary_bracket_is_zero():
    rng = random.Random(61)
    for pair in FAMILIES:
        x = random_tensor(rng, pair, 2, 2)
        assert higher_bracket([x]).is_zero()


def test_binary_bracket_on_vectors_is_the_lie_bracket():
    rng = random.Random(67)
    for pair in FAMILIES:
        for _ in range(25):
            x, y = random_tensor(rng, pair, 1, 2), random_tensor(rng, pair, 1, 2)
            assert higher_bracket([x, y]) == lie_bracket(x, y)
            a = Tensor.scalar(pair, random_poly(rng, pair.poly_nvars, 2))
            assert higher_bracket([a, a]).is_zero()
            # mixed vector/scalar slot reduces to the action
            got = higher_bracket([x, a])
            scal = dict(a.items()).get((), Poly.zero(pair.poly_nvars))
            assert got == Tensor.scalar(pair, action(x, scal))


def test_higher_bracket_matches_symmetrized_oracle():
    rng = random.Random(71)
    for pair in FAMILIES:
        for _ in range(15):
            for k in (2, 3, 4):
                xs = [random_tensor(rng, pair, rng.randint(0, 3), 2, terms=1)
                      for _ in range(k)]
                if any(x.is_zero() for x in xs):
                    continue
                assert higher_bracket(xs) == bruteforce_higher_bracket(k, xs)
    # at the degree bound: Sigma - 1 = ngens is summed, ngens + 1 is skipped
    rng = random.Random(97)
    for pair in FAMILIES:
        at_top = []
        for k in (2, 3, 4):
            for over in (0, 1):
                for _ in range(6):
                    degs = degrees_summing_to(rng, pair.ngens, k, pair.ngens + 1 + over)
                    xs = [random_tensor(rng, pair, d, 2, terms=1) for d in degs]
                    if any(x.is_zero() for x in xs):
                        continue
                    got = higher_bracket(xs)
                    assert got == bruteforce_higher_bracket(k, xs)
                    if not over:
                        at_top.append(got)
        assert any(not b.is_zero() for b in at_top)


def degrees_summing_to(rng, top, k, total):
    """k degrees in 0..top, drawn until they sum to total."""
    while True:
        degs = [rng.randint(0, top) for _ in range(k)]
        if sum(degs) == total:
            return degs


def test_higher_bracket_checks_its_arguments_before_the_degree_skip():
    su, heis = su2(), ConstantPair.from_brackets(3, {(1, 2): {3: 1}})
    top, low = (1, 2, 3), (1,)
    # Sigma - 1 = 4 > 3 skips every tuple; Sigma - 1 = 1 skips none
    for words in ((top, top), (low, low)):
        with pytest.raises(ValueError, match="^bracket across different pairs$"):
            higher_bracket([Tensor.basis(su, words[0]), Tensor.basis(heis, words[1])])
    with pytest.raises(CapExceeded, match="^bracket arity 13 exceeds cap 12$"):
        higher_bracket([Tensor.basis(su, top)] * 13)


def test_higher_bracket_graded_symmetry():
    rng = random.Random(73)
    for pair in FAMILIES:
        for _ in range(15):
            k = rng.randint(2, 4)
            xs = [random_tensor(rng, pair, rng.randint(0, 3), 2, terms=1) for _ in range(k)]
            if any(x.is_zero() for x in xs):
                continue
            degs = tuple(x.grade for x in xs)
            s = tuple(rng.sample(range(1, k + 1), k))
            permuted = [xs[i - 1] for i in s]
            assert higher_bracket(permuted) == koszul_sign(s, degs) * higher_bracket(xs)


def test_higher_bracket_arity_above_the_bound_raises():
    pair = FAMILIES[0]
    xs = [Tensor.zero(pair)] * MAX_BRACKET_ARITY
    assert MAX_BRACKET_ARITY == 12
    assert higher_bracket(xs).is_zero()
    with pytest.raises(CapExceeded, match="^bracket arity 13 exceeds cap 12$"):
        higher_bracket(xs + [Tensor.basis(pair, (1,))])


def test_higher_bracket_degree_drop():
    rng = random.Random(79)
    for pair in FAMILIES:
        xs = [random_tensor(rng, pair, d, 1, terms=1) for d in (1, 2, 3)]
        br = higher_bracket(xs)
        assert br.is_zero() or br.grade == sum(x.grade for x in xs) - 1


def test_weak_jacobi_for_higher_brackets():
    rng = random.Random(83)
    for pair in FAMILIES:
        for arity in (2, 3, 4):
            for _ in range(6):
                xs = [random_tensor(rng, pair, rng.randint(0, 3), 1, terms=1)
                      for _ in range(arity)]
                assert jacobi_residual(TensorLinf(pair), xs).is_zero()


class SummedInFull(TensorLinf):
    """Tensors with no declared top degree: every residual is summed in full."""

    def top_degree(self):
        return None


def test_jacobi_residual_matches_the_full_sum_at_the_top_degree():
    # a table that breaks the Jacobi identity, so that residuals at the top
    # degree are not all zero
    broken = ConstantPair.from_brackets(3, {(1, 2): {2: 1, 3: 1}, (2, 3): {1: 1}, (3, 1): {2: 1}})
    words = [Tensor.basis(broken, w) for d in (1, 2, 3) for w in ascending_words(3, d)]
    nonzero = [0, 0]
    for xs in itertools.combinations_with_replacement(words, 3):
        over = sum(x.grade for x in xs) - 2 - broken.ngens
        if over in (0, 1):
            got = jacobi_residual(TensorLinf(broken), xs)
            assert got == jacobi_residual(SummedInFull(broken), xs)
            nonzero[over] += not got.is_zero()
    assert nonzero[0] and not nonzero[1]
    rng = random.Random(101)
    for k in (3, 4):
        for over in (0, 1):
            for _ in range(3):
                degs = degrees_summing_to(rng, SPACE.ngens, k, SPACE.ngens + 2 + over)
                xs = [random_tensor(rng, SPACE, d, 1, terms=1) for d in degs]
                assert jacobi_residual(TensorLinf(SPACE), xs) == jacobi_residual(
                    SummedInFull(SPACE), xs)


def test_jacobi_residual_checks_homogeneity_before_the_degree_skip():
    pair = su2()
    top = Tensor.basis(pair, (1, 2, 3))
    mixed = top + Tensor.basis(pair, (1,))
    with pytest.raises(ValueError, match="^Jacobi residual needs homogeneous arguments$"):
        jacobi_residual(TensorLinf(pair), [mixed, top, top, top])


# ---------------------------------------------------------------------------
# inclusion components
# ---------------------------------------------------------------------------

def test_natural_inclusion_values():
    rng = random.Random(89)
    p = SPACE
    x1, x2, x3 = (random_tensor(rng, p, 1, 1) for _ in range(3))
    assert natural_inclusion([x1]) == x1
    assert natural_inclusion([x1, x2]) == -x2.wedge(x1)
    assert natural_inclusion([x1, x2, x3]) == 2 * x3.wedge(x2).wedge(x1)
