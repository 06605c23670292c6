import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nplectic.elements import Tensor
from nplectic.pairs import (
    ConstantPair,
    PairMorphismCandidate,
    PolyVectorFieldPair,
    action,
    lie_bracket,
    pair_from_json,
    pair_to_json,
    validate_morphism,
    validate_pair,
)
from nplectic.sampling import random_coeff, random_gvector
from nplectic.scalars import Poly, parse_poly

ROOT = Path(__file__).resolve().parents[1]


def su2():
    # [e1,e2] = e3, [e2,e3] = e1, [e3,e1] = e2
    return ConstantPair.from_brackets(3, {(1, 2): {3: 1}, (2, 3): {1: 1}, (3, 1): {2: 1}})


def heisenberg():
    return ConstantPair.from_brackets(3, {(1, 2): {3: 1}})


def e(pair, i):
    return Tensor.basis(pair, (i,))


# ---------------------------------------------------------------------------
# constant family
# ---------------------------------------------------------------------------

def test_su2_bracket_table():
    p = su2()
    assert lie_bracket(e(p, 1), e(p, 2)) == e(p, 3)
    assert lie_bracket(e(p, 2), e(p, 3)) == e(p, 1)
    assert lie_bracket(e(p, 3), e(p, 1)) == e(p, 2)
    assert lie_bracket(e(p, 2), e(p, 1)) == -e(p, 3)
    assert lie_bracket(e(p, 1), e(p, 1)).is_zero()


def test_constant_action_is_zero():
    p = su2()
    assert action(e(p, 1), Fraction(5)).is_zero()


def test_validate_su2_and_heisenberg_and_abelian():
    for pair in (su2(), heisenberg(), ConstantPair(2)):
        report = validate_pair(pair, samples=25, seed=3)
        assert report.ok, report.failures()


def test_perturbed_su2_fails_jacobi_with_witness():
    broken = ConstantPair.from_brackets(
        3, {(1, 2): {3: 1, 2: 1}, (2, 3): {1: 1}, (3, 1): {2: 1}})
    report = validate_pair(broken, samples=25, seed=3)
    assert not report.ok
    names = [c.name for c in report.failures()]
    assert "jacobi" in names
    jacobi = next(c for c in report.checks if c.name == "jacobi")
    assert "x" in jacobi.details and "residual" in jacobi.details


def test_jacobi_witness_is_the_first_failing_basis_triple():
    # [e1,e2] = e1 and [e3,e4] = e2: e1, e3, e4 is the first triple whose
    # Jacobiator is nonzero, and only the row (3, 4) reaches it
    pair = ConstantPair.from_brackets(4, {(1, 2): {1: 1}, (3, 4): {2: 1}})
    jacobi = next(c for c in validate_pair(pair, samples=1).checks if c.name == "jacobi")
    assert not jacobi.ok
    assert [jacobi.details[k] for k in "xyz"] == [repr(Tensor.basis(pair, (g,)))
                                                  for g in (1, 3, 4)]


def test_broken_pairing_fails_the_nondegeneracy_check(monkeypatch):
    import nplectic.pairs

    # a pairing that swaps the first two dual generators
    def swapped(f, x):
        ((word, _),) = f.items()
        swap = {(1,): (2,), (2,): (1,)}.get(word, word)
        return dict(x.items()).get(swap, Poly.zero(x.pair.poly_nvars))

    monkeypatch.setattr(nplectic.pairs, "pairing", swapped)
    for pair in (su2(), PolyVectorFieldPair(2)):
        report = validate_pair(pair, samples=2, seed=3)
        assert [c.name for c in report.failures()] == ["pairing_nondegenerate"]


def test_structure_constant_normalization():
    p = su2()
    # rows were given as (3,1): {2: 1}; stored canonically as (1,3,2,-1)
    assert (1, 3, 2, Fraction(-1)) in p.brackets
    assert p.bracket_basis(3, 1) == [(2, Fraction(1))]
    assert p.bracket_basis(1, 3) == [(2, Fraction(-1))]


def scanned_bracket(pair, i, j):
    """Oracle for `bracket_basis`: scan the stored rows, sign-folded."""
    if i == j:
        return []
    sign = 1
    if i > j:
        i, j, sign = j, i, -1
    return [(k, c * sign) for (a, b, k, c) in pair.brackets if (a, b) == (i, j)]


def assert_bracket_table_matches_the_scan(pair):
    for i in range(1, pair.dim + 1):
        for j in range(1, pair.dim + 1):
            assert pair.bracket_basis(i, j) == scanned_bracket(pair, i, j)


@pytest.mark.parametrize("path", ["models/heisenberg_pair.json",
                                  "tests/golden/inputs/broken_su2_pair.json"])
def test_bracket_table_agrees_with_a_row_scan(path):
    assert_bracket_table_matches_the_scan(su2())
    pair = pair_from_json(json.loads((ROOT / path).read_text()))
    assert pair.brackets
    assert_bracket_table_matches_the_scan(pair)


@st.composite
def constant_pairs(draw):
    dim = draw(st.integers(1, 4))
    slots = [(i, j, k) for i in range(1, dim + 1) for j in range(i + 1, dim + 1)
             for k in range(1, dim + 1)]
    chosen = draw(st.lists(st.sampled_from(slots), unique=True)) if slots else []
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return ConstantPair(dim, tuple((i, j, k, draw(coeffs)) for i, j, k in chosen))


@settings(max_examples=60, deadline=None)
@given(pair=constant_pairs())
def test_bracket_table_agrees_with_a_row_scan_on_drawn_tables(pair):
    assert_bracket_table_matches_the_scan(pair)


def test_the_bracket_table_is_not_part_of_the_pair_value():
    rows = ((1, 2, 3, Fraction(1)), (1, 3, 2, Fraction(-1)), (2, 3, 1, Fraction(1)))
    a, b = ConstantPair(3, rows), ConstantPair(3, rows[::-1])
    assert a.bracket_basis(2, 1) == [(3, Fraction(-1))]
    assert a == b and hash(a) == hash(b)
    assert a != ConstantPair(3, rows[:2])
    assert repr(a) == f"ConstantPair(dim=3, brackets={rows!r})"


def test_bad_constant_pairs_rejected():
    with pytest.raises(ValueError):
        ConstantPair(2, ((1, 2, 3, Fraction(1)),))  # k out of range
    with pytest.raises(ValueError):
        ConstantPair(3, ((2, 1, 3, Fraction(1)),))  # needs i < j
    with pytest.raises(ValueError):
        ConstantPair(3, ((1, 2, 3, Fraction(1)), (1, 2, 3, Fraction(2))))


# ---------------------------------------------------------------------------
# polynomial family
# ---------------------------------------------------------------------------

def test_vector_field_bracket_example():
    p = PolyVectorFieldPair(2)
    x = Poly.variable(2, 0)
    dx, dy = e(p, 1), e(p, 2)
    assert lie_bracket(dx, x * dy) == dy
    assert lie_bracket(x * dy, dx) == -dy
    assert lie_bracket(dx, dy).is_zero()


@pytest.mark.parametrize("pair, coeff, acting", [
    (su2(), "5", ()),
    (su2(), "0", ()),
    (PolyVectorFieldPair(4), "5", []),
    (PolyVectorFieldPair(4), "x1*x3^2 - 2*x3", [1, 3]),
    (PolyVectorFieldPair(4), "0", []),
], ids=["constant-on-5", "constant-on-0", "poly-on-5", "poly-on-x1-x3", "poly-on-0"])
def test_acting_generators_of_a_coefficient(pair, coeff, acting):
    assert pair.acting(pair.coeff(coeff)) == acting


@settings(max_examples=60, deadline=None)
@given(pair=st.one_of(constant_pairs(), st.integers(1, 4).map(PolyVectorFieldPair)),
       seed=st.integers(0, 2**32 - 1))
def test_acting_is_exactly_the_generators_with_a_nonzero_action(pair, seed):
    c = random_coeff(random.Random(seed), pair)
    assert list(pair.acting(c)) == [g for g in range(1, pair.ngens + 1)
                                    if pair.action_basis(g, c)]


def test_bracket_acts_only_with_the_variables_a_coefficient_holds(monkeypatch):
    # on Q[x1..x1000], [x2 @x1 + @x3, x1*x3 @x2] differentiates x1*x3 by x1
    # and x3, and x2 by x2: the coefficient 1 and the other 997 variables
    # give no action_basis call
    pair = PolyVectorFieldPair(1000)
    v = [Poly.variable(1000, i) for i in range(3)]
    x = v[1] * e(pair, 1) + e(pair, 3)
    y = v[0] * v[2] * e(pair, 2)
    tried = []
    original = PolyVectorFieldPair.action_basis
    monkeypatch.setattr(PolyVectorFieldPair, "action_basis",
                        lambda self, i, a: tried.append(i) or original(self, i, a))
    bracket = lie_bracket(x, y)
    assert sorted(tried) == [1, 2, 3]
    assert bracket == (v[1] * v[2] + v[0]) * e(pair, 2) - v[0] * v[2] * e(pair, 1)


@settings(max_examples=60, deadline=None)
@given(pair=st.one_of(constant_pairs(), st.integers(1, 4).map(PolyVectorFieldPair)),
       seed=st.integers(0, 2**32 - 1))
def test_bracket_is_the_formula_summed_over_every_term_pair(pair, seed):
    # [a e_i, b e_j] = a D_i(b) e_j - b D_j(a) e_i + a b [e_i, e_j]
    rng = random.Random(seed)
    x, y = random_gvector(rng, pair, 2), random_gvector(rng, pair, 2)
    expected = Tensor.zero(pair)
    for (i,), a in x.items():
        for (j,), b in y.items():
            expected = (expected + a * pair.action_basis(i, b) * e(pair, j)
                        - b * pair.action_basis(j, a) * e(pair, i))
            for k, c in pair.bracket_basis(i, j):
                expected = expected + (a * b * c) * e(pair, k)
    assert lie_bracket(x, y) == expected


def test_action_example():
    p = PolyVectorFieldPair(2)
    x = Poly.variable(2, 0)
    assert action(e(p, 1), x * x) == 2 * x
    assert action(e(p, 2), x * x).is_zero()


def test_pair_operations_refuse_wrong_coefficients_and_non_vectors():
    p = PolyVectorFieldPair(2)
    with pytest.raises(ValueError, match="coefficient in 3 variables over"):
        p.coeff(Poly.variable(3, 0))
    bivector = Tensor.basis(p, (1, 2))
    for op in (lambda: lie_bracket(bivector, e(p, 1)), lambda: action(bivector, "x")):
        with pytest.raises(ValueError, match="expected a degree-one tensor"):
            op()


def test_validate_poly_pairs():
    for m in (1, 2, 3):
        report = validate_pair(PolyVectorFieldPair(m), samples=25, seed=11)
        assert report.ok, report.failures()


def test_leibniz_rule_directly():
    rng = random.Random(2)
    p = PolyVectorFieldPair(3)
    for _ in range(50):
        x, y = random_gvector(rng, p), random_gvector(rng, p)
        a = random_coeff(rng, p)
        assert lie_bracket(x, a * y) == action(x, a) * y + a * lie_bracket(x, y)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_pair_json_roundtrip_bit_exact():
    for pair in (su2(), heisenberg(), PolyVectorFieldPair(2),
                 ConstantPair.from_brackets(2, {(1, 2): {1: "-1/2", 2: "3"}})):
        blob = json.dumps(pair_to_json(pair), sort_keys=True)
        again = pair_from_json(json.loads(blob))
        assert again == pair
        assert json.dumps(pair_to_json(again), sort_keys=True) == blob


def test_var_names_is_not_a_field_of_constant_pairs():
    with pytest.raises(TypeError):
        ConstantPair(3, (), ("x",))
    model = pair_from_json(json.loads((ROOT / "models/heisenberg_pair.json").read_text()))
    for pair in (su2(), model, PolyVectorFieldPair(2)):
        assert not hasattr(pair, "var_names")
        assert pair_from_json(pair_to_json(pair)) == pair
        assert "var_names" not in repr(pair)


def test_element_json_roundtrip():
    p = PolyVectorFieldPair(2)
    t = Tensor(p, [((2, 1), "x - 1/2"), ((1,), "y^2")])
    data = t.to_json()
    assert Tensor.from_json(p, data) == t
    # canonical: words ascending, so the (2,1) input shows up as (1,2) negated
    assert data == [[[1], "y^2"], [[1, 2], "-x + 1/2"]]


# ---------------------------------------------------------------------------
# morphisms
# ---------------------------------------------------------------------------

def test_identity_morphism_passes():
    p = su2()
    cand = PairMorphismCandidate(p, p, (), tuple(e(p, i) for i in (1, 2, 3)))
    report = validate_morphism(cand, samples=20, seed=5)
    assert report.ok, report.failures()


def test_su2_swap_fails_with_witness():
    p = su2()
    cand = PairMorphismCandidate(p, p, (), (e(p, 2), e(p, 1), e(p, 3)))
    report = validate_morphism(cand, samples=20, seed=5)
    assert not report.ok
    glie = next(c for c in report.checks if c.name == "g_lie_morphism")
    assert not glie.ok
    assert "g_of_bracket" in glie.details


def test_poly_rescaling_morphism():
    p = PolyVectorFieldPair(1)
    two_x = parse_poly("2*x", 1)
    good = PairMorphismCandidate(p, p, (two_x,), (Fraction(1, 2) * e(p, 1),))
    assert validate_morphism(good, samples=20, seed=7).ok
    bad = PairMorphismCandidate(p, p, (two_x,), (e(p, 1),))
    report = validate_morphism(bad, samples=20, seed=7)
    assert not report.ok
    assert any(c.name == "action_compat" and not c.ok for c in report.checks)


def test_cross_family_morphism():
    # abelian 1-dim constant pair into the line, e1 -> d/dx
    dom = ConstantPair(1)
    cod = PolyVectorFieldPair(1)
    cand = PairMorphismCandidate(dom, cod, (), (e(cod, 1),))
    assert validate_morphism(cand, samples=20, seed=9).ok


def test_morphism_candidate_checks_its_images():
    line, plane = PolyVectorFieldPair(1), PolyVectorFieldPair(2)
    x = parse_poly("x", 2)
    good = ((x,), (e(plane, 1),))
    cases = [
        (((), good[1]), "need one ring image per domain variable"),
        ((good[0], ()), "need one module image per domain generator"),
        (((parse_poly("x", 1),), good[1]), "ring images live in the wrong ring"),
        ((good[0], (e(line, 1),)), "module images live over the wrong pair"),
        ((good[0], (Tensor.basis(plane, (1, 2)),)), "module images must be degree-one tensors"),
    ]
    assert PairMorphismCandidate(line, plane, *good).apply_f(parse_poly("x", 1)) == x
    for (f_images, g_images), message in cases:
        with pytest.raises(ValueError, match=message):
            PairMorphismCandidate(line, plane, f_images, g_images)


def test_morphism_json_roundtrip():
    p = su2()
    cand = PairMorphismCandidate(p, p, (), (e(p, 2), e(p, 1), e(p, 3)))
    blob = json.dumps(cand.to_json(), sort_keys=True)
    again = PairMorphismCandidate.from_json(json.loads(blob))
    assert json.dumps(again.to_json(), sort_keys=True) == blob
