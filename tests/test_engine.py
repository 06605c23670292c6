"""n-plectic structures, Hamiltonian potentials and the extension complex."""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from nplectic import engine
from nplectic.calculus import ce_differential, contract, higher_bracket, lie_derivative
from nplectic.cohomology import CohomClass, class_of, poisson_bracket
from nplectic.elements import Cotensor, Tensor, label_element, wedge_list
from nplectic.engine import (
    DegreeError,
    ExtensionElement,
    MAX_SLICE_DIM,
    NotClosedError,
    NPlecticStructure,
    contract_reversed_wedge,
    coords_vector,
    d_omega,
    extension_bracket,
    fundamental_pairing_check,
    hamiltonian_potential,
    is_symplectic,
    kernel_basis,
    label_contraction,
    label_vector,
    monomials_exact,
    reduce_mod_kernel,
    slice_basis,
    structure_from_json,
    symplectic_basis,
    symplectic_bracket,
    symplectic_slice,
    weighted_bracket,
)
from nplectic.identities import random_symplectic
from nplectic.linalg import null_space
from nplectic.linf import ExtensionLinf, jacobi_residual
from nplectic.pairs import ConstantPair, PolyVectorFieldPair
from nplectic.sampling import DRAW_DEN, random_cotensor, random_numerator, random_tensor
from nplectic.scalars import (
    MAX_EXPONENT,
    CapExceeded,
    Poly,
    bell,
    monomial_exponents,
    monomial_key,
)
from conftest import basis_elements, kernel_by_null_space, reduce_mod_kernel_by_parts
from test_sampling import checked_symplectic

PLANE = PolyVectorFieldPair(2)
SPACE = PolyVectorFieldPair(3)


def su2():
    return ConstantPair.from_brackets(
        3, {(1, 2): {3: 1}, (2, 3): {1: 1}, (3, 1): {2: 1}})


def plane_structure():
    return NPlecticStructure(PLANE, 1, Cotensor(PLANE, {(1, 2): 1}))


def su2_cartan():
    pair = su2()
    return NPlecticStructure(pair, 2, Cotensor(pair, {(1, 2, 3): 1}))


def degenerate_structure():
    """dx ^ dy as a 1-plectic form on three variables; @z sits in the kernel."""
    return NPlecticStructure(SPACE, 1, Cotensor(SPACE, {(1, 2): 1}))


def tensor(pair, *terms):
    return Tensor(pair, list(terms))


def tensor_element(s, x):
    """(0, x) through the checked constructor."""
    return ExtensionElement(s, Cotensor.zero(s.pair), x)


def structures():
    return [plane_structure(), su2_cartan()]


def heisenberg_area():
    """omega = e^12 over the Heisenberg pair [e1, e2] = e3; e3 sits in the kernel."""
    pair = ConstantPair.from_brackets(3, {(1, 2): {3: 1}})
    return NPlecticStructure(pair, 1, Cotensor(pair, {(1, 2): 1}))


def poly4_structure():
    """omega = dx1^dx2 + 1/2 dx3^dx4 on Q[x1..x4]."""
    pair = PolyVectorFieldPair(4)
    return NPlecticStructure(pair, 1, Cotensor(pair, {(1, 2): 1, (3, 4): "1/2"}))


# -- validation ---------------------------------------------------------------


def test_structure_accepts_the_plane():
    s = plane_structure()
    assert s.n == 1
    assert s.omega.grade == -2


def test_structure_rejects_wrong_degree():
    with pytest.raises(DegreeError):
        NPlecticStructure(PLANE, 2, Cotensor(PLANE, {(1, 2): 1}))


def test_structure_rejects_degree_below_one():
    with pytest.raises(DegreeError):
        NPlecticStructure(PLANE, 0, Cotensor(PLANE, {(1,): 1}))


def test_structure_rejects_mixed_degree():
    with pytest.raises(DegreeError):
        NPlecticStructure(PLANE, 1, Cotensor(PLANE, {(1, 2): 1, (1,): 1}))


def test_structure_rejects_non_closed_with_residual():
    omega = Cotensor(SPACE, {(1, 2): "z"})
    with pytest.raises(NotClosedError) as exc:
        NPlecticStructure(SPACE, 1, omega)
    assert exc.value.residual == Cotensor(SPACE, {(1, 2, 3): 1})


def test_structure_and_extension_element_refuse_a_cotensor_over_another_pair():
    with pytest.raises(ValueError, match="omega lives over a different pair"):
        NPlecticStructure(PLANE, 1, Cotensor(SPACE, {(1, 2): 1}))
    with pytest.raises(ValueError, match="cotensor lives over a different pair"):
        ExtensionElement(plane_structure(), Cotensor(SPACE, {(1,): 1}), Tensor.zero(PLANE))


def test_structure_json_roundtrip():
    for s in structures():
        again = structure_from_json(s.to_json())
        assert again == s


# -- symplectic tensors ---------------------------------------------------------


@pytest.mark.parametrize("nvars", range(5))
def test_monomials_match_a_brute_force_enumeration(nvars):
    for degree in range(-2, 5):
        box = list(itertools.product(range(max(degree, 0) + 1), repeat=nvars))
        assert ([monomial_exponents(e, nvars) for e in monomials_exact(nvars, degree)]
                == sorted(e for e in box if sum(e) == degree))
        window = range(-1, degree + 1)
        labels = slice_basis(PolyVectorFieldPair(nvars), 1, window) if nvars else []
        assert labels == [((g,), monomial_key(e)) for g in range(1, nvars + 1)
                          for e in sorted(e for e in box if sum(e) <= degree)]


def stars_and_bars(nvars, degree):
    """Oracle: the exponent tuples of one total degree, by the gaps between
    nvars - 1 ascending cuts of 0..degree, in lexicographic order."""
    if nvars == 0:
        return [()] if degree == 0 else []
    return [tuple(b - a for a, b in zip((0, *cuts), (*cuts, degree)))
            for cuts in itertools.combinations_with_replacement(range(degree + 1), nvars - 1)]


def test_monomials_of_a_high_degree_are_the_exponent_tuple_keys():
    """Keys are packed from their exponents, so a high degree costs no
    more per key than a low one."""
    assert monomials_exact(2, 4990) == [monomial_key((i, 4990 - i)) for i in range(4991)]
    assert monomials_exact(3, 60) == [monomial_key(e) for e in stars_and_bars(3, 60)]


@pytest.mark.parametrize("nvars", range(7))
def test_monomial_and_slice_lists_are_the_exponent_tuple_lists(nvars):
    """The key lists unpack to the exponent-tuple lists, in the same order,
    for every degree 0..7 and every window inside it."""
    tuples = {d: stars_and_bars(nvars, d) for d in range(8)}
    for degree in range(8):
        keys = monomials_exact(nvars, degree)
        assert [monomial_exponents(e, nvars) for e in keys] == tuples[degree]
        assert keys == sorted(keys) == [monomial_key(e) for e in tuples[degree]]
    if not nvars:
        return  # a polynomial pair has at least one variable
    pair = PolyVectorFieldPair(nvars)
    for lo, hi in ((0, 0), (0, 3), (2, 5), (7, 7)):
        monos = sorted(e for d in range(lo, hi + 1) for e in tuples[d])
        for word_len in range(min(nvars, 2) + 1):
            try:
                labels = slice_basis(pair, word_len, range(lo, hi + 1))
            except CapExceeded:
                continue
            assert [(w, monomial_exponents(e, nvars)) for w, e in labels] == [
                (w, e) for w in itertools.combinations(range(1, nvars + 1), word_len)
                for e in monos]


def test_slice_basis_refuses_a_slice_past_the_cap(monkeypatch):
    from nplectic import engine

    at_cap = MAX_SLICE_DIM // 2 - 1  # MAX_SLICE_DIM / 2 monomials
    assert len(slice_basis(PLANE, 1, at_cap)) == MAX_SLICE_DIM
    with pytest.raises(CapExceeded, match=f"has {MAX_SLICE_DIM + 2} basis elements"):
        slice_basis(PLANE, 1, at_cap + 1)
    with pytest.raises(CapExceeded):
        slice_basis(PolyVectorFieldPair(40), 2, 2)  # 780 x 820
    monkeypatch.setattr(engine, "MAX_SLICE_DIM", 7)
    with pytest.raises(CapExceeded, match="has 12 basis elements, more than 7"):
        slice_basis(PLANE, 1, range(3))  # 2 x (1 + 2 + 3) labels over the window


def test_slice_basis_counts_before_it_enumerates():
    # 2 x C(10**6 + 2, 2) labels: counted, never built
    with pytest.raises(CapExceeded, match="has 1000003000002 basis elements"):
        slice_basis(PLANE, 1, range(10 ** 6 + 1))
    assert slice_basis(PLANE, -1, 10 ** 6) == slice_basis(PLANE, 3, 10 ** 6) == []
    assert slice_basis(su2(), 1, 10 ** 6) == []  # constants have no degree above zero


def test_plane_symplectic_iff_divergence_free():
    s = plane_structure()
    assert is_symplectic(tensor(PLANE, ((2,), "x")), s)
    assert is_symplectic(tensor(PLANE, ((1,), "x"), ((2,), "-y")), s)
    assert not is_symplectic(tensor(PLANE, ((1,), "x")), s)


def test_plane_symplectic_basis_dimension():
    # within poly degree <= 1 the divergence cuts one dimension out of six
    basis = symplectic_basis(plane_structure(), 1, max_poly_degree=1)
    assert len(basis) == 5
    s = plane_structure()
    assert all(is_symplectic(x, s) for x in basis)


def test_su2_cartan_symplectic_slices():
    s = su2_cartan()
    assert len(symplectic_basis(s, 0)) == 1
    assert len(symplectic_basis(s, 1)) == 3
    assert symplectic_basis(s, 2) == []
    assert len(symplectic_basis(s, 3)) == 1


LABEL_CASES = [plane_structure, degenerate_structure, su2_cartan, poly4_structure]
LABEL_IDS = ["plane", "degenerate-plane", "su2-cartan", "poly-4"]


@pytest.mark.parametrize("make", LABEL_CASES, ids=LABEL_IDS)
def test_the_label_symplectic_test_is_d_of_the_contraction(make):
    s = make()
    rng = random.Random(17)
    top = min(3, s.pair.ngens)
    verdicts = []
    for _ in range(60):
        x = random_symplectic(rng, s, rng.randint(0, top))
        if rng.random() < 0.5:
            x = x + random_tensor(rng, s.pair, rng.randint(0, top), max_degree=2)
        verdict = is_symplectic(x, s)
        assert verdict == ce_differential(contract(x, s.omega)).is_zero()
        verdicts.append(verdict)
    assert set(verdicts) == {True, False}


def kernel_cases(s, rng):
    """Zero, then seeded tensors of one wedge degree and of mixed degrees."""
    top = s.pair.ngens
    yield Tensor.zero(s.pair)
    for _ in range(20):
        yield random_tensor(rng, s.pair, rng.randint(0, top), max_degree=2)
        yield sum((random_tensor(rng, s.pair, d, max_degree=2)
                   for d in rng.sample(range(top + 1), 2)), Tensor.zero(s.pair))


@pytest.mark.parametrize("make", LABEL_CASES + [heisenberg_area],
                         ids=LABEL_IDS + ["heisenberg-e12"])
def test_reduce_mod_kernel_matches_the_tensor_level_loop(make):
    s = make()
    kernel_free = make in (plane_structure, su2_cartan)
    moved = 0
    for x in kernel_cases(s, random.Random(23)):
        got = reduce_mod_kernel(s, x)
        assert got == reduce_mod_kernel_by_parts(s, x)
        moved += got != x
        if kernel_free:  # no window has rank above 0
            assert got is x
    # a 2-form on Q[x1..x4] has every tensor of wedge degree 3 or 4 in its kernel
    assert bool(moved) != kernel_free


@pytest.mark.parametrize("make", [degenerate_structure, heisenberg_area],
                         ids=["degenerate-plane", "heisenberg-e12"])
def test_a_residue_absorbs_every_kernel_element(make):
    s = make()
    rng = random.Random(29)
    absorbed = 0
    for degree in range(s.pair.ngens + 1):
        for window in range(3):
            kernel = kernel_basis(s, degree, window)
            xs = [Tensor.zero(s.pair)] + [random_tensor(rng, s.pair, degree, max_degree=2)
                                          for _ in range(3)]
            for x in xs:
                residue = reduce_mod_kernel(s, x)
                for k in kernel:
                    assert reduce_mod_kernel(s, x + k) == residue
                    absorbed += 1
    assert absorbed


def test_kernel_trivial_on_the_plane():
    assert kernel_basis(plane_structure(), 1, max_poly_degree=2) == []


def test_kernel_of_degenerate_form():
    basis = kernel_basis(degenerate_structure(), 1, max_poly_degree=0)
    assert basis == [Tensor.basis(SPACE, (3,))]


def test_reduce_mod_kernel_drops_kernel_directions():
    s = degenerate_structure()
    x = tensor(SPACE, ((1,), 1), ((3,), "z"))
    assert reduce_mod_kernel(s, x) == Tensor.basis(SPACE, (1,))
    a = tensor_element(s, tensor(SPACE, ((1,), 1), ((3,), "x*z")))
    b = tensor_element(s, Tensor.basis(SPACE, (1,)))
    assert a == b


def test_representatives_do_not_depend_on_the_window():
    # the kernel direction @y - x@z leaves the window of @y
    s = NPlecticStructure(SPACE, 1, Cotensor(SPACE, [((1, 3), 1), ((1, 2), "x")]))
    a = tensor_element(s, tensor(SPACE, ((2,), 1)))
    b = tensor_element(s, tensor(SPACE, ((3,), "x")))
    assert (a - b).is_zero()
    assert a == b


COEFFS = ["0", "1", "x", "y", "z", "x*y", "y^2", "x*z", "z^2", "x^2*y", "y*z^2"]
ALPHAS = st.lists(st.sampled_from(COEFFS), min_size=3, max_size=3)


def mixed_structure(alpha):
    """omega = dx^dz + d alpha: closed, with coefficients of mixed degrees."""
    alpha = Cotensor(SPACE, [((i,), c) for i, c in enumerate(alpha, start=1)])
    omega = Cotensor(SPACE, {(1, 3): 1}) + ce_differential(alpha)
    return NPlecticStructure(SPACE, 1, omega)


@settings(max_examples=15, deadline=None)
@given(alpha=ALPHAS, data=st.data())
def test_representatives_absorb_kernel_elements_from_larger_windows(alpha, data):
    s = mixed_structure(alpha)
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    degree = data.draw(st.integers(1, 2))
    x_window = data.draw(st.integers(0, 1))
    k_window = data.draw(st.integers(x_window + 1, 3))
    x = Tensor.zero(SPACE)
    for b in symplectic_basis(s, degree, x_window):
        x = x + Fraction(random_numerator(rng), DRAW_DEN) * b
    k = Tensor.zero(SPACE)
    for b in kernel_basis(s, degree, k_window):
        k = k + Fraction(random_numerator(rng), DRAW_DEN) * b
    assert reduce_mod_kernel(s, x) == reduce_mod_kernel(s, x + k)


@settings(max_examples=15, deadline=None)
@given(alpha=ALPHAS, data=st.data())
def test_sums_of_residues_from_different_windows_are_residues(alpha, data):
    s = mixed_structure(alpha)
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    a_window = data.draw(st.integers(0, 1))
    b_window = data.draw(st.integers(a_window + 1, 2))
    xa = checked_symplectic(rng, s, data.draw(st.integers(1, 2)), a_window)
    xb = checked_symplectic(rng, s, data.draw(st.integers(1, 2)), b_window)
    fa, fb = (random_cotensor(rng, s.pair, s.n - 1, max_degree=2) for _ in "ab")
    c = Fraction(random_numerator(rng), DRAW_DEN)
    ea, eb = ExtensionElement(s, fa, xa), ExtensionElement(s, fb, xb)
    a, b = ea.x, eb.x
    assert reduce_mod_kernel(s, a + c * b) == a + c * b
    # the unchecked arithmetic agrees with the checked constructor
    assert ea + c * eb == ExtensionElement(s, fa + c * fb, xa + c * xb)
    assert ea - eb == ExtensionElement(s, fa - fb, xa - xb)
    assert -ea == ExtensionElement(s, -fa, -xa)
    assert eb * c == ExtensionElement(s, c * fb, c * xb)


@settings(max_examples=15, deadline=None)
@given(alpha=ALPHAS, degree=st.integers(0, 3), window=st.integers(0, 2))
def test_symplectic_slice_images_are_the_contractions(alpha, degree, window):
    # the images i_x omega of the symplectic basis, by `contract`, span what
    # a Quotient's relations (d c, c) span from the contractions c of the
    # labels: the part of their span that d kills
    s = mixed_structure(alpha)
    labels, null = symplectic_slice(s, degree, range(window + 1))
    images = []
    for vec in null:
        x = label_element(s.pair, Tensor, *coords_vector(labels, *vec))
        assert is_symplectic(x, s)
        images.append(label_vector(contract(x, s.omega)))
    contractions = [label_contraction(s, w, e) for w, e in labels] if degree <= s.n + 1 else []
    targets = {lab for nums, _ in contractions + images for lab in nums}
    relations = []
    for nums, _ in contractions:  # the rows [d C | C] for C = nums over 1
        dnums, dden = label_vector(ce_differential(label_element(s.pair, Cotensor, nums, 1)))
        relations.append((dnums, {lab: c * dden for lab, c in nums.items()}))
    closed = engine.Quotient(s.pair, targets, relations=relations)
    assert closed.ranks[0] == engine.Quotient(s.pair, targets, images).ranks[1]
    assert all(closed.residue(*image) == ({}, 1) for image in images)


def contracted_slice(s, degree, degrees):
    """Oracle for `symplectic_slice`: every slice basis tensor contracted
    into omega, at every degree."""
    labels = slice_basis(s.pair, degree, degrees)
    contractions = [contract(x, s.omega) for x in basis_elements(s.pair, Tensor, labels)]
    rows = engine.matrix_of([label_vector(ce_differential(c)) for c in contractions])
    return labels, null_space(rows, len(labels))


MODELS = Path(__file__).resolve().parents[1] / "models"


@pytest.mark.parametrize("s", [
    NPlecticStructure(PolyVectorFieldPair(4), 1,
                      Cotensor(PolyVectorFieldPair(4), {(1, 2): 1, (3, 4): 1})),
    structure_from_json(json.loads((MODELS / "degenerate_plane.json").read_text())),
    NPlecticStructure(PolyVectorFieldPair(4), 1, Cotensor.zero(PolyVectorFieldPair(4))),
], ids=["poly4", "degenerate-plane", "omega-zero"])
def test_slices_above_the_form_degree_match_the_contracted_path(s, monkeypatch):
    contractions = []
    monkeypatch.setattr(engine, "contract", lambda x, f: contractions.append(x) or contract(x, f))
    skipped = 0
    for degree in range(s.pair.ngens + 2):
        for window in (range(1), range(2), range(1, 3)):
            contractions.clear()
            assert symplectic_slice(s, degree, window) == contracted_slice(s, degree, window)
            if degree > s.n + 1:
                assert not contractions
                skipped += bool(slice_basis(s.pair, degree, window))
    assert skipped


@pytest.mark.parametrize("make", [
    plane_structure, su2_cartan, degenerate_structure,
    lambda: NPlecticStructure(PLANE, 1, Cotensor(PLANE, {(1, 2): "1/3 + x^2*y"})),
    lambda: mixed_structure(["x*y", "y*z^2", "x^2*y"]),
], ids=["plane", "su2", "degenerate-plane", "plane-poly-omega", "space-mixed-omega"])
def test_label_contraction_is_contract_on_unit_tensors(make):
    s = make()
    window = range(3) if s.pair.poly_nvars else 0
    nonzero = 0
    for degree in range(s.pair.ngens + 1):
        labels = slice_basis(s.pair, degree, window)
        for (w, e), x in zip(labels, basis_elements(s.pair, Tensor, labels)):
            expected = label_vector(contract(x, s.omega))
            assert label_contraction(s, w, e) == expected
            assert label_contraction(s, w, 0) == label_vector(
                contract(Tensor.basis(s.pair, w), s.omega))
            nonzero += bool(expected[0])
    assert nonzero


def test_label_contraction_past_the_exponent_cap_raises():
    s = NPlecticStructure(PLANE, 1, Cotensor(PLANE, {(1, 2): "1/3 + x^2*y"}))
    # i_{x^a @x} omega = x^a (1/3 + x^2 y) dy: x^(a + 2) passes the cap first
    edge = monomial_key((MAX_EXPONENT - 2, 0))
    assert label_contraction(s, (1,), edge) == label_vector(
        contract(Tensor(PLANE, {(1,): Poly(2, {(MAX_EXPONENT - 2, 0): 1})}), s.omega))
    over = monomial_key((MAX_EXPONENT - 1, 0))
    with pytest.raises(CapExceeded, match="exceeds cap"):
        label_contraction(s, (1,), over)
    with pytest.raises(CapExceeded, match="exceeds cap"):  # as the element path does
        contract(Tensor(PLANE, {(1,): Poly(2, {(MAX_EXPONENT - 1, 0): 1})}), s.omega)
    # a constant omega only moves the key it is given
    flat = plane_structure()
    top = monomial_key((MAX_EXPONENT, MAX_EXPONENT))
    assert label_contraction(flat, (1,), top) == ({((2,), top): 1}, 1)


@pytest.mark.parametrize("s", [
    structure_from_json(json.loads((MODELS / "degenerate_plane.json").read_text())),
    heisenberg_area(),
], ids=["degenerate-plane", "heisenberg-e12"])
def test_contraction_kernel_is_an_ideal_for_brackets_and_wedges(s):
    # ExtensionLinf.composite hands the outer bracket an unreduced inner
    # tensor: a kernel argument k must give a bracket and a wedge that
    # contract omega to zero, so x + k and x give the same weighted bracket
    rng = random.Random(23)
    grades = [g for g in range(s.pair.ngens + 1) if symplectic_basis(s, g, max_poly_degree=1)]
    nonzero = {"bracket": 0, "wedge": 0, "shifted": 0}
    for degree in range(1, s.n + 2):
        kernel = kernel_basis(s, degree, max_poly_degree=1)
        assert kernel
        for _ in range(8):
            k = Tensor(s.pair, [(w, c.scale(Fraction(random_numerator(rng), DRAW_DEN)))
                                for b in kernel if rng.random() < 0.6
                                for w, c in b.items()])
            if k.is_zero():
                continue
            for arity in (2, 3):
                ys = [checked_symplectic(rng, s, rng.choice(grades), 1) for _ in range(arity - 1)]
                pos = rng.randrange(arity)
                xs = ys[:pos] + [k] + ys[pos:]
                bracket = higher_bracket(xs)
                assert contract(bracket, s.omega).is_zero()
                assert contract_reversed_wedge(s, xs).is_zero()
                nonzero["bracket"] += not bracket.is_zero()
                nonzero["wedge"] += not wedge_list(s.pair, Tensor, xs).is_zero()
                x = higher_bracket([checked_symplectic(rng, s, g, 1) for g in (1, 1)])
                if x.grade == degree:
                    assert weighted_bracket(s, [x + k] + ys) == weighted_bracket(s, [x] + ys)
                    nonzero["shifted"] += not weighted_bracket(s, [x] + ys).is_zero()
    assert nonzero["wedge"]
    if s.pair.family == "poly":
        assert nonzero["bracket"] and nonzero["shifted"]


def test_extension_elements_scale_by_rationals_only():
    s = plane_structure()
    e = hamiltonian_element(s, {(): "x"}, {(2,): -1})
    assert e * "1/2" == Fraction(1, 2) * e == hamiltonian_element(s, {(): "1/2*x"}, {(2,): "-1/2"})
    y = PLANE.coeff("y")  # -y @y is not symplectic: its divergence is -1
    with pytest.raises(TypeError):
        e * y
    with pytest.raises(TypeError):
        y * e


@pytest.fixture
def kernel_builds(monkeypatch):
    """(structure, degree, window) of every kernel window built in a
    structure's derived store."""
    built = []
    derived = NPlecticStructure.derived

    def counting(self, key, build):
        def counted():
            if key[0] == "kernel":
                built.append((self, *key[1:]))
            return build()
        return derived(self, key, counted)

    monkeypatch.setattr(NPlecticStructure, "derived", counting)
    return built


def test_reduce_mod_kernel_builds_each_kernel_quotient_once(kernel_builds):
    s = degenerate_structure()
    x = tensor(SPACE, ((1,), "x"), ((3,), "y"))
    for _ in range(3):
        assert reduce_mod_kernel(s, x) == tensor(SPACE, ((1,), "x"))
    reduce_mod_kernel(s, tensor(SPACE, ((1, 2), "z")))
    assert [(degree, pd) for _, degree, pd in kernel_builds] == [(1, 1), (2, 1)]


def test_a_kernel_window_is_built_from_labels(monkeypatch):
    # the window's span is read off the relations of its labels: no Tensor
    # is made, and its slice is listed once
    from nplectic import elements

    s = degenerate_structure()
    for word, key in slice_basis(SPACE, 1, 0):
        label_contraction(s, word, key)  # omega's tables contract unit tensors
    made, listed, windows = [], [], []
    derived, listing = NPlecticStructure.derived, engine.slice_basis
    init = elements._Element.__init__

    def counting_derived(self, key, build):
        def counted():
            before = len(made), len(listed)
            value = build()
            windows.append((key, len(made) - before[0], len(listed) - before[1]))
            return value
        return derived(self, key, counted)

    def counting_listing(*args):
        listed.append(args)
        return listing(*args)

    def counting_init(self, *args, **kwargs):
        made.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(NPlecticStructure, "derived", counting_derived)
    monkeypatch.setattr(engine, "slice_basis", counting_listing)
    monkeypatch.setattr(elements._Element, "__init__", counting_init)
    x = tensor(SPACE, ((1,), "x"), ((3,), "z"), ((3,), "y"))
    assert reduce_mod_kernel(s, x) == tensor(SPACE, ((1,), "x"))
    assert windows == [(("kernel", 1, 1), 0, 1)]
    assert s.derived(("kernel", 1, 1), lambda: pytest.fail("window not built")).echelon.rank == 4


def test_a_kernel_quotient_is_one_elimination(monkeypatch):
    # the relations (c_x, x) go straight into one restricted span: no
    # matrix, no null space, no back-substitution, one Echelon per window
    from nplectic import linalg

    def refused(*args, **kwargs):
        raise AssertionError("a matrix or null space while a kernel window is built")

    echelons = []
    init = linalg.Echelon.__init__

    def counting(self):
        echelons.append(self)
        init(self)

    for module, name in ((engine, "matrix_of"), (engine, "null_space"),
                         (linalg, "null_space"), (linalg, "rref")):
        monkeypatch.setattr(module, name, refused)
    monkeypatch.setattr(linalg.Echelon, "__init__", counting)
    rng = random.Random(33)
    ranks = 0
    for s in (degenerate_structure(), heisenberg_area(), poly4_structure()):
        for degree in range(s.pair.ngens + 1):
            for window in range(3):
                echelons.clear()
                basis = kernel_basis(s, degree, window)
                kernel = s.derived(("kernel", degree, window), lambda: pytest.fail("not built"))
                assert echelons == [kernel.echelon] and len(basis) == kernel.echelon.rank
                x = random_tensor(rng, s.pair, degree, max_degree=window)
                reduce_mod_kernel(s, x)
                ranks += len(basis)
    assert ranks


@pytest.mark.parametrize("make", [degenerate_structure, heisenberg_area, poly4_structure],
                         ids=["degenerate-plane", "heisenberg-e12", "poly4"])
def test_kernel_basis_spans_the_null_space_of_the_contractions(make):
    # the echelon rows of the kernel quotient and the null space of the
    # window's contraction matrix span the same space
    s = make()
    found = 0
    for degree in range(s.pair.ngens + 1):
        for window in range(3):
            labels, oracle = kernel_by_null_space(s, degree, window)
            basis = [label_vector(b) for b in kernel_basis(s, degree, window)]
            assert len(basis) == len(oracle)
            assert engine.Quotient(s.pair, labels, basis).ranks[1] == len(basis)
            spanned = engine.Quotient(s.pair, labels, oracle)
            assert all(spanned.residue(*vec) == ({}, 1) for vec in basis)
            found += len(basis)
    assert found


def test_a_window_with_a_kernel_still_reduces_it_away():
    s = degenerate_structure()
    x = tensor(SPACE, ((1,), "x"), ((3,), "z"), ((3,), "y"))
    assert reduce_mod_kernel(s, x) == tensor(SPACE, ((1,), "x"))
    window = s.derived(("kernel", 1, 1), lambda: pytest.fail("window not built"))
    assert window.echelon.rank == 4  # @z, x@z, y@z, z@z
    assert reduce_mod_kernel(s, Tensor.basis(SPACE, (3,))).is_zero()
    assert s.derived(("kernel", 1, 0), lambda: pytest.fail("window not built")).echelon.rank == 1
    # the plane's windows have rank 0, and their parts come back as they are
    plane = plane_structure()
    y = tensor(PLANE, ((1,), "x"), ((1, 2), "y^2"))
    assert reduce_mod_kernel(plane, y) == y


def test_equal_structures_do_not_share_derived_state(kernel_builds):
    a, b = degenerate_structure(), degenerate_structure()
    x = tensor(SPACE, ((3,), "z"))
    for s in (a, a, b):
        assert reduce_mod_kernel(s, x).is_zero()
    assert [s for s, _, _ in kernel_builds] == [a, b]
    assert kernel_builds[0][0] is a and kernel_builds[1][0] is b
    assert a == b and hash(a) == hash(b) and a.to_json() == b.to_json()


def test_symplectic_tensor_rejects_non_symplectic():
    with pytest.raises(ValueError):
        tensor_element(plane_structure(), tensor(PLANE, ((1,), "x")))


# -- Hamiltonian potentials -----------------------------------------------------


def test_potential_of_constant_field():
    s = plane_structure()
    f = hamiltonian_potential(tensor(PLANE, ((2,), -1)), s)
    assert f == Cotensor(PLANE, {(): "x"})
    assert ce_differential(f) == contract(tensor(PLANE, ((2,), -1)), s.omega)


def test_potential_of_rotation_field():
    s = plane_structure()
    rot = tensor(PLANE, ((2,), "x"), ((1,), "-y"))
    assert contract(rot, s.omega) == Cotensor(PLANE, {(1,): "-x", (2,): "-y"})
    f = hamiltonian_potential(rot, s)
    assert f == Cotensor(PLANE, {(): "-1/2*x^2 - 1/2*y^2"})


def test_potential_requires_symplectic_input():
    with pytest.raises(ValueError):
        hamiltonian_potential(tensor(PLANE, ((1,), "x")), plane_structure())


@pytest.mark.parametrize("structure, word", [
    # i_1 omega is the volume word, which is closed but not exact here
    (su2_cartan, ()),
    # a top-degree field: i_x omega has word length 0, and no cotensor of
    # word length -1 has it as its d (the empty source of the slice solve)
    (plane_structure, (1, 2)),
    (su2_cartan, (1, 2, 3)),
], ids=["su2-cartan-scalar", "plane-top-field", "su2-top-field"])
def test_su2_cartan_scalar_is_not_hamiltonian(structure, word):
    s = structure()
    x = Tensor.basis(s.pair, word)
    assert is_symplectic(x, s)
    if word:
        assert contract(x, s.omega).degrees() == [0]
    assert hamiltonian_potential(x, s) is None


def test_su2_cartan_basis_field_is_hamiltonian():
    s = su2_cartan()
    f = hamiltonian_potential(Tensor.basis(s.pair, (1,)), s)
    assert f == Cotensor(s.pair, {(1,): -1})


def test_potential_certifies_randomized(seeded=20):
    rng = random.Random(11)
    s = plane_structure()
    basis = symplectic_basis(s, 1, max_poly_degree=2)
    for _ in range(seeded):
        x = Tensor.zero(PLANE)
        for b in rng.sample(basis, 3):
            x = x + Fraction(random_numerator(rng), DRAW_DEN) * b
        f = hamiltonian_potential(x, s)
        assert f is not None
        assert ce_differential(f) == contract(x, s.omega)


# -- the extension complex ------------------------------------------------------


def hamiltonian_element(s, f_terms, x_terms):
    return ExtensionElement(s, Cotensor(s.pair, dict(f_terms)),
                            Tensor(s.pair, dict(x_terms)))


def test_extension_element_degree():
    s = plane_structure()
    e = hamiltonian_element(s, {(): "x"}, {(2,): -1})
    assert e.degree() == 1
    scalar = ExtensionElement(s, Cotensor(PLANE, {(1,): "x"}), Tensor.zero(PLANE))
    assert scalar.degree() == 0
    mixed = e + scalar
    assert mixed.degree() is None


def test_extension_element_validates_tensor():
    with pytest.raises(ValueError):
        ExtensionElement(plane_structure(), Cotensor.zero(PLANE),
                         tensor(PLANE, ((1,), "x")))


def test_d_omega_of_hamiltonian_pair_vanishes():
    s = plane_structure()
    e = hamiltonian_element(s, {(): "-1/2*x^2 - 1/2*y^2"}, {(2,): "x", (1,): "-y"})
    assert d_omega(e).is_zero()


def test_d_omega_squares_to_zero():
    rng = random.Random(5)
    for s in structures():
        basis = symplectic_basis(s, 1, max_poly_degree=2)
        for _ in range(10):
            x = Tensor.zero(s.pair)
            for b in basis:
                x = x + Fraction(random_numerator(rng), DRAW_DEN) * b
            f = random_cotensor(rng, s.pair, s.n - 1, max_degree=2)
            e = ExtensionElement(s, f, x)
            assert d_omega(d_omega(e)).is_zero()


def test_plane_binary_bracket_of_coordinates():
    s = plane_structure()
    ex = hamiltonian_element(s, {(): "x"}, {(2,): -1})
    ey = hamiltonian_element(s, {(): "y"}, {(1,): 1})
    out = extension_bracket([ex, ey])
    assert out.x.is_zero()
    assert out.f == Cotensor(PLANE, {(): -1})


def test_extension_bracket_arity_guard():
    s = plane_structure()
    e = hamiltonian_element(s, {(): "x"}, {(2,): -1})
    with pytest.raises(ValueError):
        extension_bracket([e])


def test_extension_bracket_output_is_cocycle():
    s = plane_structure()
    ex = hamiltonian_element(s, {(): "x"}, {(2,): -1})
    erot = hamiltonian_element(s, {(): "-1/2*x^2 - 1/2*y^2"}, {(2,): "x", (1,): "-y"})
    out = extension_bracket([ex, erot])
    assert d_omega(out).is_zero()


@pytest.mark.parametrize("bracket", [extension_bracket, poisson_bracket],
                         ids=["extension", "poisson"])
def test_a_bracket_past_the_bound_raises_before_any_contraction(bracket, monkeypatch):
    s = plane_structure()
    e = hamiltonian_element(s, {(): "x"}, {(2,): -1})
    args = [e if bracket is extension_bracket else class_of(e)] * 13
    contractions = []
    monkeypatch.setattr(engine, "contract", lambda *a: contractions.append(a))
    with pytest.raises(CapExceeded, match="^bracket arity 13 exceeds cap 12$"):
        bracket(args)
    assert contractions == []


@pytest.mark.parametrize("s", structures(), ids=["plane", "su2"])
def test_contract_reversed_wedge_matches_the_plain_contraction_at_the_bound(s):
    rng = random.Random(41)
    top, ngens = s.n + 1, s.pair.ngens
    nonzero = [0, 0]
    for over in (0, 1):
        for k in (1, 2, 3):
            if top + over > k * ngens:
                continue
            for _ in range(8):
                while True:
                    degs = [rng.randint(0, ngens) for _ in range(k)]
                    if sum(degs) == top + over:
                        break
                xs = [random_tensor(rng, s.pair, d, 1) for d in degs]
                if degs[0] < ngens:  # a higher part leaves the least degree as drawn
                    xs[0] = xs[0] + random_tensor(rng, s.pair, degs[0] + 1, 1)
                plain = contract(wedge_list(s.pair, Tensor, xs[::-1]), s.omega)
                assert contract_reversed_wedge(s, xs) == plain
                nonzero[over] += not plain.is_zero()
    assert nonzero[0] and not nonzero[1]
    other = PolyVectorFieldPair(ngens + 1)
    with pytest.raises(ValueError, match="different pairs"):
        contract_reversed_wedge(s, [Tensor.basis(other, tuple(range(1, ngens + 2)))])


def hamiltonian_and_flat_cocycles(s):
    """Two cocycles (f, x) with x nonzero, and the cocycle (3, 0), whose
    tensor slot is zero and whose cotensor slot is not."""
    if s.pair == PLANE:
        pairs = [({(): "x"}, {(2,): -1}),
                 ({(): "-1/2*x^2 - 1/2*y^2"}, {(2,): "x", (1,): "-y"})]
    else:
        pairs = [({(1,): -1}, {(1,): 1}), ({(2,): -1}, {(2,): 1})]
    return ([hamiltonian_element(s, f, x) for f, x in pairs],
            hamiltonian_element(s, {(): 3}, {}))


@pytest.mark.parametrize("s", structures(), ids=["plane", "su2"])
def test_a_zero_tensor_argument_gives_the_zero_bracket(s):
    live, flat = hamiltonian_and_flat_cocycles(s)
    zero = ExtensionElement.zero(s)
    for k in (2, 3):
        for position in range(k):
            es = live[:k - 1]
            es = es[:position] + [flat] + es[position:]
            xs = [e.x for e in es]
            # the work the short cut skips would have given zero too
            assert higher_bracket(xs).is_zero()
            assert contract_reversed_wedge(s, xs).is_zero()
            assert symplectic_bracket(s, xs) == zero
            assert extension_bracket(es) == zero
            classes = [class_of(e) for e in es]
            degree = sum(c.degree for c in classes) - 1
            assert poisson_bracket(classes) == CohomClass.zero(s, degree)
    # the same brackets without the flat argument are not zero
    assert not extension_bracket(live).is_zero()
    assert not poisson_bracket([class_of(e) for e in live]).is_zero()


def test_a_zero_argument_does_not_lift_the_arity_bound():
    s = plane_structure()
    live, flat = hamiltonian_and_flat_cocycles(s)
    message = "^bracket arity 13 exceeds cap 12$"
    with pytest.raises(CapExceeded, match=message):
        extension_bracket([flat] + [live[0]] * 12)
    with pytest.raises(CapExceeded, match=message):
        symplectic_bracket(s, [Tensor.zero(PLANE)] * 13)
    for few in ([], [flat]):
        with pytest.raises(ValueError, match="is d_omega$"):
            extension_bracket(few)


def test_extension_brackets_have_no_cap_below_the_tensor_bound():
    # seven scalar tensors: the higher bracket vanishes and the value is
    # B_6 i_{1^..^1} omega = 203 omega
    s = su2_cartan()
    one = tensor_element(s, Tensor.scalar(s.pair, 1))
    assert bell(6) == 203
    assert ExtensionLinf(s).bracket([one] * 7) == ExtensionElement(
        s, 203 * s.omega, Tensor.zero(s.pair))


def test_extension_jacobi_vanishes(random_extension):
    rng = random.Random(23)
    for s in structures():
        op = ExtensionLinf(s)
        for arity in (2, 3, 4):
            for _ in range(4):
                es = [random_extension(rng, s, rng.choice((0, 1)))
                      for _ in range(arity)]
                assert jacobi_residual(op, es).is_zero()


def test_fundamental_pairing_spot_checks():
    rng = random.Random(31)
    for s in structures():
        basis = symplectic_basis(s, 1, max_poly_degree=2)
        for k in (2, 3, 4):
            for _ in range(5):
                xs = []
                for _ in range(k):
                    x = Tensor.zero(s.pair)
                    for b in basis:
                        if rng.random() < 0.5:
                            x = x + Fraction(random_numerator(rng), DRAW_DEN) * b
                    xs.append(x)
                ok, lhs, rhs = fundamental_pairing_check(xs, s)
                assert ok, (lhs, rhs)


def test_structure_tensor_is_not_module_linear_under_flows():
    # L_{x @x} omega = dx ^ dy even though L_{@x} omega = 0: the flow term
    # da ^ i_x omega survives, so scaling a field rescales its flow.
    s = plane_structure()
    assert lie_derivative(Tensor.basis(PLANE, (1,)), s.omega).is_zero()
    scaled = tensor(PLANE, ((1,), "x"))
    assert lie_derivative(scaled, s.omega) == Cotensor(PLANE, {(1, 2): 1})


def test_symplectic_tensors_close_under_higher_brackets():
    rng = random.Random(53)
    for s in structures():
        basis = symplectic_basis(s, 1, max_poly_degree=2)
        for k in (2, 3):
            for _ in range(6):
                xs = []
                for _ in range(k):
                    x = Tensor.zero(s.pair)
                    for b in basis:
                        if rng.random() < 0.5:
                            x = x + Fraction(random_numerator(rng), DRAW_DEN) * b
                    xs.append(x)
                assert is_symplectic(higher_bracket(xs), s)


def test_kernel_arguments_keep_brackets_in_the_kernel():
    s = degenerate_structure()
    killer = tensor(SPACE, ((3,), "x"))          # x @z, inside ker(omega)
    assert contract(killer, s.omega).is_zero()
    witness = tensor(SPACE, ((1,), "y"), ((2,), "x"))
    out = higher_bracket([killer, witness])
    assert not out.is_zero()
    assert contract(out, s.omega).is_zero()
