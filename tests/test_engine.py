"""n-plectic structures, Hamiltonian potentials and the extension complex."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nplectic import engine
from nplectic.calculus import ce_differential, contract, higher_bracket, lie_derivative
from nplectic.cohomology import class_of, poisson_bracket
from nplectic.elements import Cotensor, Tensor
from nplectic.engine import (
    DegreeError,
    ExtensionElement,
    MAX_SLICE_DIM,
    NotClosedError,
    NPlecticStructure,
    coords_element,
    d_omega,
    extension_bracket,
    fundamental_pairing_check,
    hamiltonian_potential,
    is_symplectic,
    kernel_basis,
    label_vector,
    monomials_exact,
    reduce_mod_kernel,
    slice_basis,
    structure_from_json,
    symplectic_basis,
    symplectic_slice,
)
from nplectic.identities import random_symplectic
from nplectic.linf import ExtensionLinf, jacobi_residual
from nplectic.pairs import ConstantPair, PolyVectorFieldPair
from nplectic.sampling import random_cotensor, random_fraction
from nplectic.scalars import CapExceeded, bell

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


def test_structure_json_roundtrip():
    for s in structures():
        again = structure_from_json(s.to_json())
        assert again == s


# -- symplectic tensors ---------------------------------------------------------


@pytest.mark.parametrize("nvars", range(5))
def test_monomials_match_a_brute_force_enumeration(nvars):
    for degree in range(-2, 5):
        box = list(itertools.product(range(max(degree, 0) + 1), repeat=nvars))
        assert monomials_exact(nvars, degree) == sorted(e for e in box if sum(e) == degree)
        window = range(-1, degree + 1)
        labels = slice_basis(PolyVectorFieldPair(nvars), 1, window) if nvars else []
        assert labels == [((g,), e) for g in range(1, nvars + 1)
                          for e in sorted(e for e in box if sum(e) <= degree)]


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
        x = x + random_fraction(rng) * b
    k = Tensor.zero(SPACE)
    for b in kernel_basis(s, degree, k_window):
        k = k + random_fraction(rng) * b
    assert reduce_mod_kernel(s, x) == reduce_mod_kernel(s, x + k)


@settings(max_examples=15, deadline=None)
@given(alpha=ALPHAS, data=st.data())
def test_sums_of_residues_from_different_windows_are_residues(alpha, data):
    s = mixed_structure(alpha)
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    a_window = data.draw(st.integers(0, 1))
    b_window = data.draw(st.integers(a_window + 1, 2))
    xa = random_symplectic(rng, s, data.draw(st.integers(1, 2)), a_window)
    xb = random_symplectic(rng, s, data.draw(st.integers(1, 2)), b_window)
    fa, fb = (random_cotensor(rng, s.pair, s.n - 1, max_degree=2) for _ in "ab")
    c = random_fraction(rng)
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
    s = mixed_structure(alpha)
    labels, null, images = symplectic_slice(s, degree, range(window + 1))
    assert len(images) == len(null)
    for vec, image in zip(null, images):
        x = coords_element(s.pair, Tensor, labels, vec)
        assert is_symplectic(x, s)
        assert image == label_vector(contract(x, s.omega))


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
    """(structure, degree, window) of every kernel_basis call."""
    from nplectic import engine

    built = []
    original = engine.kernel_basis

    def counting(s, degree, max_poly_degree=3):
        built.append((s, degree, max_poly_degree))
        return original(s, degree, max_poly_degree)

    monkeypatch.setattr(engine, "kernel_basis", counting)
    return built


def test_reduce_mod_kernel_builds_each_kernel_quotient_once(kernel_builds):
    s = degenerate_structure()
    x = tensor(SPACE, ((1,), "x"), ((3,), "y"))
    for _ in range(3):
        assert reduce_mod_kernel(s, x) == tensor(SPACE, ((1,), "x"))
    reduce_mod_kernel(s, tensor(SPACE, ((1, 2), "z")))
    assert [(degree, pd) for _, degree, pd in kernel_builds] == [(1, 1), (2, 1)]


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


def test_su2_cartan_scalar_is_not_hamiltonian():
    # i_1 omega is the volume word, which is closed but not exact here
    s = su2_cartan()
    one = Tensor.scalar(s.pair, 1)
    assert is_symplectic(one, s)
    assert hamiltonian_potential(one, s) is None


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
            x = x + random_fraction(rng) * b
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
                x = x + random_fraction(rng) * b
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
                            x = x + random_fraction(rng) * b
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
                            x = x + random_fraction(rng) * b
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
