"""Rank tables, canonical classes and the Poisson algebra on them."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nplectic.calculus import ce_differential, contract
from nplectic.cohomology import (
    CohomClass,
    NotACocycle,
    ce_cohomology_table,
    ce_matrix,
    class_of,
    extension_cohomology_rank,
    extension_cohomology_table,
    extension_slice,
    poisson_bracket,
)
from nplectic.elements import Cotensor, Tensor, ascending_words, label_element, label_vector
from nplectic.engine import (
    ExtensionElement,
    NPlecticStructure,
    coords_vector,
    d_omega,
    hamiltonian_potential,
    slice_size,
    symplectic_basis,
    symplectic_slice,
)
from nplectic.identities import random_symplectic
from nplectic.linalg import rank_dense, rank_fraction_free
from nplectic.linf import ClassLinf, jacobi_residual
from nplectic.pairs import ConstantPair, PolyVectorFieldPair
from nplectic.sampling import random_cotensor, random_fraction
from nplectic.scalars import CapExceeded, Poly, monomial_key
from conftest import (
    basis_elements,
    extension_slice_by_null_space,
    extension_table_by_full_elimination,
)
from test_linalg import dense, int_rows

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
    return NPlecticStructure(SPACE, 1, Cotensor(SPACE, {(1, 2): 1}))


# -- plain complex ranks --------------------------------------------------------


def test_su2_ce_ranks():
    ranks = [ce_cohomology_table(su2(), [wl])[0]["rank"] for wl in range(4)]
    assert ranks == [1, 0, 0, 1]


def test_su2_ce_matrix_is_the_structure_constant_table():
    matrix, labels = ce_matrix(su2(), 1)
    assert labels == [((1,), 0), ((2,), 0), ((3,), 0)]  # the one key in no variables
    assert matrix == int_rows([
        [Fraction(0), Fraction(0), Fraction(-1)],
        [Fraction(0), Fraction(1), Fraction(0)],
        [Fraction(-1), Fraction(0), Fraction(0)],
    ])


def test_contraction_matrix_on_the_plane_is_a_signed_permutation():
    from nplectic.engine import label_vector, matrix_of, slice_basis

    s = plane_structure()
    labels = slice_basis(PLANE, 1, 0)
    matrix = matrix_of([label_vector(contract(x, s.omega))
                        for x in basis_elements(PLANE, Tensor, labels)])
    assert matrix == int_rows([[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]])


def test_rank_paths_agree_on_ce_matrices():
    for pair in (su2(), PLANE):
        for wl in range(4):
            for w in range(3):
                matrix, labels = ce_matrix(pair, wl, w)
                assert rank_dense(dense(matrix, len(labels))) == rank_fraction_free(matrix)


def test_plane_ce_is_exact_away_from_the_constants():
    """The polynomial Poincare lemma on Q[x1..xm], m = 1..8, at weights 0-2.

    d is the de Rham differential there.  The Euler field E = sum x_i @x_i
    acts on a cotensor of polynomial degree p and word length l by Cartan's
    formula L_E = d i_E + i_E d = p + l, so a closed cotensor a with
    p + l > 0 is d(i_E a) / (p + l), exact.  Only the constants, at word
    length 0 and weight 0, are closed and not exact: rank 1 there, 0 at
    every other (word length, weight).
    """
    for m in range(1, 9):
        rows = ce_cohomology_table(PolyVectorFieldPair(m), range(m + 1), range(3))
        assert len(rows) == 3 * (m + 1)
        for row in rows:
            assert row["rank"] == int((row["degree"], row["weight"]) == (0, 0)), (m, row)


def test_ce_table_shape():
    rows = ce_cohomology_table(su2(), range(4))
    assert [r["degree"] for r in rows] == [0, 1, 2, 3]
    assert [r["dim"] for r in rows] == [1, 3, 3, 1]


def test_ce_table_builds_each_slice_matrix_once(monkeypatch):
    from collections import Counter

    from nplectic import cohomology

    built = Counter()
    original = cohomology.ce_matrix

    def counting(pair, word_len, weight=0):
        built[word_len, weight] += 1
        return original(pair, word_len, weight)

    monkeypatch.setattr(cohomology, "ce_matrix", counting)
    slices = [(wl, w) for w in range(3) for wl in range(3)]
    rows = ce_cohomology_table(PLANE, range(3), range(3))
    assert set(built.values()) == {1}
    # a key with an empty slice (word length -1) is ranked without a build
    keys = set(slices) | {(wl - 1, w + 1) for wl, w in slices}
    assert set(built) == {key for key in keys if slice_size(PLANE, *key)} != keys
    assert rows == [ce_cohomology_table(PLANE, [wl], [w])[0] for wl, w in slices]


# -- extension tables -----------------------------------------------------------


def test_su2_cartan_extension_table():
    s = su2_cartan()
    rows = extension_cohomology_table(s, range(4), (0,))
    assert [r["dim"] for r in rows] == [4, 6, 1, 1]
    assert [r["rank"] for r in rows] == [0, 3, 0, 0]


def test_plane_extension_ranks_hand_values():
    s = plane_structure()
    assert extension_cohomology_rank(s, 1, 0)["rank"] == 2
    assert extension_cohomology_rank(s, 1, -1)["rank"] == 0
    assert extension_cohomology_rank(s, 0, 0)["rank"] == 1
    assert extension_cohomology_rank(s, 2, 0)["rank"] == 0


def test_extension_table_builds_each_differential_once(monkeypatch):
    from collections import Counter

    from nplectic import cohomology

    built = Counter()
    original = cohomology.extension_differential

    def counting(s, k, r):
        built[k, r] += 1
        return original(s, k, r)

    monkeypatch.setattr(cohomology, "extension_differential", counting)
    s = plane_structure()
    slices = [(k, r) for r in range(3) for k in range(-1, 3)]
    rows = extension_cohomology_table(s, range(-1, 3), range(3))
    assert set(built.values()) == {1}
    # a key whose slices are all empty (degree 3 on the plane) is ranked
    # without a build
    keys = set(slices) | {(k + 1, r + 1) for k, r in slices}
    nonempty = {(k, r) for k, r in keys
                if any(slice_size(s.pair, *sl) for sl in ((s.n + 1 - k, r), (k, r), (s.n - k, r + 1)))}
    assert set(built) == nonempty != keys
    assert rows == [extension_cohomology_rank(s, k, r) for k, r in slices]


@pytest.mark.parametrize("table, cap, refused", [
    # (1, 10), the last slice of the table, has 22 elements; the others at most 20
    (lambda: ce_cohomology_table(PLANE, range(3), [0, 9]), 21, "word length 1 has 22"),
    # the weight-4 slices need the word-length 1 cotensor slice of weight 5
    (lambda: extension_cohomology_table(plane_structure(), [0], [0, 4]), 11,
     "word length 1 has 12"),
], ids=["plain", "extension"])
def test_a_table_past_the_slice_cap_raises_before_building_a_slice(monkeypatch, table,
                                                                     cap, refused):
    from nplectic import cohomology, engine

    built = []

    def recording(name, original):
        def build(*args):
            built.append(name)
            return original(*args)
        return build

    # every slice cohomology builds: its labels, the contractions of the
    # tensor labels, the d h of the cotensor slice and the contraction
    # kernel of the constant tensors, which tells whether omega's word map
    # is onto (on the plane it is, so only that kernel is built)
    for name in ("slice_basis", "label_contraction", "differential_slice",
                 "_kernel_quotient"):
        monkeypatch.setattr(cohomology, name, recording(name, getattr(cohomology, name)))
    monkeypatch.setattr(engine, "MAX_SLICE_DIM", cap)
    with pytest.raises(CapExceeded, match=refused):
        table()
    assert built == []
    monkeypatch.setattr(engine, "MAX_SLICE_DIM", cap + 1)
    table()
    assert built


def test_a_table_at_the_row_cap_builds_and_one_past_it_raises_first(monkeypatch):
    from nplectic import cohomology

    built = []

    def counting(s, k, r):
        built.append((k, r))
        return extension_slice(s, k, r)

    monkeypatch.setattr(cohomology, "MAX_TABLE_ROWS", 6)
    monkeypatch.setattr(cohomology, "extension_slice", counting)
    s = su2_cartan()
    assert len(extension_cohomology_table(s, range(6), [0])) == 6
    assert built
    built.clear()
    with pytest.raises(CapExceeded, match="^table has 7 rows, more than 6$"):
        extension_cohomology_table(s, range(7), [0])
    assert built == []


def test_extension_vanishes_outside_the_degree_strip():
    for s in (plane_structure(), su2_cartan()):
        for r in range(-1, 3):
            for k in range(s.n + 2, s.n + 5):
                assert extension_cohomology_rank(s, k, r)["rank"] == 0
            for k in range(-3, 0):
                assert extension_cohomology_rank(s, k, r)["rank"] == 0


def test_extension_slice_quotients_kernel_directions():
    s = degenerate_structure()
    image, dim = extension_slice(s, 1, 0)
    one = monomial_key((0, 0, 0))
    assert image.labels == [((1,), one), ((2,), one), ((3,), one)]
    # @x, @y and @z are all symplectic, but @z contracts to zero: the images
    # dy and -dx reach rank 2; the function half x, y, z has d h = dx, dy,
    # dz, and only dz adds rank
    assert image.ranks == [2, 3]
    assert dim == 5
    assert image.residue(*label_vector(Cotensor(SPACE, {(3,): 1}))) == ({}, 1)


def test_extension_table_builds_each_contraction_table_once(monkeypatch):
    from nplectic import elements, engine

    builds, contracted, made = [], [], []
    derived, contract = NPlecticStructure.derived, engine.contract
    init = elements._Element.__init__

    def counting_derived(self, key, build):
        def counted():
            builds.append(key)
            return build()
        return derived(self, key, counted)

    def counting_contract(x, f):
        contracted.append(x)
        return contract(x, f)

    def counting_init(self, *args, **kwargs):
        made.append(type(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(NPlecticStructure, "derived", counting_derived)
    monkeypatch.setattr(engine, "contract", counting_contract)
    monkeypatch.setattr(elements._Element, "__init__", counting_init)
    made_per_window = []
    for weights in (range(1), range(3)):
        for log in (builds, contracted, made):
            log.clear()
        s = degenerate_structure()
        extension_cohomology_table(s, range(-1, 3), weights)
        tables = [key[1] for key in builds if key[0] == "contraction"]
        # one table per word up to the form degree, each built once, and
        # contract runs only to build them, on the unit tensors of the words
        assert len(set(tables)) == len(tables)
        assert set(tables) == {w for k in range(s.n + 2) for w in ascending_words(3, k)}
        assert contracted == [Tensor.basis(SPACE, w) for w in tables]
        made_per_window.append(len(made))
    # three times the weights, many more labels, not one element more: the
    # slices are built from labels
    assert made_per_window[0] == made_per_window[1] > 0


def flat(elem):
    return {(w, e): c for w, poly in elem.items() for e, c in poly.coefficients()}


def dense_columns(vectors):
    """Dense matrix with one column per label vector, over the labels any reaches."""
    labels = sorted({lab for vec in vectors for lab in vec})
    return [[vec.get(lab, Fraction(0)) for vec in vectors] for lab in labels]


def unit_elements(s, cls, word_len, degree):
    nvars = s.pair.poly_nvars
    monos = [e for e in itertools.product(range(degree + 1), repeat=nvars) if sum(e) == degree]
    words = itertools.combinations(range(1, s.pair.ngens + 1), word_len) if word_len >= 0 else []
    return [cls(s.pair, {w: Poly(nvars, {e: 1})}) for w in words for e in monos]


@pytest.mark.parametrize("make", [plane_structure, degenerate_structure, su2_cartan])
def test_extension_slice_keeps_one_image_per_class_mod_kernel(make):
    # symplectic mod kernel has dimension rank(C) - rank(D), with C the
    # contraction matrix of the tensor slice and D that of d after it, and
    # is the rank the images reach; the rank of the slice is that of the
    # matrix [images | d h], by the oracle, the images built by `contract`
    # on the symplectic basis
    s = make()
    for r in range(3) if s.pair.poly_nvars else [0]:
        for k in range(-1, s.n + 3):
            contractions = [contract(x, s.omega) for x in unit_elements(s, Tensor, k, r)]
            c = dense_columns([flat(img) for img in contractions])
            d = dense_columns([flat(ce_differential(img)) for img in contractions])
            exact = [flat(ce_differential(h)) for h in
                     unit_elements(s, Cotensor, s.n - k, r + 1 if s.pair.poly_nvars else r)]
            labels, null = symplectic_slice(s, k, r)
            images = [flat(contract(x, s.omega)) for x in
                      (label_element(s.pair, Tensor, *coords_vector(labels, *vec)) for vec in null)]
            image, dim = extension_slice(s, k, r)
            assert image.ranks[0] == rank_dense(c) - rank_dense(d)
            assert image.ranks[1] == image.echelon.rank
            assert image.echelon.rank == rank_dense(dense_columns(images + exact))
            assert dim == image.ranks[0] + len(exact)


def darboux_structure(m):
    """omega = dx1^dx2 + ... + dx_{2m-1}^dx_{2m} on Q[x1..x2m], n = 1."""
    pair = PolyVectorFieldPair(2 * m)
    return NPlecticStructure(pair, 1, Cotensor(pair, {(2 * i - 1, 2 * i): 1
                                                      for i in range(1, m + 1)}))


def volume_structure():
    """omega = dx^dy^dz on Q[x, y, z], n = 2."""
    return NPlecticStructure(SPACE, 2, Cotensor(SPACE, {(1, 2, 3): 1}))


@pytest.mark.parametrize("make", [
    plane_structure, degenerate_structure, su2_cartan,
    lambda: darboux_structure(2), volume_structure,
], ids=["plane", "degenerate-plane", "su2-cartan", "poly4", "poly3-volume"])
def test_extension_slice_matches_the_null_space_build(make):
    # one elimination of [d c | c] spans what the images of the null space
    # of d on the contractions span: equal labels, ranks and dimensions,
    # and equal residues of seeded cotensors of the target slice
    s = make()
    rng = random.Random(32)
    moved = kept = 0
    for r in range(3):
        for k in range(-1, s.n + 3):
            image, dim = extension_slice(s, k, r)
            oracle, oracle_dim = extension_slice_by_null_space(s, k, r)
            assert (image.labels, image.ranks, dim) == (oracle.labels, oracle.ranks, oracle_dim)
            for _ in range(3 if image.labels else 0):
                labels = rng.sample(image.labels, min(len(image.labels), rng.randint(1, 6)))
                f = label_element(s.pair, Cotensor,
                                  {lab: rng.randint(1, 9) * rng.choice((-1, 1)) for lab in labels},
                                  rng.randint(1, 5))
                residue = image.residue(*label_vector(f))
                assert residue == oracle.residue(*label_vector(f))
                moved += residue != label_vector(f)
                kept += residue != ({}, 1)
    assert moved and kept


@pytest.mark.parametrize("make", [
    plane_structure, su2_cartan, lambda: darboux_structure(2), volume_structure,
], ids=["plane", "su2-cartan", "poly4", "poly3-volume"])
def test_an_extension_slice_builds_the_slices_its_table_sizes(monkeypatch, make):
    # the (word length, weight) of every slice extension_slice builds, in
    # build order, against those the rank table's cap check sizes for its key
    from nplectic import cohomology

    s = make()
    calls = {"built": [], "sized": []}

    def recording(kind, original):
        def record(pair, word_len, weight):
            calls[kind].append((word_len, weight))
            return original(pair, word_len, weight)
        return record

    for kind, name in (("built", "slice_basis"), ("built", "differential_slice"),
                       ("sized", "slice_size")):
        monkeypatch.setattr(cohomology, name, recording(kind, getattr(cohomology, name)))
    for r in range(3):
        for k in range(-1, s.n + 3):
            calls["built"].clear()
            extension_slice(s, k, r)
            built = list(calls["built"])
            calls["sized"].clear()
            extension_cohomology_table(s, [k], [r])
            # the key's own slices come first, then those of its source
            assert len(built) == 3 and built == calls["sized"][:3], (k, r)


def test_an_extension_slice_is_one_elimination(monkeypatch):
    # no null space, no back-substitution, no combination per null vector:
    # one Echelon per slice, and nothing stored beyond the contraction tables
    from nplectic import engine, linalg

    def refused(*args, **kwargs):
        raise AssertionError("a second elimination in an extension slice")

    echelons, stored = [], set()
    init, derived = linalg.Echelon.__init__, NPlecticStructure.derived

    def counting(self):
        echelons.append(self)
        init(self)

    def recording(self, key, build):
        stored.add(key[0])
        return derived(self, key, build)

    for module, name in ((engine, "null_space"), (linalg, "null_space"), (linalg, "rref"),
                         (engine, "combine"), (engine, "symplectic_slice")):
        monkeypatch.setattr(module, name, refused)
    monkeypatch.setattr(linalg.Echelon, "__init__", counting)
    monkeypatch.setattr(NPlecticStructure, "derived", recording)
    for s in (plane_structure(), su2_cartan(), volume_structure()):
        for r in range(2):
            for k in range(-1, s.n + 3):
                echelons.clear()
                image, _ = extension_slice(s, k, r)
                assert echelons == [image.echelon]
    assert stored == {"contraction"}


def fractional_plane():
    return NPlecticStructure(PLANE, 1, Cotensor(PLANE, {(1, 2): Fraction(11, 13)}))


def poly4_three_form():
    """omega = dx1^dx2^dx3 on Q[x1..x4], n = 2; @x4 sits in the kernel."""
    pair = PolyVectorFieldPair(4)
    return NPlecticStructure(pair, 2, Cotensor(pair, {(1, 2, 3): 1}))


def seeded_constant_structure():
    """A constant omega of four fractional terms on Q[x1..x5], n = 2."""
    rng = random.Random(38)
    pair = PolyVectorFieldPair(5)
    words = rng.sample(list(itertools.combinations(range(1, 6), 3)), 4)
    return NPlecticStructure(pair, 2, Cotensor(pair, {
        w: Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(2, 9)) for w in words}))


POLYNOMIAL_STRUCTURES = {
    "plane": plane_structure, "degenerate-plane": degenerate_structure,
    "fractional-plane": fractional_plane, "darboux-2": lambda: darboux_structure(2),
    "darboux-3": lambda: darboux_structure(3), "poly3-volume": volume_structure,
    "poly4-three-form": poly4_three_form, "seeded-constant": seeded_constant_structure,
}


@pytest.mark.parametrize("make", POLYNOMIAL_STRUCTURES.values(), ids=POLYNOMIAL_STRUCTURES)
def test_a_polynomial_table_equals_the_full_elimination(make):
    # the cone rank (the images' relation rank, and the slice sizes down
    # the d-chain) against every image and d h in one echelon, at negative
    # weights too, where the chain meets the constants, and at the
    # degrees whose target is the functions
    s = make()
    degrees, weights = range(-2, s.n + 4), range(-2, 4)
    assert (extension_cohomology_table(s, degrees, weights)
            == extension_table_by_full_elimination(s, degrees, weights))


def test_a_polynomial_table_builds_no_exact_cotensor(monkeypatch):
    # on the polynomial family no d h is built and no row joins an echelon
    # by Echelon.add; su(2)/Cartan, and a class on the plane, still rank
    # and reduce through the full quotient of extension_slice
    from nplectic import cohomology, linalg

    def refused(*args, **kwargs):
        raise AssertionError("an exact cotensor in a polynomial table")

    with monkeypatch.context() as patched:
        patched.setattr(cohomology, "differential_slice", refused)
        patched.setattr(linalg.Echelon, "add", refused)
        for make in POLYNOMIAL_STRUCTURES.values():
            s = make()
            extension_cohomology_table(s, range(-2, s.n + 4), range(-2, 4))
    built = []
    extension_slice = cohomology.extension_slice

    def counting(s, k, r):
        built.append((k, r))
        return extension_slice(s, k, r)

    monkeypatch.setattr(cohomology, "extension_slice", counting)
    extension_cohomology_table(su2_cartan(), range(4), (0,))
    # (4, 0) has no slice, so it is ranked without a build
    assert sorted(built) == [(k, 0) for k in range(4)]
    built.clear()
    # the coboundaries of the degree-1 classes x and y, built once
    coordinate_classes(plane_structure())
    assert built == [(2, 1)]


def test_the_images_a_polynomial_table_counts_are_the_null_space_images(monkeypatch):
    # s_k of every key, counted where omega's word map is onto and
    # eliminated where it is not, against the images of the null space of
    # d on the contractions, which shares no elimination with either; the
    # keys cover both branches, the target (0, 0) of the constants and
    # keys with an empty slice
    from nplectic import cohomology

    eliminated = set()
    relations = cohomology._symplectic_relations

    def recording(s, target, tensor):
        eliminated.add((s, tensor))
        return relations(s, target, tensor)

    monkeypatch.setattr(cohomology, "_symplectic_relations", recording)
    counted = set()
    for make in POLYNOMIAL_STRUCTURES.values():
        s = make()
        for r in range(-2, 4):
            for k in range(-2, s.n + 4):
                images = cohomology._symplectic_images(s, k, r)
                assert images == extension_slice_by_null_space(s, k, r)[0].ranks[0], (s, k, r)
                if (s, (k, r)) not in eliminated and images:
                    counted.add((s, (k, r)))
    assert eliminated and counted
    assert any(key == (s.n + 1, 0) for s, key in counted)


@pytest.mark.parametrize("make, ranks, eliminated", [
    # every word map of the plane is onto, so no key eliminates a row
    (plane_structure, [1, 2, 1], set()),
    # Darboux-2's degree-0 map reaches span(omega) in six 2-forms
    (lambda: darboux_structure(2), [1, 4, 1], {0}),
], ids=["plane", "darboux-2"])
def test_a_polynomial_table_eliminates_only_where_the_word_map_is_not_onto(
        monkeypatch, make, ranks, eliminated):
    from nplectic import cohomology
    from nplectic.engine import _kernel_quotient

    rows = {}
    relations = cohomology._symplectic_relations

    def counting(s, target, tensor):
        labels, built = relations(s, target, tensor)
        built = list(built)
        rows[tensor[0]] = rows.get(tensor[0], 0) + len(built)
        return labels, built

    monkeypatch.setattr(cohomology, "_symplectic_relations", counting)
    s = make()
    ngens = s.pair.ngens
    assert [math.comb(ngens, k) - _kernel_quotient(s, k, 0).ranks[0]
            for k in range(s.n + 2)] == ranks
    assert {k for k in range(s.n + 2) if ranks[k] < math.comb(ngens, s.n + 1 - k)} == eliminated
    extension_cohomology_table(s, range(-1, s.n + 3), range(4))
    assert set(rows) == eliminated and all(rows.values())


def test_a_table_whose_d_chain_passes_the_slice_cap_still_builds(monkeypatch):
    # degree -1 at weight 0 on Q[x1..x4] with dx1^dx2^dx3 sizes slices of
    # at most 60 elements, (2, 2), the exact cotensors of its source row,
    # while the d-chain of its own rank, (3, 1), (2, 2), (1, 3), (0, 4),
    # passes (1, 3), of 80, which the cap refuses to build
    from nplectic import engine

    s = poly4_three_form()
    assert [slice_size(s.pair, *sl) for sl in ((3, 1), (2, 2), (1, 3), (0, 4))] == [16, 60, 80, 35]
    monkeypatch.setattr(engine, "MAX_SLICE_DIM", 60)
    with pytest.raises(CapExceeded, match="word length 1 has 80"):
        slice_size(s.pair, 1, 3)
    rows = extension_cohomology_table(s, [-1], [0])
    assert rows == extension_table_by_full_elimination(s, [-1], [0])
    assert rows[0]["dim"] == 16 and rows[0]["kernel"] == 15


def test_a_residue_of_a_cotensor_of_another_weight_leaves_the_slice_window():
    # the degree-0 class of the plane reduces cotensors of word length 1
    # with constant coefficients: an x dx is one weight up
    s = plane_structure()
    image = extension_slice(s, 1, 0)[0]
    assert image.residue(*label_vector(Cotensor(PLANE, {(1,): 1}))) == ({}, 1)
    with pytest.raises(ValueError, match="^element leaves the slice window at "):
        image.residue(*label_vector(Cotensor(PLANE, {(1,): "x"})))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_darboux_ranks_are_the_hamiltonian_functions(m):
    """Closed-form ranks for omega = sum_i dx_{2i-1}^dx_{2i} on Q[x1..x2m],
    n = 1, at weights 0-4.  At weight r a degree-k cotensor has
    coefficients of degree r + 1 and a tensor of degree r.

    * Degree 1: a cocycle is (h, X) with i_X omega = d h, h a function.
      omega is nondegenerate, so each h has exactly one such X, its
      Hamiltonian field, and the cocycles are the homogeneous polynomials
      of degree r + 1.  The coboundaries (i_Y omega, 0) come from bivectors
      Y with d i_Y omega = 0: i_Y omega is then a constant, of degree
      r + 1 >= 1, so zero.  Rank C(2m + r, r + 1).
    * Degree 0: a cocycle is (f, g) with g omega = d f, g a function, so
      d g ^ omega = 0; wedging with omega is injective on 1-forms in
      dimension 2m >= 4 (Lefschetz), so g is a constant, zero above weight
      0.  Every 1-form is some i_X omega, so the coboundaries i_X omega - d h
      leave only g: rank 1 at weight 0 and 0 above.  On the plane, m = 1,
      Lefschetz fails: d g ^ omega is a 3-form, zero, and every g omega is
      exact by the polynomial Poincare lemma, so every g of degree r has
      its f: rank r + 1.
    * Degree -1: a cocycle is a closed 2-form, exact by the polynomial
      Poincare lemma, so a coboundary: rank 0.
    * Degree 2: a bivector Y is a cocycle when i_Y omega = 0, so it lies in
      the contraction kernel and its class is zero; rank 0.
    * Degree 3: every trivector contracts to zero into the 2-form omega;
      rank 0.
    """
    s = darboux_structure(m)
    if m == 3:
        assert [math.comb(6 + r, r + 1) for r in range(5)] == [6, 21, 56, 126, 252]
    rows = extension_cohomology_table(s, range(-1, 4), range(5))
    assert len(rows) == 25
    for row in rows:
        k, r = row["degree"], row["weight"]
        expected = {1: math.comb(2 * m + r, r + 1), 0: r + 1 if m == 1 else int(r == 0)}
        assert row["rank"] == expected.get(k, 0), row


def test_volume_ranks_are_the_hamiltonian_forms():
    """Closed-form ranks for omega = dx^dy^dz on Q[x, y, z], n = 2, at
    weights 0-6: classes in three degrees at once.  P_d, the polynomials of
    degree d, has dimension C(d + 2, 2).  Contraction into omega is
    injective on functions, vector fields, bivectors and trivectors (onto
    3-, 2-, 1- and 0-forms), so no tensor lies in the kernel, and every
    closed form of positive word length or weight is exact (the polynomial
    Poincare lemma).  At weight r a degree-k cotensor has coefficients of
    degree r + 1 and a tensor of degree r.

    * Degree 2: a cocycle (h, Y) has i_Y omega = d h, one bivector Y for
      each function h of degree r + 1.  The coboundaries come from
      trivectors T with d i_T omega = 0: i_T omega is then a constant of
      degree r + 1 >= 1, so zero.  Rank C(r + 3, 2).
    * Degree 1: a cocycle (f, X) has i_X omega = d f, so i_X omega is a
      closed 2-form of degree r, and each such 2-form is d f for some f and
      i_X omega for one X.  f is fixed up to a closed 1-form, and the
      coboundaries i_Y omega - d h over symplectic bivectors Y are exactly
      the closed 1-forms of degree r + 1.  So the classes are the closed
      2-forms of degree r, the image of d on the 1-forms of degree r + 1,
      whose kernel is d P_{r+2}: rank 3 C(r + 3, 2) - C(r + 4, 2).
    * Degree 0: a cocycle (f, g) has g omega = d f; every 3-form is exact,
      so every g of degree r has its f, up to a closed 2-form, and the
      coboundaries i_X omega - d h over symplectic X are exactly the closed
      2-forms of degree r + 1.  Rank C(r + 2, 2).
    * Degree -1: every 3-form of degree r + 1 is a coboundary g omega.
    * Degree 3: a cocycle has i_T omega = 0, so T = 0.  Degree 4: there is
      no 4-vector on three generators.  Rank 0 in all three.
    """
    s = volume_structure()
    rows = extension_cohomology_table(s, range(-1, 5), range(7))
    assert len(rows) == 42
    for row in rows:
        k, r = row["degree"], row["weight"]
        expected = {0: math.comb(r + 2, 2), 1: 3 * math.comb(r + 3, 2) - math.comb(r + 4, 2),
                    2: math.comb(r + 3, 2)}
        assert row["rank"] == expected.get(k, 0), row


def test_extension_table_adds_no_elements(monkeypatch):
    from nplectic import elements

    added = []
    original = elements._Element.__add__

    def counting(self, other):
        added.append(self)
        return original(self, other)

    s = degenerate_structure()
    monkeypatch.setattr(elements._Element, "__add__", counting)
    rows = extension_cohomology_table(s, range(-1, 3), range(3))
    assert rows and not added


# -- classes ----------------------------------------------------------------------


def coordinate_classes(s):
    ex = ExtensionElement(s, Cotensor(PLANE, {(): "x"}), Tensor(PLANE, {(2,): -1}))
    ey = ExtensionElement(s, Cotensor(PLANE, {(): "y"}), Tensor(PLANE, {(1,): 1}))
    return class_of(ex), class_of(ey)


def test_class_of_needs_a_homogeneous_cocycle():
    # 1 + dx is a cocycle with parts of degree 1 and 0
    s = plane_structure()
    e = ExtensionElement(s, Cotensor(PLANE, {(): 1, (1,): 1}), Tensor.zero(PLANE))
    assert d_omega(e).is_zero()
    for degree in (None, 0, 1):
        with pytest.raises(ValueError, match="^element has no single degree; "
                                             "a class needs a homogeneous element$"):
            class_of(e, degree=degree)
    # the zero element takes the degree it is given, and needs one
    zero = class_of(ExtensionElement.zero(s), degree=3)
    assert zero == CohomClass.zero(s, 3) and zero.degree == 3
    with pytest.raises(ValueError, match="^the zero element has every degree; give one$"):
        class_of(ExtensionElement.zero(s))


def hamiltonian_cocycle(rng, s, k):
    """(f, x) of degree k with d f = i_x omega: a random symplectic x with
    its potential (x = 0 if i_x omega has none), plus a random cotensor in
    f if that one is closed, as every top-degree cotensor is."""
    x = random_symplectic(rng, s, k)
    f = hamiltonian_potential(x, s)
    if f is None:
        x, f = Tensor.zero(s.pair), Cotensor.zero(s.pair)
    g = random_cotensor(rng, s.pair, s.n - k, max_degree=2)
    return ExtensionElement(s, f + g if ce_differential(g).is_zero() else f, x)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(make=st.sampled_from([plane_structure, degenerate_structure, su2_cartan]),
       seed=st.integers(0, 2**32 - 1))
def test_class_of_ignores_coboundaries(make, seed):
    # z has a cotensor part and a symplectic tensor part, so d_omega(z)
    # runs through both halves of the coboundary span, d h and i_y omega;
    # on su(2) at k = -1, omega = i_1 omega is a coboundary but not exact
    s = make()
    rng = random.Random(seed)
    for k in range(-1, s.n):
        e = hamiltonian_cocycle(rng, s, k)
        z = ExtensionElement(s, random_cotensor(rng, s.pair, s.n - k - 1, max_degree=2),
                             random_symplectic(rng, s, k + 1))
        assert class_of(e + d_omega(z), degree=k) == class_of(e, degree=k)


def test_class_of_rejects_non_cocycles():
    s = plane_structure()
    e = ExtensionElement(s, Cotensor.zero(PLANE), Tensor.basis(PLANE, (1,)))
    with pytest.raises(NotACocycle) as exc:
        class_of(e)
    assert exc.value.residual.f == Cotensor(PLANE, {(2,): 1})


def test_coordinate_classes_are_nonzero_and_independent():
    s = plane_structure()
    cx, cy = coordinate_classes(s)
    assert not cx.is_zero() and not cy.is_zero()
    assert cx != cy
    assert cx.rep.f == Cotensor(PLANE, {(): "x"})


def test_constant_classes_die():
    s = plane_structure()
    e = ExtensionElement(s, Cotensor(PLANE, {(): 7}), Tensor.zero(PLANE))
    assert class_of(e, degree=1).is_zero()


def test_class_is_representative_independent():
    s = degenerate_structure()
    f = Cotensor(SPACE, {(): "x"})
    a = class_of(ExtensionElement(s, f, Tensor(SPACE, {(2,): -1})))
    b = class_of(ExtensionElement(s, f + Cotensor(SPACE, {(): 5}),
                                  Tensor(SPACE, {(2,): -1, (3,): "x"})))
    assert a == b


def test_poisson_bracket_of_coordinates_is_zero_class():
    s = plane_structure()
    cx, cy = coordinate_classes(s)
    out = poisson_bracket([cx, cy])
    assert out.degree == 1
    assert out.is_zero()


def test_unary_poisson_bracket_is_zero():
    s = plane_structure()
    cx, _ = coordinate_classes(s)
    assert poisson_bracket([cx]).is_zero()


def su2_cartan_class(s, g):
    f = hamiltonian_potential(Tensor.basis(s.pair, (g,)), s)
    return class_of(ExtensionElement(s, f, Tensor.basis(s.pair, (g,))))


def test_su2_cartan_bracket_mirrors_the_lie_algebra():
    s = su2_cartan()
    c1, c2 = su2_cartan_class(s, 1), su2_cartan_class(s, 2)
    out = poisson_bracket([c1, c2])
    expected = class_of(ExtensionElement(
        s, Cotensor(s.pair, {(3,): -1}), Tensor.basis(s.pair, (3,))))
    assert out == expected
    assert not out.is_zero()


def random_hamiltonian_class(rng, s, basis):
    x = Tensor.zero(s.pair)
    for b in basis:
        if rng.random() < 0.6:
            x = x + random_fraction(rng) * b
    f = hamiltonian_potential(x, s)
    assert f is not None
    return class_of(ExtensionElement(s, f, x), degree=1)


def test_poisson_jacobi_residual_is_zero_class():
    rng = random.Random(41)
    for s in (plane_structure(), su2_cartan()):
        op = ClassLinf(s)
        basis = symplectic_basis(s, 1, max_poly_degree=2)
        for arity in (3, 4, 5):
            for _ in range(2):
                classes = [random_hamiltonian_class(rng, s, basis)
                           for _ in range(arity)]
                assert jacobi_residual(op, classes).is_zero()


def test_class_arithmetic_stays_canonical():
    s = plane_structure()
    cx, cy = coordinate_classes(s)
    total = cx + cy
    assert total.rep.f == Cotensor(PLANE, {(): "x + y"})
    assert (Fraction(2) * cx).rep.f == Cotensor(PLANE, {(): "2*x"})
    assert (cx - cx).is_zero()


def test_a_polynomial_omega_has_no_weight_grading():
    # closed and nondegenerate, but contraction into 1 + x^2 raises the weight
    s = NPlecticStructure(SPACE, 2, Cotensor(SPACE, {(1, 2, 3): "1 + x^2"}))
    cocycle = ExtensionElement(s, Cotensor(SPACE, {(1,): 1}), Tensor.zero(SPACE))
    with pytest.raises(ValueError, match="weight-homogeneous"):
        class_of(cocycle, degree=1)
    with pytest.raises(ValueError, match="weight-homogeneous"):
        extension_cohomology_table(s, [1], [0])
    with pytest.raises(ValueError, match="weight-homogeneous"):
        extension_cohomology_rank(s, 1, 0)
