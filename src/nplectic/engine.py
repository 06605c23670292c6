"""n-plectic structures and their central extension complex.

An n-plectic structure on a pair is a closed cotensor of tensor degree
-(n+1).  Around it live:

* symplectic tensors (d i_x omega = 0), considered modulo the kernel of
  contraction into omega;
* Hamiltonian tensors, those with a potential: d f = i_x omega;
* the extension complex whose degree-k piece pairs symplectic tensors of
  wedge degree k with cotensors of word length n-k, carrying the
  differential (f, x) -> (i_x omega - d f, 0) and Bell-number weighted
  k-brackets ((f_1,x_1)..(f_k,x_k)) -> (B_{k-1} i_{x_k^..^x_1} omega,
  [x_1..x_k]), k the number of arguments; `symplectic_bracket` forms the
  unweighted pair, which the bracket of classes shares.

Everything is sliced by (wedge degree, polynomial degree) and solved with
exact linear algebra; the two shipped coefficient families keep every
slice finite.  A slice is built from its labels (word, monomial key), not
from elements: d of a label comes from `calculus.label_differential`, and
its contraction into omega is the word's contraction table, built once per
structure in its derived store, with every key shifted by the label's
monomial.  Slice vectors are label vectors, int numerators over one
denominator, and so are the null vectors and solutions read off them:
every quotient, the contraction kernel's included, is spanned from labels,
and no Tensor or Cotensor is built on the way.
`linalg` sees only sparse int rows: `matrix_of` lays label vectors out as
the columns of one integer matrix, a solve passing its right side as the
last column, and a `Quotient` maps the numerators of each vector to the
columns of its slice; where it spans only the part of some vectors that
d kills, d of them goes to negative columns.

The tensor slot of an extension element is always the canonical residue
of a symplectic tensor modulo the kernel.  It is checked once, when the
element is built from an arbitrary tensor; residues form a linear section,
so arithmetic and the brackets keep the invariant without checking again.
The check works on labels too: it reads the tensor's stored label
vector, i_x omega is the sum of its labels' contraction tables, d of that
comes from `calculus.differential_numerators`, and the residue is taken
part by part on the same vector.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .calculus import (
    MAX_BRACKET_ARITY,
    ce_differential,
    contract,
    differential_numerators,
    higher_bracket,
)
from .elements import (
    Cotensor,
    Tensor,
    ascending_words,
    label_element,
    label_vector,
    require_element,
    wedge_list,
)
from .linalg import Echelon, null_space, restricted_span, solve
from .pairs import PairDescriptor, pair_from_json, pair_to_json
from .scalars import (
    CapExceeded,
    as_int,
    as_rational,
    bell,
    combine,
    monomial_degree,
    monomials_exact,
    require_arity,
    require_exponents,
    sum_vectors,
)

DEFAULT_EXTENSION_ARITY_CAP = 6


class DegreeError(ValueError):
    """The would-be structure tensor has the wrong degree."""


class NotClosedError(ValueError):
    """The would-be structure tensor is not closed; carries the residual."""

    def __init__(self, residual: Cotensor):
        super().__init__(f"structure tensor is not closed; d omega = {residual!r}")
        self.residual = residual


class NPlecticStructure:
    """A validated pair (pair, n, omega) with omega closed of degree -(n+1)."""

    def __init__(self, pair: PairDescriptor, n: int, omega: Cotensor):
        if n < 1:
            raise DegreeError("n must be at least one")
        if omega.pair != pair:
            raise ValueError("omega lives over a different pair")
        if not omega.is_zero() and omega.grade != -(n + 1):
            raise DegreeError(
                f"omega must be homogeneous of degree {-(n + 1)}, got degrees {omega.degrees()}")
        residual = ce_differential(omega)
        if not residual.is_zero():
            raise NotClosedError(residual)
        self.pair = pair
        self.n = n
        self.omega = omega
        self._derived: dict = {}  # not part of __eq__, __hash__ or to_json

    def derived(self, key, build):
        """Slice data of this structure under key, from build() on first use."""
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

    def __eq__(self, other):
        return (isinstance(other, NPlecticStructure)
                and self.pair == other.pair and self.n == other.n
                and self.omega == other.omega)

    def __hash__(self):
        return hash((self.pair, self.n, self.omega))

    def __repr__(self):
        return f"NPlecticStructure(n={self.n}, omega={self.omega!r})"

    def to_json(self) -> dict:
        return {"pair": pair_to_json(self.pair), "n": self.n,
                "omega": self.omega.to_json()}


def structure_from_json(data: dict) -> NPlecticStructure:
    pair = pair_from_json(data["pair"])
    omega = Cotensor.from_json(pair, data["omega"])
    return NPlecticStructure(pair, as_int(data["n"], "'n'"), omega)


# ---------------------------------------------------------------------------
# finite slices and exact solving
# ---------------------------------------------------------------------------

# The most basis elements slice_basis builds, 30x the largest slice of the
# shipped models and benchmark inputs (336).  On a 2-vCPU Xeon with Python
# 3.11, d on a 9,900-element slice over 10 variables (word length 2,
# weight 3) is built from labels and ranked in 0.10 s, and on a
# 5,940-element slice over 12 variables (word length 4, weight 1) in
# 0.03 s.  d works per label, at most one target word per generator and
# bracket row, so the cap bounds the time of d as well as the number of
# labels.
MAX_SLICE_DIM = 10_000


def _monomial_count_upto(nvars: int, degree: int) -> int:
    """How many monomials have total degree <= degree."""
    return math.comb(nvars + degree, degree) if degree >= 0 else 0


def _degree_range(degrees):
    return range(degrees, degrees + 1) if isinstance(degrees, int) else degrees


def slice_size(pair, word_len: int, degrees) -> int:
    """The number of basis elements of a (co)tensor slice of one polynomial
    degree or a range of them; raises CapExceeded past MAX_SLICE_DIM."""
    degrees = _degree_range(degrees)
    size = 0
    if word_len >= 0 and degrees:
        count = _monomial_count_upto(pair.poly_nvars, degrees[-1])
        count -= _monomial_count_upto(pair.poly_nvars, degrees[0] - 1)
        size = math.comb(pair.ngens, word_len) * count
    if size > MAX_SLICE_DIM:
        raise CapExceeded(f"slice of word length {word_len} has {size} basis elements, "
                          f"more than {MAX_SLICE_DIM}")
    return size


def slice_basis(pair, word_len: int, degrees) -> list[tuple]:
    """Basis labels (word, monomial key) of a (co)tensor slice of one
    polynomial degree or a range of them, in ascending order; sizes the
    slice with `slice_size` first, before building any label."""
    if not slice_size(pair, word_len, degrees):
        return []
    monos = sorted(e for d in _degree_range(degrees)
                   for e in monomials_exact(pair.poly_nvars, d))
    return [(w, e) for w in ascending_words(pair.ngens, word_len) for e in monos]


def slice_coords(vec: dict, index: dict) -> dict[int, int]:
    """The integer columns of a label vector's numerators in a slice;
    raises if it leaves the slice window."""
    try:
        return {index[lab]: c for lab, c in vec.items()}
    except KeyError as exc:
        raise ValueError(f"element leaves the slice window at {exc.args[0]}") from None


def coords_vector(labels, coords: dict[int, int], den: int) -> tuple[dict, int]:
    """The label vector with the given nonzero sparse coordinates in a slice."""
    return {labels[i]: coords[i] for i in sorted(coords)}, den


def _closed_rows(pair, index: dict, vectors) -> list[dict[int, int]]:
    """The int rows [d c | c] of label vectors c in the slice of index: both
    blocks over the bracket denominator times c's own, the labels of d c at
    negative columns, in the order they are first met."""
    den = pair.bracket_den
    dcols: dict = {}
    rows = []
    for nums, _ in vectors:
        row = {i: c * den for i, c in slice_coords(nums, index).items()}
        for lab, c in differential_numerators(pair, nums).items():
            row[-1 - dcols.setdefault(lab, len(dcols))] = c
        rows.append(row)
    return rows


class Quotient:
    """A finite slice modulo the span of some label vectors, given in one or
    more groups; `ranks` holds the rank of the span after each group, and
    `reduce` gives the canonical representative, the residue against the
    span's echelon basis.  A span does not see denominators, so only the
    numerators of the spanning vectors go in.

    Given `closed_in`, label vectors c_j of the slice, the span starts with
    the part of theirs that d kills, {sum y_j c_j : sum y_j d c_j = 0}, as
    a group of its own.  It comes out of one elimination of the rows
    [d c_j | c_j] (`_closed_rows`), whose d block is cleared first
    (`linalg.restricted_span`): the rows left with a pivot in the c block
    are an echelon basis of it in the quotient's own column order, and the
    echelon grows from them.  A residue depends only on the span and that
    order, so it is the one a span of the closed combinations would give.
    """

    def __init__(self, pair, cls, labels, *spans, closed_in=None):
        # highest total degree first, so that pivots sit on the leading terms:
        # a normal form, whatever window the labels come from
        nvars = pair.poly_nvars
        self.labels = sorted(labels, key=lambda lab: (-monomial_degree(lab[1], nvars), lab))
        self.pair, self.cls = pair, cls
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        if closed_in is None:
            self.echelon, self.ranks = Echelon(), []
        else:
            self.echelon = restricted_span(_closed_rows(pair, self.index, closed_in))
            self.ranks = [self.echelon.rank]
        for spanning in spans:
            for nums, _ in spanning:
                self.echelon.add(slice_coords(nums, self.index))
            self.ranks.append(self.echelon.rank)

    def residue(self, nums: dict, den: int) -> tuple[dict, int]:
        """The canonical representative of the label vector (nums, den)."""
        coords, den = self.echelon.reduce(slice_coords(nums, self.index), den)
        return coords_vector(self.labels, coords, den)

    def reduce(self, elem):
        return label_element(self.pair, self.cls, *self.residue(*label_vector(elem)))


def matrix_of(vectors) -> list[dict[int, int]]:
    """Integer matrix with one column per label vector: one sparse row
    {column: int} per label appearing in any vector, in sorted label order.

    The entries are those of the vectors times the lcm of their
    denominators, a positive multiple of the matrix with the same rank and
    null space.  Given [A | b], the columns of A and then b, the multiple
    has the same solutions too: `linalg.solve` reads b off the last column.
    """
    scale = math.lcm(*[den for _, den in vectors])
    rows: dict[tuple, dict[int, int]] = {}
    for col, (nums, den) in enumerate(vectors):
        f = scale // den
        for lab, c in nums.items():
            rows.setdefault(lab, {})[col] = c * f
    return [rows[lab] for lab in sorted(rows)]


def shift_weight(pair, r: int) -> int:
    """The weight of a cotensor h whose d h has weight r: d drops the
    polynomial degree by one on the polynomial family only."""
    return r + 1 if pair.poly_nvars else r


def differential_slice(pair, word_len: int, weight: int):
    """Labels of the cotensor slice of one word length and polynomial
    degree, and the label vector of d h for each of its basis elements,
    read off `calculus.label_differential`."""
    labels = slice_basis(pair, word_len, weight)
    den = pair.bracket_den
    return labels, [(differential_numerators(pair, {lab: 1}), den) for lab in labels]


def label_contraction(s: NPlecticStructure, word, key) -> tuple[dict, int]:
    """The label vector of i_x omega for the slice label x = x^key e_word;
    callers must not change it.

    i_{x^a e_w} omega = x^a i_{e_w} omega, so it is the word's contraction
    table, the label vector of i_{e_w} omega built once per structure and
    word in its derived store, with every monomial key shifted by a.  A
    shift past MAX_EXPONENT raises CapExceeded, as a Poly product does.
    """
    nums, den = s.derived(("contraction", word),
                          lambda: label_vector(contract(Tensor.basis(s.pair, word), s.omega)))
    if not key:
        return nums, den
    shifted = {(w, e + key): c for (w, e), c in nums.items()}
    require_exponents((e for _, e in shifted), s.pair.poly_nvars)
    return shifted, den


# ---------------------------------------------------------------------------
# symplectic and Hamiltonian tensors
# ---------------------------------------------------------------------------

def _closed_image(s: NPlecticStructure, nums: dict, den: int) -> tuple[dict, int] | None:
    """The label vector of i_x omega for the tensor x with label vector
    (nums, den), or None when d i_x omega != 0: the one symplectic test.

    i_x omega is the sum of the contraction tables of x's labels
    (`label_contraction`), each times its coefficient, and d acts on it
    through `differential_numerators`; no element is built.
    """
    image = combine((dict(enumerate(nums.values())), den),
                    [label_contraction(s, w, e) for w, e in nums])
    return None if differential_numerators(s.pair, image[0]) else image


def is_symplectic(x: Tensor, s: NPlecticStructure) -> bool:
    """d i_x omega = 0, tested on the label vector of x (`_closed_image`)."""
    require_element(s.pair, Tensor, x)
    return _closed_image(s, *label_vector(x)) is not None


def symplectic_slice(s: NPlecticStructure, degree: int, degrees):
    """Symplectic tensors of one wedge degree, in the polynomial degrees of
    `slice_basis`.

    Returns (labels, null): the labels of the tensor slice and the sparse
    coordinates of a basis of its symplectic tensors as (int numerators,
    denominator).  The symplectic basis is the null space of d on the
    labels' contractions (`label_contraction`).  Above degree n + 1 every
    contraction into the (n + 1)-form omega is zero, so every tensor is
    symplectic and nothing is contracted.
    """
    labels = slice_basis(s.pair, degree, degrees)
    if degree > s.n + 1:
        return labels, null_space([], len(labels))
    vectors = [label_contraction(s, w, e) for w, e in labels]
    den = s.pair.bracket_den
    rows = matrix_of([(differential_numerators(s.pair, nums), d * den) for nums, d in vectors])
    return labels, null_space(rows, len(labels))


def symplectic_vectors(s: NPlecticStructure, degree: int,
                       max_poly_degree: int = 3) -> list[tuple[dict, int]]:
    """Label vectors of a basis of symplectic tensors of one wedge degree
    within a poly window, kept in the structure's derived store; callers
    must not change them."""
    def build():
        labels, null = symplectic_slice(s, degree, range(max_poly_degree + 1))
        return [coords_vector(labels, *vec) for vec in null]
    return s.derived(("symplectic", degree, max_poly_degree), build)


def symplectic_basis(s: NPlecticStructure, degree: int, max_poly_degree: int = 3):
    """Basis of symplectic tensors of one wedge degree within a poly window."""
    return [label_element(s.pair, Tensor, *vec)
            for vec in symplectic_vectors(s, degree, max_poly_degree)]


def _kernel_window(s: NPlecticStructure, degree: int, max_poly_degree: int):
    """Labels of the tensor slice of one wedge degree in a poly window, and
    the label vectors of a basis of the null space of their contractions."""
    labels = slice_basis(s.pair, degree, range(max_poly_degree + 1))
    rows = matrix_of([label_contraction(s, w, e) for w, e in labels])
    return labels, [coords_vector(labels, *vec) for vec in null_space(rows, len(labels))]


def kernel_basis(s: NPlecticStructure, degree: int, max_poly_degree: int = 3):
    """Basis of the contraction kernel {x : i_x omega = 0} of one wedge degree
    within a poly window."""
    return [label_element(s.pair, Tensor, *vec)
            for vec in _kernel_window(s, degree, max_poly_degree)[1]]


def reduce_mod_kernel(s: NPlecticStructure, x: Tensor) -> Tensor:
    """Canonical representative of x modulo the contraction kernel.

    Works on the label vector of x, split by word length, each part in the
    window of x's polynomial degree: its residue against the window's
    kernel quotient (`Quotient.residue`), with one Tensor built from the
    parts at the end.  The quotient pivots on the highest degree, so the
    representative does not depend on the window or on the representative
    x started from.  A window whose kernel has rank 0 leaves its part as
    it is, and when every window has rank 0 the result is x itself.
    """
    require_element(s.pair, Tensor, x)
    pd = max(x.max_poly_degree(), 0)
    residues, moved = [], False
    for degree, part in x.homogeneous_parts().items():
        kernel = s.derived(("kernel", degree, pd),
                           lambda: Quotient(s.pair, Tensor, *_kernel_window(s, degree, pd)))
        if kernel.echelon.rank:
            residues.append(kernel.residue(*label_vector(part)))
            moved = True
        else:
            residues.append(label_vector(part))
    return label_element(s.pair, Tensor, *sum_vectors(residues)) if moved else x


def hamiltonian_potential(x: Tensor, s: NPlecticStructure) -> Cotensor | None:
    """One exact solution f of d f = i_x omega, or None if there is none.

    The input must be symplectic (i_x omega closed), otherwise ValueError;
    the test and the label vector of i_x omega are those of
    `is_symplectic`.  Solving happens per (word length, polynomial degree)
    slice of that vector, on the matrix of [d | the slice part of i_x
    omega]; free variables are pinned to zero, so the answer is canonical.
    A component that d cannot reach (a label no d h has, or word length
    zero, an empty source) gives a pivot in the last column, and so no
    solution.
    """
    require_element(s.pair, Tensor, x)
    image = _closed_image(s, *label_vector(x))
    if image is None:
        raise ValueError("potential only makes sense for symplectic tensors")
    solutions = []
    for (deg, pd), part in label_element(s.pair, Cotensor, *image).bigraded_parts().items():
        labels, exact = differential_slice(s.pair, -deg - 1, shift_weight(s.pair, pd))
        sol = solve(matrix_of(exact + [label_vector(part)]), len(labels))
        if sol is None:
            return None
        solutions.append(coords_vector(labels, *sol))
    return label_element(s.pair, Cotensor, *sum_vectors(solutions))


# ---------------------------------------------------------------------------
# the extension complex
# ---------------------------------------------------------------------------

class ExtensionElement:
    """Pair (f, x): a cotensor alongside a symplectic tensor.

    x is the canonical residue of the tensor modulo the contraction kernel.
    The constructor is the one checked entry: it rejects a tensor that is
    not symplectic (`is_symplectic`) and keeps its residue
    (`reduce_mod_kernel`), both read off the tensor's stored label vector.
    Residues are a normal form, so sums, negatives and rational multiples
    of residues are residues again; arithmetic and `canonical` build
    elements without re-checking.

    Homogeneous of degree k when the tensor has wedge degree k and the
    cotensor has word length n - k (the n-shift of its tensor degree).
    """

    __slots__ = ("structure", "f", "x")

    def __init__(self, structure: NPlecticStructure, f: Cotensor, x: Tensor):
        if f.pair != structure.pair:
            raise ValueError("cotensor lives over a different pair")
        if not is_symplectic(x, structure):
            raise ValueError(f"not a symplectic tensor: {x!r}")
        self.structure = structure
        self.f = f
        self.x = reduce_mod_kernel(structure, x)

    @classmethod
    def canonical(cls, structure: NPlecticStructure, f: Cotensor, x: Tensor):
        """The element (f, x) for an x that already is a canonical residue."""
        e = object.__new__(cls)
        e.structure, e.f, e.x = structure, f, x
        return e

    @classmethod
    def zero(cls, structure):
        return cls.canonical(structure, Cotensor.zero(structure.pair), Tensor.zero(structure.pair))

    def is_zero(self) -> bool:
        return self.f.is_zero() and self.x.is_zero()

    def degree(self) -> int | None:
        """Degree as an element of the shifted extension complex."""
        n = self.structure.n
        degs = set(self.x.degrees())
        degs |= {n + d for d in self.f.degrees()}
        if len(degs) == 1:
            return degs.pop()
        return None

    def __add__(self, other):
        assert self.structure == other.structure
        return ExtensionElement.canonical(self.structure, self.f + other.f, self.x + other.x)

    def __neg__(self):
        return ExtensionElement.canonical(self.structure, -self.f, -self.x)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        """Rational multiples only: a ring multiple need not stay symplectic."""
        c = as_rational(scalar)
        return ExtensionElement.canonical(self.structure, c * self.f, c * self.x)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, ExtensionElement)
                and self.structure == other.structure
                and self.f == other.f and self.x == other.x)

    def __hash__(self):
        return hash((self.f, self.x))

    def __repr__(self):
        return f"({self.f!r}, [{self.x!r}])"

    def to_json(self):
        return {"f": self.f.to_json(), "x": self.x.to_json()}

    @classmethod
    def from_json(cls, structure, data):
        f = Cotensor.from_json(structure.pair, data.get("f", []))
        x = Tensor.from_json(structure.pair, data.get("x", []))
        return cls(structure, f, x)


def d_omega(e: ExtensionElement) -> ExtensionElement:
    """Extension differential (f, x) -> (i_x omega - d f, 0); squares to zero."""
    s = e.structure
    new_f = contract(e.x, s.omega) - ce_differential(e.f)
    return ExtensionElement.canonical(s, new_f, Tensor.zero(s.pair))


def symplectic_bracket(s: NPlecticStructure, xs, pairs=None) -> ExtensionElement:
    """(i_{x_k ^..^ x_1} omega, [x_1..x_k]) on symplectic tensors xs.

    The arity is checked first, so an arity past MAX_BRACKET_ARITY raises
    CapExceeded even with a zero argument.  Both slots are multilinear, so
    a zero argument then gives zero without any further work.  The
    fundamental pairing makes the bracket symplectic, so it is only
    reduced, not re-checked.  `pairs` goes to `higher_bracket`.
    """
    xs = list(xs)
    require_arity(len(xs), MAX_BRACKET_ARITY)
    if any(x.is_zero() for x in xs):
        return ExtensionElement.zero(s)
    x = reduce_mod_kernel(s, higher_bracket(xs, pairs))
    return ExtensionElement.canonical(s, contract_reversed_wedge(s, xs), x)


def weighted_bracket(s: NPlecticStructure, xs, pairs=None) -> ExtensionElement:
    """(B_{k-1} i_{x_k ^..^ x_1} omega, [x_1..x_k]) on symplectic tensors xs:
    the extension bracket, which reads only the tensor slots."""
    xs = list(xs)
    e = symplectic_bracket(s, xs, pairs)
    return ExtensionElement.canonical(s, Fraction(bell(len(xs) - 1)) * e.f, e.x)


def extension_bracket(es, pairs=None) -> ExtensionElement:
    """k-ary bracket (B_{k-1} i_{x_k ^..^ x_1} omega, [x_1..x_k]), k = len(es);
    `pairs` goes to `higher_bracket`."""
    es = list(es)
    if len(es) < 2:
        raise ValueError("the unary operation of the extension complex is d_omega")
    return weighted_bracket(es[0].structure, [arg.x for arg in es], pairs)


def contract_reversed_wedge(s: NPlecticStructure, xs) -> Cotensor:
    """i_{x_k ^..^ x_1} omega, omega contracted with the reversed wedge of xs.

    Each x is checked against the pair first, as the wedge would check it.
    omega has word length n + 1, so when the least degrees of the xs sum
    past n + 1, or an x is zero, the contraction is zero and no wedge is
    formed.
    """
    xs = list(xs)
    for x in xs:
        require_element(s.pair, Tensor, x)
    if sum(min(x.degrees(), default=s.n + 2) for x in xs) > s.n + 1:
        return Cotensor.zero(s.pair)
    return contract(wedge_list(s.pair, Tensor, xs[::-1]), s.omega)


def fundamental_pairing_check(xs, s: NPlecticStructure):
    """Check i_{[x_1..x_k]} omega = d i_{x_k ^..^ x_1} omega on symplectic xs.

    Returns (ok, lhs, rhs) so callers can report the residual.
    """
    xs = list(xs)
    lhs = contract(higher_bracket(xs), s.omega)
    rhs = ce_differential(contract_reversed_wedge(s, xs))
    return lhs == rhs, lhs, rhs
