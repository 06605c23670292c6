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
slice finite.

The tensor slot of an extension element is always the canonical residue
of a symplectic tensor modulo the kernel.  It is checked once, when the
element is built from an arbitrary tensor; residues form a linear section,
so arithmetic and the brackets keep the invariant without checking again.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .calculus import MAX_BRACKET_ARITY, ce_differential, contract, higher_bracket
from .elements import Cotensor, Tensor, ascending_words, wedge_list
from .linalg import Echelon, null_space, solve
from .pairs import PairDescriptor, pair_from_json, pair_to_json
from .scalars import CapExceeded, Poly, as_int, as_rational, bell, require_arity, sparse_sum

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
# shipped models and benchmark inputs (336).  On a 2-vCPU Xeon, d on a
# 9,900-element slice over 10 variables is built and ranked in 1.8 s, and
# on a 5,940-element slice over 12 variables in 0.4 s.  d works per term of
# its input, at most one target word per generator and bracket row, so the
# cap bounds the time of d as well as the number of elements.
MAX_SLICE_DIM = 10_000


def monomials_exact(nvars: int, degree: int):
    """All exponent tuples of total degree `degree`, sorted.

    Stars and bars: nvars - 1 ascending cuts of 0..degree; the exponents
    are the gaps between them, so lexicographic cuts give lexicographic
    exponents.
    """
    if degree < 0 or nvars == 0:
        return [()] if degree == 0 else []
    return [tuple(map(operator.sub, (*cuts, degree), (0, *cuts)))
            for cuts in itertools.combinations_with_replacement(range(degree + 1), nvars - 1)]


def _monomial_count_upto(nvars: int, degree: int) -> int:
    """How many exponent tuples have total degree <= degree."""
    return math.comb(nvars + degree, degree) if degree >= 0 else 0


def slice_basis(pair, word_len: int, degrees) -> list[tuple]:
    """Basis labels (word, exponent) of a (co)tensor slice of one polynomial
    degree or a range of them; counts them first and raises CapExceeded
    past MAX_SLICE_DIM, before building any."""
    if isinstance(degrees, int):
        degrees = range(degrees, degrees + 1)
    nvars = pair.poly_nvars
    size = 0
    if word_len >= 0 and degrees:
        count = _monomial_count_upto(nvars, degrees[-1])
        count -= _monomial_count_upto(nvars, degrees[0] - 1)
        size = math.comb(pair.ngens, word_len) * count
    if size > MAX_SLICE_DIM:
        raise CapExceeded(f"slice of word length {word_len} has {size} basis elements, "
                          f"more than {MAX_SLICE_DIM}")
    if not size:
        return []
    monos = sorted(e for d in degrees for e in monomials_exact(nvars, d))
    return [(w, e) for w in ascending_words(pair.ngens, word_len) for e in monos]


def basis_elements(pair, cls, labels):
    """Unit-monomial elements of a slice; labels from slice_basis need no checks."""
    zero = cls(pair)
    return [zero._make({w: Poly._from_nums(pair.poly_nvars, {e: 1})}) for w, e in labels]


def label_vector(elem) -> dict[tuple, Fraction]:
    """The one flattening of an element: its coefficients keyed by slice
    label (word, exponent), the form of every slice vector."""
    return {(w, e): c for w, poly in elem.terms.items() for e, c in poly.coefficients()}


def slice_coords(vec: dict, index: dict) -> dict[int, Fraction]:
    """The integer columns of a label vector in a slice; raises if it
    leaves the slice window."""
    try:
        return {index[lab]: c for lab, c in vec.items()}
    except KeyError as exc:
        raise ValueError(f"element leaves the slice window at {exc.args[0]}") from None


def coords_element(pair, cls, labels, coords: dict[int, Fraction]):
    """The element with the given nonzero sparse coordinates in a slice."""
    terms = {}
    for i in sorted(coords):
        w, e = labels[i]
        terms.setdefault(w, {})[e] = coords[i]
    return cls(pair)._make({w: Poly(pair.poly_nvars, t) for w, t in terms.items()})


class Quotient:
    """A finite slice modulo the span of some label vectors, given in one or
    more groups; `ranks` holds the rank of the span after each group, and
    `reduce` gives the canonical representative, the residue against the
    span's reduced echelon basis."""

    def __init__(self, pair, cls, labels, *spans):
        # highest total degree first, so that pivots sit on the leading terms:
        # a normal form, whatever window the labels come from
        self.labels = sorted(labels, key=lambda lab: (-sum(lab[1]), lab))
        self.pair, self.cls = pair, cls
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self.echelon = Echelon()
        self.ranks = []
        for spanning in spans:
            for vec in spanning:
                self.echelon.add(slice_coords(vec, self.index))
            self.ranks.append(self.echelon.rank)

    def reduce(self, elem):
        coords = self.echelon.reduce(slice_coords(label_vector(elem), self.index))
        return coords_element(self.pair, self.cls, self.labels, coords)


def matrix_of(vectors):
    """Matrix with one column per label vector; the target window is inferred.

    Returns (rows, tgt_labels): one sparse row {column: entry} per label
    appearing in any vector, in sorted label order.
    """
    rows: dict[tuple, dict[int, Fraction]] = {}
    for col, vec in enumerate(vectors):
        for lab, c in vec.items():
            rows.setdefault(lab, {})[col] = c
    tgt_labels = sorted(rows)
    return [rows[lab] for lab in tgt_labels], tgt_labels


def shift_weight(pair, r: int) -> int:
    """The weight of a cotensor h whose d h has weight r: d drops the
    polynomial degree by one on the polynomial family only."""
    return r + 1 if pair.poly_nvars else r


def differential_slice(pair, word_len: int, weight: int):
    """Labels of the cotensor slice of one word length and polynomial
    degree, and the label vector of d h for each of its basis elements."""
    labels = slice_basis(pair, word_len, weight)
    return labels, [label_vector(ce_differential(h))
                    for h in basis_elements(pair, Cotensor, labels)]


# ---------------------------------------------------------------------------
# symplectic and Hamiltonian tensors
# ---------------------------------------------------------------------------

def is_symplectic(x: Tensor, s: NPlecticStructure) -> bool:
    """d i_x omega = 0."""
    return ce_differential(contract(x, s.omega)).is_zero()


def symplectic_slice(s: NPlecticStructure, degree: int, degrees):
    """Symplectic tensors of one wedge degree, in the polynomial degrees of
    `slice_basis`.

    Returns (labels, null, images): the labels of the tensor slice, the
    sparse coordinates of a basis of its symplectic tensors, and the label
    vector of each one's image i_x omega.  Each slice basis tensor is
    contracted into omega once; the symplectic basis is the null space of
    d on the contractions, and its images are the same combinations of
    their vectors.  Above degree n + 1 every contraction into the
    (n + 1)-form omega is zero, so every tensor is symplectic with image
    zero and nothing is contracted.
    """
    labels = slice_basis(s.pair, degree, degrees)
    if degree > s.n + 1:
        return labels, null_space([], len(labels)), [{} for _ in labels]
    contractions = [contract(x, s.omega) for x in basis_elements(s.pair, Tensor, labels)]
    rows, _ = matrix_of([label_vector(ce_differential(c)) for c in contractions])
    null = null_space(rows, len(labels))
    vectors = [label_vector(c) for c in contractions]
    return labels, null, [sparse_sum((lab, a * c) for i, a in vec.items()
                                     for lab, c in vectors[i].items()) for vec in null]


def symplectic_basis(s: NPlecticStructure, degree: int, max_poly_degree: int = 3):
    """Basis of symplectic tensors of one wedge degree within a poly window."""
    def build():
        labels, null, _ = symplectic_slice(s, degree, range(max_poly_degree + 1))
        return [coords_element(s.pair, Tensor, labels, vec) for vec in null]
    return list(s.derived(("symplectic", degree, max_poly_degree), build))


def kernel_basis(s: NPlecticStructure, degree: int, max_poly_degree: int = 3):
    """Basis of the contraction kernel {x : i_x omega = 0} of one wedge degree
    within a poly window."""
    labels = slice_basis(s.pair, degree, range(max_poly_degree + 1))
    rows, _ = matrix_of([label_vector(contract(x, s.omega))
                         for x in basis_elements(s.pair, Tensor, labels)])
    return [coords_element(s.pair, Tensor, labels, vec) for vec in null_space(rows, len(labels))]


def reduce_mod_kernel(s: NPlecticStructure, x: Tensor) -> Tensor:
    """Canonical representative of x modulo the contraction kernel.

    Works slice by slice, in the window of x's polynomial degree.  The
    quotient pivots on the highest degree, so the representative does not
    depend on the window or on the representative x started from.  A
    window whose kernel has rank 0 leaves its part as it is; the part lies
    in the window by construction.
    """
    out = Tensor.zero(s.pair)
    pd = max(x.max_poly_degree(), 0)
    for degree, part in x.homogeneous_parts().items():
        kernel = s.derived(("kernel", degree, pd), lambda: Quotient(
            s.pair, Tensor, slice_basis(s.pair, degree, range(pd + 1)),
            [label_vector(k) for k in kernel_basis(s, degree, pd)]))
        out = out + (kernel.reduce(part) if kernel.echelon.rank else part)
    return out


def hamiltonian_potential(x: Tensor, s: NPlecticStructure) -> Cotensor | None:
    """One exact solution f of d f = i_x omega, or None if there is none.

    The input must be symplectic (i_x omega closed), otherwise ValueError.
    Solving happens per (word length, polynomial degree) slice; free
    variables are pinned to zero, so the answer is canonical.  A component
    that d cannot reach (word length zero, empty source) has no solution.
    """
    image = contract(x, s.omega)
    if not ce_differential(image).is_zero():
        raise ValueError("potential only makes sense for symplectic tensors")
    out = Cotensor.zero(s.pair)
    for (deg, pd), part in image.bigraded_parts().items():
        labels, exact = differential_slice(s.pair, -deg - 1, shift_weight(s.pair, pd))
        rows, tgt_labels = matrix_of(exact)
        try:
            rhs = slice_coords(label_vector(part), {lab: i for i, lab in enumerate(tgt_labels)})
        except ValueError:
            return None  # the slice image cannot reach this component
        sol = solve(rows, rhs, len(labels))
        if sol is None:
            return None
        out = out + coords_element(s.pair, Cotensor, labels, sol)
    return out


# ---------------------------------------------------------------------------
# the extension complex
# ---------------------------------------------------------------------------

class ExtensionElement:
    """Pair (f, x): a cotensor alongside a symplectic tensor.

    x is the canonical residue of the tensor modulo the contraction kernel.
    The constructor is the one checked entry: it rejects a tensor that is
    not symplectic and reduces the rest.  Residues are a normal form, so
    sums, negatives and rational multiples of residues are residues again;
    arithmetic and `canonical` build elements without re-checking.

    Homogeneous of degree k when the tensor has wedge degree k and the
    cotensor has word length n - k (the n-shift of its tensor degree).
    """

    __slots__ = ("structure", "f", "x")

    def __init__(self, structure: NPlecticStructure, f: Cotensor, x: Tensor):
        if f.pair != structure.pair:
            raise ValueError("cotensor lives over a different pair")
        if x.pair != structure.pair:
            raise ValueError("tensor lives over a different pair")
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
        Tensor.zero(s.pair)._check(x)
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
