"""Cohomology of the extension complex and the Poisson algebra of classes.

The extension complex is graded by element degree k and, on the polynomial
family, further by a weight r: tensor coefficients of degree r, cotensor
coefficients of degree r + 1.  The differential drops both by one, so each
(k, r) slice is finite and its ranks are exact integers.  The image at
(k, r) is always taken from the full (k+1, r+1) slice, even when that slice
falls outside a reporting window, so the tables never show truncation
artifacts.

The tensor half of a slice enters only through its images i_x omega.  The
differential sees a tensor only through its image, and contraction is
injective on symplectic tensors modulo its kernel, so the linearly
independent images in the target cotensor slice stand for a basis of that
quotient.  No kernel quotient of the tensors is built, and each slice
basis tensor is contracted into omega once.

Between the calculus and the elimination every slice vector, image or
d h, is a label vector {(word, exponent): Fraction}.  Each extension slice
is eliminated once, and no element is rebuilt on the way to a rank.

Classes are held by canonical representatives: the tensor slot is already
reduced modulo the contraction kernel, and the cotensor slot is reduced
modulo the coboundary span, which is generated by exact cotensors d h
together with contractions i_y omega over symplectic y of one degree
higher.  Canonical representatives form a linear section, so class
arithmetic happens directly on them.

The bracket of classes pairs the contraction of the reversed wedge with
the higher bracket of the tensor parts.  Unlike the chain-level brackets
it carries no Bell-number weight: the fundamental pairing then makes every
bracket value a cocycle on the nose.
"""

from __future__ import annotations

from .calculus import higher_bracket
from .elements import Cotensor
from .engine import (
    DEFAULT_EXTENSION_ARITY_CAP,
    ExtensionElement,
    NPlecticStructure,
    Quotient,
    contract_reversed_wedge,
    d_omega,
    differential_slice,
    matrix_of,
    reduce_mod_kernel,
    shift_weight,
    slice_basis,
    slice_coords,
    symplectic_slice,
)
from .linalg import Echelon, rank_fraction_free
from .scalars import CapExceeded


# ---------------------------------------------------------------------------
# plain Chevalley-Eilenberg ranks
# ---------------------------------------------------------------------------

def ce_matrix(pair, word_len: int, weight: int = 0):
    """Sparse rows of the matrix of d on one cotensor slice, plus the slice labels."""
    labels, exact = differential_slice(pair, word_len, weight)
    return matrix_of(exact)[0], labels


def ce_cohomology_rank(pair, word_len: int, weight: int = 0) -> dict:
    """Exact ranks of the cotensor complex at one (word length, weight) slice."""
    return ce_cohomology_table(pair, [word_len], [weight])[0]


def ce_cohomology_table(pair, degrees, weights=(0,)) -> list[dict]:
    """One rank row per (word length, weight); each slice's d is ranked once."""
    def differential(wl, w):
        rows, labels = ce_matrix(pair, wl, w)
        return rank_fraction_free(rows), len(labels)
    return _rank_table(degrees, weights, differential,
                       lambda wl, w: (wl - 1, shift_weight(pair, w)))


def _rank_table(degrees, weights, differential, source) -> list[dict]:
    """Rank rows of a complex sliced by (degree, weight).

    differential(deg, w) gives (rank of d on that slice, slice dimension)
    and runs once per slice, through a dict local to the call; source(deg, w)
    names the slice whose d lands in (deg, w).
    """
    ranks: dict = {}

    def rank_and_dim(key):
        if key not in ranks:
            ranks[key] = differential(*key)
        return ranks[key]

    rows = []
    for w in weights:
        for deg in degrees:
            rank, dim = rank_and_dim((deg, w))
            im, _ = rank_and_dim(source(deg, w))
            rows.append({"degree": deg, "weight": w, "dim": dim,
                         "kernel": dim - rank, "image": im, "rank": dim - rank - im})
    return rows


# ---------------------------------------------------------------------------
# extension slices
# ---------------------------------------------------------------------------

def extension_slice(s: NPlecticStructure, k: int, r: int):
    """The (degree k, weight r) slice and its differential (f, x) ->
    i_x omega - d f, eliminated in one Echelon: the images i_x omega go
    in first, and those that enlarge it stand for the tensor half (see the
    module docstring); the d h of the cotensor basis follow.

    Returns (images, rank, dim): the label vectors of those images, the
    rank of the differential and the slice dimension.
    """
    pair = s.pair
    index = {lab: i for i, lab in enumerate(slice_basis(pair, s.n + 1 - k, r))}
    echelon = Echelon()
    images = [img for img in symplectic_slice(s, k, r)[2]
              if echelon.add(slice_coords(img, index))]
    _, exact = differential_slice(pair, s.n - k, shift_weight(pair, r))
    for dh in exact:
        echelon.add(slice_coords(dh, index))
    return images, echelon.rank, len(images) + len(exact)


def require_constant_omega(s: NPlecticStructure) -> None:
    """Raise ValueError unless omega has constant coefficients.

    Slices and classes use the weight grading, which needs contraction
    into omega to keep the weight; a polynomial coefficient raises it.
    """
    if s.omega.max_poly_degree() > 0:
        raise ValueError("omega is not weight-homogeneous: the weight grading of "
                         "extension cohomology needs constant coefficients")


def extension_cohomology_rank(s: NPlecticStructure, k: int, r: int) -> dict:
    """Exact ranks of the extension complex at one (degree, weight) slice."""
    return extension_cohomology_table(s, [k], [r])[0]


def extension_cohomology_table(s: NPlecticStructure, degrees, weights) -> list[dict]:
    """One rank row per (degree, weight); each slice's differential is ranked once."""
    require_constant_omega(s)

    return _rank_table(degrees, weights, lambda k, r: extension_slice(s, k, r)[1:],
                       lambda k, r: (k + 1, shift_weight(s.pair, r)))


# ---------------------------------------------------------------------------
# classes and their canonical representatives
# ---------------------------------------------------------------------------

class NotACocycle(ValueError):
    """Raised when asking for the class of a non-cocycle; carries the residual."""

    def __init__(self, residual: ExtensionElement):
        super().__init__(f"not a cocycle; d_omega residual = {residual!r}")
        self.residual = residual


def _coboundary_quotient(s: NPlecticStructure, k: int, word_len: int, pd: int) -> Quotient:
    """One cotensor slice modulo the coboundary span, built once per structure.

    Coboundaries reaching the function slot of degree-k elements are the
    exact pieces d h and the contractions i_y omega with y symplectic of
    wedge degree k + 1, the images `symplectic_slice` returns.
    """
    def build():
        pair = s.pair
        _, exact = differential_slice(pair, word_len - 1, shift_weight(pair, pd))
        contractions = symplectic_slice(s, k + 1, pd)[2]
        return Quotient(pair, Cotensor, slice_basis(pair, word_len, pd), exact + contractions)
    return s.derived(("coboundary", k, word_len, pd), build)


class CohomClass:
    """A cohomology class of the extension complex, by canonical representative."""

    __slots__ = ("structure", "degree", "rep")

    def __init__(self, structure: NPlecticStructure, degree: int, rep: ExtensionElement):
        self.structure = structure
        self.degree = degree
        self.rep = rep

    @classmethod
    def zero(cls, structure, degree):
        return cls(structure, degree, ExtensionElement.zero(structure))

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    def __eq__(self, other):
        return (isinstance(other, CohomClass)
                and self.structure == other.structure
                and self.degree == other.degree and self.rep == other.rep)

    def __hash__(self):
        return hash((self.degree, self.rep))

    def __add__(self, other):
        # canonical representatives form a linear section, so no re-reduction
        assert self.structure == other.structure and self.degree == other.degree
        return CohomClass(self.structure, self.degree, self.rep + other.rep)

    def __neg__(self):
        return CohomClass(self.structure, self.degree, -self.rep)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        return CohomClass(self.structure, self.degree, scalar * self.rep)

    __rmul__ = __mul__

    def __repr__(self):
        return f"<{self.rep!r}>"

    def to_json(self):
        return {"degree": self.degree, **self.rep.to_json()}


def class_of(e: ExtensionElement, degree: int | None = None) -> CohomClass:
    """Canonical class of a cocycle; raises NotACocycle otherwise.

    An explicit degree must agree with the element's own degree, if it has
    one.  Raises ValueError unless omega has constant coefficients.
    """
    require_constant_omega(e.structure)
    residual = d_omega(e)
    if not residual.is_zero():
        raise NotACocycle(residual)
    own = e.degree()
    if own is not None and degree is not None and degree != own:
        raise ValueError(f"element has degree {own}, not {degree}")
    k = degree if degree is not None else own
    if k is None:
        raise ValueError("class of a non-homogeneous element needs an explicit degree")
    s = e.structure
    f_new = Cotensor.zero(s.pair)
    for (d, pd), part in e.f.bigraded_parts().items():
        f_new = f_new + _coboundary_quotient(s, k, -d, pd).reduce(part)
    return CohomClass(s, k, ExtensionElement.canonical(s, f_new, e.x))


# ---------------------------------------------------------------------------
# the Poisson algebra of classes
# ---------------------------------------------------------------------------

def poisson_bracket(k: int, classes, cap: int = DEFAULT_EXTENSION_ARITY_CAP) -> CohomClass:
    """k-ary bracket of classes; unary is zero, higher arities are cocycles."""
    classes = list(classes)
    if len(classes) != k:
        raise ValueError(f"expected {k} arguments, got {len(classes)}")
    if k > cap:
        raise CapExceeded(f"bracket arity {k} exceeds cap {cap}")
    s = classes[0].structure
    out_degree = sum(c.degree for c in classes) - 1
    if k == 1:
        return CohomClass.zero(s, out_degree)
    xs = [c.rep.x for c in classes]
    # symplectic by the fundamental pairing, so only reduced
    e = ExtensionElement.canonical(s, contract_reversed_wedge(s, xs),
                                   reduce_mod_kernel(s, higher_bracket(k, xs)))
    if e.is_zero():
        return CohomClass.zero(s, out_degree)
    return class_of(e, degree=out_degree)
