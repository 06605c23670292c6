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
quotient.  No kernel quotient of the tensors is built, and no symplectic
tensor either: the images are the part of the span of the tensor labels'
contractions c that d kills, read off one elimination of the rows
[d c | c] with the d block cleared first (`engine.Quotient`'s
`closed_in`).

Every slice vector, contraction, d of one or d h, is a label vector built
from the slice labels alone, as in `engine`: each extension slice is one
elimination, on integers, with no null space or back-substitution, and no
element is built on the way to a rank.

Classes are held by canonical representatives: the tensor slot is already
reduced modulo the contraction kernel, and the cotensor slot is reduced
modulo the coboundary span.  That span is the image of the differential
from one degree higher, the contractions i_y omega over symplectic y and
the exact cotensors d h, so a degree-k class reads it off the quotient of
`extension_slice(s, k + 1, r)`, which the rank table reads its ranks from.
Canonical representatives form a linear section, so class arithmetic
happens directly on them.  A class has one degree, so only a homogeneous
cocycle has one.

The bracket of classes is `engine.symplectic_bracket` of the tensor parts,
the contraction of their reversed wedge paired with their higher bracket,
and then its class.  Unlike the chain-level brackets it carries no
Bell-number weight: the fundamental pairing then makes every bracket value
a cocycle on the nose.
"""

from __future__ import annotations

from .elements import Cotensor
from .engine import (
    ExtensionElement,
    NPlecticStructure,
    Quotient,
    d_omega,
    differential_slice,
    label_contraction,
    matrix_of,
    shift_weight,
    slice_basis,
    slice_size,
    symplectic_bracket,
)
from .linalg import rank_fraction_free
from .scalars import CapExceeded

# The most rows a rank table has, above the 30,003 of the plain table on
# 10,000 variables, which its slice cap refuses.  The su(2) table takes 30 us
# and 125 bytes a row (2-vCPU Xeon, Python 3.11), about 3 s at the cap.
MAX_TABLE_ROWS = 100_000


# ---------------------------------------------------------------------------
# plain Chevalley-Eilenberg ranks
# ---------------------------------------------------------------------------

def ce_matrix(pair, word_len: int, weight: int = 0):
    """Sparse rows of the matrix of d on one cotensor slice, plus the slice labels."""
    labels, exact = differential_slice(pair, word_len, weight)
    return matrix_of(exact), labels


def ce_cohomology_table(pair, degrees, weights=(0,)) -> list[dict]:
    """One rank row per (word length, weight); each slice's d is ranked once."""
    def differential(wl, w):
        rows, labels = ce_matrix(pair, wl, w)
        return rank_fraction_free(rows), len(labels)
    return _rank_table(pair, degrees, weights, differential,
                       lambda wl, w: (wl - 1, shift_weight(pair, w)),
                       lambda wl, w: [(wl, w)])


def _rank_table(pair, degrees, weights, differential, source, slices) -> list[dict]:
    """Rank rows of a complex sliced by (degree, weight).

    differential(deg, w) gives (rank of d on that slice, slice dimension)
    and runs once per slice; source(deg, w) names the slice whose d lands
    in (deg, w), and slices(deg, w) lists the (word length, weight) of each
    (co)tensor slice that differential(deg, w) builds, in build order.
    The rows, and then every slice (by `slice_size`), are counted before
    any is built: past MAX_TABLE_ROWS or MAX_SLICE_DIM, CapExceeded is
    raised at once, at the slice that building would have refused first.
    A key whose slices are all empty has rank 0 and dimension 0, and its
    differential is not called.
    """
    # len(span), also for a range longer than sys.maxsize
    ndeg, nweights = ((s[-1] - s[0]) // s.step + 1 if isinstance(s, range) and s else len(s)
                      for s in (degrees, weights))
    if ndeg * nweights > MAX_TABLE_ROWS:
        raise CapExceeded(f"table has {ndeg * nweights} rows, more than {MAX_TABLE_ROWS}")
    keys = list(dict.fromkeys(key for w in weights for deg in degrees
                              for key in ((deg, w), source(deg, w))))
    # a list, not a short-circuit: every slice is sized before any is built
    sized = {key: any([slice_size(pair, *sl) for sl in slices(*key)]) for key in keys}
    ranks = {key: differential(*key) if sized[key] else (0, 0) for key in keys}
    rows = []
    for w in weights:
        for deg in degrees:
            rank, dim = ranks[deg, w]
            im, _ = ranks[source(deg, w)]
            rows.append({"degree": deg, "weight": w, "dim": dim,
                         "kernel": dim - rank, "image": im, "rank": dim - rank - im})
    return rows


# ---------------------------------------------------------------------------
# extension slices
# ---------------------------------------------------------------------------

def extension_slice(s: NPlecticStructure, k: int, r: int):
    """The target cotensor slice of the (degree k, weight r) slice modulo
    the image of the differential (f, x) -> i_x omega - d f, and the slice
    dimension.

    The image is one Quotient, from one elimination.  Its first group is
    the images i_x omega of the symplectic tensors: the part of the span
    of the tensor labels' contractions (`label_contraction`) that d kills,
    Quotient's `closed_in`.  The d h of the cotensor basis follow.  The
    rank the images reach is the tensor half of the slice (see the module
    docstring), and the quotient's final rank is the rank of the
    differential.
    """
    pair = s.pair
    labels = slice_basis(pair, s.n + 1 - k, r)
    tensors = slice_basis(pair, k, r)
    # no labels above degree n + 1, where every contraction is zero
    contractions = [label_contraction(s, w, e) for w, e in tensors] if labels else []
    _, exact = differential_slice(pair, s.n - k, shift_weight(pair, r))
    image = Quotient(pair, Cotensor, labels, exact, closed_in=contractions)
    return image, image.ranks[0] + len(exact)


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

    def differential(k, r):
        image, dim = extension_slice(s, k, r)
        return image.echelon.rank, dim
    return _rank_table(s.pair, degrees, weights, differential,
                       lambda k, r: (k + 1, shift_weight(s.pair, r)),
                       # the slices of extension_slice, in the order it builds them
                       lambda k, r: [(s.n + 1 - k, r), (k, r),
                                     (s.n - k, shift_weight(s.pair, r))])


# ---------------------------------------------------------------------------
# classes and their canonical representatives
# ---------------------------------------------------------------------------

class NotACocycle(ValueError):
    """Raised when asking for the class of a non-cocycle; carries the residual."""

    def __init__(self, residual: ExtensionElement):
        super().__init__(f"not a cocycle; d_omega residual = {residual!r}")
        self.residual = residual


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
    """Canonical class of a homogeneous cocycle; raises NotACocycle otherwise.

    The cotensor part of a degree-k class is reduced, weight by weight,
    against the quotient of `extension_slice(s, k + 1, r)`, which the
    structure's derived store keeps.  A nonzero element without a single
    degree raises ValueError, and an explicit degree must agree with the
    element's; the zero element takes its degree from the argument.  Also
    raises ValueError unless omega has constant coefficients.
    """
    require_constant_omega(e.structure)
    residual = d_omega(e)
    if not residual.is_zero():
        raise NotACocycle(residual)
    own = e.degree()
    if own is None and not e.is_zero():
        raise ValueError("element has no single degree; a class needs a homogeneous element")
    if own is not None and degree is not None and degree != own:
        raise ValueError(f"element has degree {own}, not {degree}")
    k = degree if degree is not None else own
    if k is None:
        raise ValueError("class of a non-homogeneous element needs an explicit degree")
    s = e.structure
    f_new = Cotensor.zero(s.pair)
    for (_, r), part in e.f.bigraded_parts().items():
        image = s.derived(("coboundary", k, r), lambda: extension_slice(s, k + 1, r)[0])
        f_new = f_new + image.reduce(part)
    return CohomClass(s, k, ExtensionElement.canonical(s, f_new, e.x))


# ---------------------------------------------------------------------------
# the Poisson algebra of classes
# ---------------------------------------------------------------------------

def poisson_bracket(classes) -> CohomClass:
    """Bracket of classes, of arity len(classes): the class of
    `symplectic_bracket` on their tensor parts; unary is zero."""
    classes = list(classes)
    s = classes[0].structure
    out_degree = sum(c.degree for c in classes) - 1
    if len(classes) == 1:
        return CohomClass.zero(s, out_degree)
    e = symplectic_bracket(s, [c.rep.x for c in classes])
    if e.is_zero():
        return CohomClass.zero(s, out_degree)
    return class_of(e, degree=out_degree)
