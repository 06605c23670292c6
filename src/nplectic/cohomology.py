"""Cohomology of the extension complex and the Poisson algebra of classes.

The extension complex is graded by element degree k and, on the polynomial
family, further by a weight r: tensor coefficients of degree r, cotensor
coefficients of degree r + 1.  The differential drops both by one
(`engine.exact_source`), so each (k, r) slice is finite and its ranks are
exact integers; `extension_slices` lists its slices.  The image at (k, r)
is always taken from the full (k+1, r+1) slice, even outside a reporting
window, so the tables never show truncation artifacts.

The tensor half of a slice enters only through its images i_x omega.  The
differential sees a tensor only through its image, and contraction is
injective on symplectic tensors modulo its kernel, so the linearly
independent images in the target cotensor slice stand for a basis of that
quotient.  No kernel quotient of the tensors is built, and no symplectic
tensor either: the images are the part of the span of the tensor labels'
contractions c that d kills, read off one elimination of the rows
[d c | c] with the d block cleared first (`engine.Quotient`'s relations
(d c, c), as the contraction kernel's are (c_x, x)).

Every slice vector, contraction, d of one or d h, is a label vector built
from the slice labels alone, as in `engine`: each extension slice is one
elimination, on integers, with no null space or back-substitution, and no
element is built on the way to a rank.  The full quotient, the images and
then every exact cotensor d h in one echelon (`extension_slice`), ranks
the table on the constant family and gives the coboundaries of `class_of`
and so of `poisson_bracket` and `momentum-check`.  On the polynomial
family d is the polynomial de Rham differential, so by the Poincare
lemma every closed image is exact, and the rank of the differential is a
count of slice sizes down the d-chain (`extension_differential`); no d h
is built.  There the [d c | c] rows are eliminated only where omega's
constant word map, from the k-words to the (n+1-k)-words, is not onto:
contraction is that map times the identity on the monomials, so where it
is onto the images are every closed cotensor of the target, again a count
(`_symplectic_images`).  The plain table keeps its elimination of every
d h, an independent check of that lemma.

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

import math

from .calculus import differential_numerators
from .elements import Cotensor, label_element, label_vector
from .engine import (
    ExtensionElement,
    NPlecticStructure,
    Quotient,
    _kernel_quotient,
    d_omega,
    differential_slice,
    exact_source,
    label_contraction,
    matrix_of,
    slice_basis,
    slice_count,
    slice_size,
    symplectic_bracket,
)
from .linalg import rank_fraction_free
from .scalars import CapExceeded, sum_vectors

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
                       lambda wl, w: exact_source(pair, wl, w), lambda wl, w: [(wl, w)])


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

def extension_slices(s: NPlecticStructure, k: int, r: int) -> list[tuple[int, int]]:
    """The target cotensor, tensor and exact cotensor slices of (k, r), in build order."""
    target = (s.n + 1 - k, r)
    return [target, (k, r), exact_source(s.pair, *target)]


def _symplectic_relations(s: NPlecticStructure, target, tensor):
    """The labels of a target cotensor slice, and the relations (d c, c)
    of the contractions c (`label_contraction`) of a tensor slice's labels
    into it: their Quotient's relation rank is the rank the images
    i_x omega of the symplectic tensors reach (see the module docstring)."""
    pair = s.pair
    labels, tensors = slice_basis(pair, *target), slice_basis(pair, *tensor)
    # no labels above degree n + 1, where every contraction is zero
    contractions = (label_contraction(s, w, e)[0] for w, e in tensors) if labels else ()
    return labels, ((differential_numerators(pair, c), c) for c in contractions)


def extension_slice(s: NPlecticStructure, k: int, r: int):
    """The target cotensor slice of the (degree k, weight r) slice modulo
    the image of the differential (f, x) -> i_x omega - d f, and the slice
    dimension.

    The image is one Quotient, from one elimination.  It starts with the
    images i_x omega of the symplectic tensors, from the relations
    (d c, c) of `_symplectic_relations`, read one at a time.  The d h of
    the cotensor basis join it.  The rank the images reach is the tensor
    half of the slice (see the module docstring), and the quotient's final
    rank is the rank of the differential.
    """
    target, tensor, source = extension_slices(s, k, r)
    labels, relations = _symplectic_relations(s, target, tensor)
    _, exact = differential_slice(s.pair, *source)
    image = Quotient(s.pair, labels, exact, relations)
    return image, image.ranks[0] + len(exact)


def _exact_rank(pair, word_len: int, weight: int) -> int:
    """The rank of d into the cotensor slice (word_len, weight) of the
    polynomial family, counted down the d-chain with no slice built.

    By the Poincare lemma the kernel of d on a slice (j, w) is the image of
    d into it, except on the functions (j = 0), where it is the constants:
    one dimension at (0, 0), none elsewhere.  So, with l = word_len and r =
    weight, R(l, r) = dim (l-1, r+1) - R(l-1, r+1) and R(0, w) = 0, which
    unrolls to the alternating sum over the chain (l-1, r+1), (l-2, r+2),
    ..., (0, r+l) of the slice sizes, with the constant taken off where
    the chain meets (0, 0).  The sizes are `slice_count`s, uncapped: a
    slice down the chain may be larger than every slice the table builds.
    """
    rank = 0
    # words longer than the generators are empty
    for j in range(min(word_len, pair.ngens + 1)):
        w = weight + word_len - j
        term = slice_count(pair, j, w) - (j == 0 and w == 0)
        rank += -term if (word_len - 1 - j) % 2 else term
    return rank


def _symplectic_images(s: NPlecticStructure, k: int, r: int) -> int:
    """s_k, the rank the images i_x omega of the symplectic tensors of the
    (degree k, weight r) slice reach in its target cotensor slice (l, r),
    l = n + 1 - k, on the polynomial family with constant omega.

    The images are the closed cotensors, in Z^l_r, that the contraction c
    of the tensor slice (k, r) reaches.  i_{x^a e_w} omega = x^a i_{e_w}
    omega, so c is C_k (x) id on the monomials, C_k the constant map from
    the words of length k to those of length l.  Where C_k is onto, so is
    c, and the images are all of Z^l_r: by the Poincare lemma the exact
    cotensors, `_exact_rank(l, r)`, plus the constants at (0, 0); no row is
    built.  The rank of C_k is C(ngens, k) less the rank of the contraction
    kernel on the constant k-tensors (`engine._kernel_quotient`, kept in
    the structure's derived store).  Where it falls short of C(ngens, l),
    as for Darboux omega at k = 0, whose image in the 2-forms is
    span(omega), s_k is the relation rank of `_symplectic_relations`.
    """
    pair = s.pair
    target, tensor, _ = extension_slices(s, k, r)
    # an empty slice has no images; otherwise 0 <= k, l <= ngens, r >= 0, and
    # the constant k-tensors are no more than the tensor slice, already sized
    if not (slice_count(pair, *target) and slice_count(pair, *tensor)):
        return 0
    rank = math.comb(pair.ngens, k) - _kernel_quotient(s, k, 0).ranks[0]
    if rank == math.comb(pair.ngens, target[0]):
        return _exact_rank(pair, *target) + (target == (0, 0))
    labels, relations = _symplectic_relations(s, target, tensor)
    return Quotient(pair, labels, (), relations).ranks[0]


def extension_differential(s: NPlecticStructure, k: int, r: int) -> tuple[int, int]:
    """The rank of the differential (f, x) -> i_x omega - d f on the
    (degree k, weight r) slice, and the slice dimension.

    The dimension is s_k, the rank the images i_x omega reach
    (`_symplectic_images`), plus the size of the exact
    cotensor slice.  On the constant family the rank is that of
    `extension_slice`'s full quotient.  On the polynomial family d is the
    polynomial de Rham differential and omega is constant, so the image
    is known without eliminating a d h: the degree-k slice is the mapping
    cone of x -> i_x omega into the cotensors, and with l = n + 1 - k
    the target (l, r)

    * for l >= 1 receives images i_x omega that are closed, hence exact
      (Poincare lemma), so they add nothing to the rank of d, which is
      `_exact_rank(l, r)`;
    * for l = 0 has no exact cotensors (word length -1), so the rank is
      s_k; for l < 0 both are zero.

    No d h is built, and [d c | c] rows are eliminated only for s_k where
    omega's word map C_k is not onto.
    """
    pair = s.pair
    if not pair.poly_nvars:
        image, dim = extension_slice(s, k, r)
        return image.echelon.rank, dim
    target, _, source = extension_slices(s, k, r)
    images = _symplectic_images(s, k, r)
    l = target[0]
    return images if l <= 0 else _exact_rank(pair, l, r), images + slice_size(pair, *source)


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
    return _rank_table(s.pair, degrees, weights,
                       lambda k, r: extension_differential(s, k, r),
                       # the extension slice whose target is the exact cotensors of (k, r)
                       lambda k, r: (k + 1, extension_slices(s, k, r)[2][1]),
                       lambda k, r: extension_slices(s, k, r))


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
    element's; the zero element, of every degree, takes the argument's.  Also
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
        raise ValueError("the zero element has every degree; give one")
    s = e.structure
    residues = []
    for (_, r), part in e.f.bigraded_parts().items():
        image = s.derived(("coboundary", k, r), lambda: extension_slice(s, k + 1, r)[0])
        residues.append(image.residue(*label_vector(part)))
    f_new = label_element(s.pair, Cotensor, *sum_vectors(residues))
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
