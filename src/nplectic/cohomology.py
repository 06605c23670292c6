"""Cohomology of the extension complex and the Poisson algebra of classes.

The extension complex is graded by element degree k and, on the polynomial
family, further by a weight r: tensor coefficients of degree r, cotensor
coefficients of degree r + 1.  The differential drops both by one, so each
(k, r) slice is finite and its ranks are exact integers.  The image at
(k, r) is always taken from the full (k+1, r+1) slice, even when that slice
falls outside a reporting window, so the tables never show truncation
artifacts.

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

from .calculus import ce_differential, contract, higher_bracket
from .elements import Cotensor, Tensor
from .engine import (
    DEFAULT_EXTENSION_ARITY_CAP,
    ExtensionElement,
    NPlecticStructure,
    Quotient,
    basis_elements,
    contract_reversed_wedge,
    d_omega,
    element_coords,
    matrix_of,
    monomials_exact,
    slice_basis,
    kernel_slice,
    symplectic_slice,
)
from .linalg import rank_fraction_free
from .scalars import CapExceeded


def _shift_weight(pair, r: int, by: int = 1) -> int:
    """Weights move with the differential only on the polynomial family."""
    return r + by if pair.poly_nvars else r


# ---------------------------------------------------------------------------
# plain Chevalley-Eilenberg ranks
# ---------------------------------------------------------------------------

def ce_matrix(pair, word_len: int, weight: int = 0):
    """Sparse rows of the matrix of d on one cotensor slice, plus the slice labels."""
    labels = slice_basis(pair, word_len, monomials_exact(pair.poly_nvars, weight))
    rows, _ = matrix_of(ce_differential, pair, Cotensor, labels)
    return rows, labels


def ce_cohomology_rank(pair, word_len: int, weight: int = 0) -> dict:
    """Exact ranks of the cotensor complex at one (word length, weight) slice."""
    return ce_cohomology_table(pair, [word_len], [weight])[0]


def ce_cohomology_table(pair, degrees, weights=(0,)) -> list[dict]:
    """One rank row per (word length, weight); each slice's d is ranked once."""
    def differential(wl, w):
        rows, labels = ce_matrix(pair, wl, w)
        return rank_fraction_free(rows), len(labels)
    return _rank_table(degrees, weights, differential,
                       lambda wl, w: (wl - 1, _shift_weight(pair, w)))


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
    """Basis of the (degree k, weight r) slice of the extension complex.

    Returns (sym_reps, f_labels, f_word_len): canonical tensor
    representatives spanning symplectic-mod-kernel, and cotensor slice
    labels for the function slot.
    """
    pair = s.pair
    sym_monos = monomials_exact(pair.poly_nvars, r)
    t_labels = slice_basis(pair, k, sym_monos)
    kernel = Quotient(pair, Tensor, t_labels, kernel_slice(s, k, sym_monos))
    chosen = Quotient(pair, Tensor, t_labels, [])
    sym_reps = []
    for b in symplectic_slice(s, k, sym_monos):
        rep = kernel.reduce(b)
        if chosen.add(rep):
            sym_reps.append(rep)
    f_wl = s.n - k
    f_labels = slice_basis(pair, f_wl,
                           monomials_exact(pair.poly_nvars, _shift_weight(pair, r)))
    return sym_reps, f_labels, f_wl


def _dw_matrix(s: NPlecticStructure, k: int, r: int):
    """Columns of the matrix of the extension differential on one slice.

    One sparse column per slice basis element (tensor part first), with
    rows over the full target cotensor slice one degree and one weight
    down.  Returns (columns, slice dimension).
    """
    pair = s.pair
    sym_reps, f_labels, f_wl = extension_slice(s, k, r)
    tgt_labels = slice_basis(pair, f_wl + 1, monomials_exact(pair.poly_nvars, r))
    index = {lab: i for i, lab in enumerate(tgt_labels)}
    images = [contract(b, s.omega) for b in sym_reps]
    images += [-ce_differential(h) for h in basis_elements(pair, Cotensor, f_labels)]
    return [element_coords(img, index) for img in images], len(images)


def extension_cohomology_rank(s: NPlecticStructure, k: int, r: int) -> dict:
    """Exact ranks of the extension complex at one (degree, weight) slice."""
    return extension_cohomology_table(s, [k], [r])[0]


def extension_cohomology_table(s: NPlecticStructure, degrees, weights) -> list[dict]:
    """One rank row per (degree, weight); each slice's differential is ranked once."""
    def differential(k, r):
        columns, dim = _dw_matrix(s, k, r)
        return rank_fraction_free(columns), dim
    return _rank_table(degrees, weights, differential,
                       lambda k, r: (k + 1, _shift_weight(s.pair, r)))


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
    wedge degree k + 1.
    """
    def build():
        pair = s.pair
        monos = monomials_exact(pair.poly_nvars, pd)
        h_labels = slice_basis(pair, word_len - 1,
                               monomials_exact(pair.poly_nvars, _shift_weight(pair, pd)))
        exact = [ce_differential(h) for h in basis_elements(pair, Cotensor, h_labels)]
        contractions = [contract(y, s.omega) for y in symplectic_slice(s, k + 1, monos)]
        return Quotient(pair, Cotensor, slice_basis(pair, word_len, monos), exact + contractions)
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

    An explicit degree must agree with the element's own degree, if it has one.
    """
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
    return CohomClass(s, k, ExtensionElement(s, f_new, e.sym))


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
    xs = [c.rep.sym.rep for c in classes]
    e = ExtensionElement(s, contract_reversed_wedge(s, xs), higher_bracket(k, xs))
    if e.is_zero():
        return CohomClass.zero(s, out_degree)
    return class_of(e, degree=out_degree)
