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
from .elements import Cotensor, Tensor, wedge_list
from .engine import (
    DEFAULT_EXTENSION_ARITY_CAP,
    ExtensionElement,
    NPlecticStructure,
    basis_elements,
    d_omega,
    element_vector,
    matrix_of,
    monomials_exact,
    slice_basis,
    kernel_slice,
    symplectic_slice,
    vector_element,
)
from .linalg import Echelon, rank_fraction_free
from .scalars import CapExceeded


def _shift_weight(pair, r: int, by: int = 1) -> int:
    """Weights move with the differential only on the polynomial family."""
    return r + by if pair.poly_nvars else r


# ---------------------------------------------------------------------------
# plain Chevalley-Eilenberg ranks
# ---------------------------------------------------------------------------

def ce_matrix(pair, word_len: int, weight: int = 0):
    """Matrix of d on one cotensor slice, plus the slice labels."""
    labels = slice_basis(pair, "cotensor", word_len,
                         monomials_exact(pair.poly_nvars, weight))
    if not labels:
        return [], []
    matrix, _ = matrix_of(ce_differential, pair, Cotensor, labels)
    return matrix, labels


def ce_cohomology_rank(pair, word_len: int, weight: int = 0) -> dict:
    """Exact ranks of the cotensor complex at one (word length, weight) slice."""
    matrix, labels = ce_matrix(pair, word_len, weight)
    dim = len(labels)
    ker = dim - rank_fraction_free(matrix) if dim else 0
    prev, _ = ce_matrix(pair, word_len - 1, _shift_weight(pair, weight))
    im = rank_fraction_free(prev)
    return {"degree": word_len, "weight": weight, "dim": dim,
            "kernel": ker, "image": im, "rank": ker - im}


def ce_cohomology_table(pair, max_word_len: int, weights=(0,)) -> list[dict]:
    return [ce_cohomology_rank(pair, wl, w)
            for w in weights for wl in range(max_word_len + 1)]


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
    t_labels = slice_basis(pair, "tensor", k, sym_monos)
    sym_reps = []
    if t_labels:
        index = {lab: i for i, lab in enumerate(t_labels)}
        ker_ech = Echelon(len(t_labels))
        for z in kernel_slice(s, k, sym_monos):
            ker_ech.add(element_vector(z, index, len(t_labels)))
        chosen = Echelon(len(t_labels))
        for b in symplectic_slice(s, k, sym_monos):
            vec = ker_ech.reduce(element_vector(b, index, len(t_labels)))
            if chosen.add(list(vec)):
                sym_reps.append(vector_element(pair, Tensor, t_labels, vec))
    f_wl = s.n - k
    f_labels = slice_basis(pair, "cotensor", f_wl,
                           monomials_exact(pair.poly_nvars, _shift_weight(pair, r)))
    return sym_reps, f_labels, f_wl


def _dw_matrix(s: NPlecticStructure, k: int, r: int):
    """Matrix of the extension differential on one slice.

    Columns run over the slice basis (tensor part first); rows over the
    full target cotensor slice one degree and one weight down.
    """
    pair = s.pair
    sym_reps, f_labels, f_wl = extension_slice(s, k, r)
    ncols = len(sym_reps) + len(f_labels)
    tgt_labels = slice_basis(pair, "cotensor", f_wl + 1,
                             monomials_exact(pair.poly_nvars, r))
    index = {lab: i for i, lab in enumerate(tgt_labels)}
    columns = []
    for b in sym_reps:
        columns.append(element_vector(contract(b, s.omega), index, len(tgt_labels)))
    for h in basis_elements(pair, Cotensor, f_labels):
        columns.append(element_vector(-ce_differential(h), index, len(tgt_labels)))
    matrix = [[col[row] for col in columns] for row in range(len(tgt_labels))]
    return matrix, ncols


def extension_cohomology_rank(s: NPlecticStructure, k: int, r: int) -> dict:
    """Exact ranks of the extension complex at one (degree, weight) slice."""
    matrix, dim = _dw_matrix(s, k, r)
    ker = dim - rank_fraction_free(matrix) if dim else 0
    above, dim_above = _dw_matrix(s, k + 1, _shift_weight(s.pair, r))
    im = rank_fraction_free(above) if dim_above else 0
    return {"degree": k, "weight": r, "dim": dim,
            "kernel": ker, "image": im, "rank": ker - im}


def extension_cohomology_table(s: NPlecticStructure, degrees, weights) -> list[dict]:
    return [extension_cohomology_rank(s, k, r) for r in weights for k in degrees]


# ---------------------------------------------------------------------------
# classes and their canonical representatives
# ---------------------------------------------------------------------------

class NotACocycle(ValueError):
    """Raised when asking for the class of a non-cocycle; carries the residual."""

    def __init__(self, residual: ExtensionElement):
        super().__init__(f"not a cocycle; d_omega residual = {residual!r}")
        self.residual = residual


_COBOUNDARY_CACHE: dict = {}


def _coboundary_slice(s: NPlecticStructure, k: int, word_len: int, pd: int):
    """Echelon of the coboundary span inside one cotensor slice.

    Coboundaries reaching the function slot of degree-k elements are the
    exact pieces d h and the contractions i_y omega with y symplectic of
    wedge degree k + 1.
    """
    key = (s, k, word_len, pd)
    hit = _COBOUNDARY_CACHE.get(key)
    if hit is not None:
        return hit
    pair = s.pair
    labels = slice_basis(pair, "cotensor", word_len,
                         monomials_exact(pair.poly_nvars, pd))
    index = {lab: i for i, lab in enumerate(labels)}
    ech = Echelon(len(labels))
    h_labels = slice_basis(pair, "cotensor", word_len - 1,
                           monomials_exact(pair.poly_nvars, _shift_weight(pair, pd)))
    for h in basis_elements(pair, Cotensor, h_labels):
        ech.add(element_vector(ce_differential(h), index, len(labels)))
    for y in symplectic_slice(s, k + 1, monomials_exact(pair.poly_nvars, pd)):
        ech.add(element_vector(contract(y, s.omega), index, len(labels)))
    _COBOUNDARY_CACHE[key] = (labels, index, ech)
    return labels, index, ech


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
    """Canonical class of a cocycle; raises NotACocycle otherwise."""
    residual = d_omega(e)
    if not residual.is_zero():
        raise NotACocycle(residual)
    k = degree if degree is not None else e.degree()
    if k is None:
        raise ValueError("class of a non-homogeneous element needs an explicit degree")
    s = e.structure
    f_new = Cotensor.zero(s.pair)
    for (d, pd), part in e.f.bigraded_parts().items():
        labels, index, ech = _coboundary_slice(s, k, -d, pd)
        vec = ech.reduce(element_vector(part, index, len(labels)))
        f_new = f_new + vector_element(s.pair, Cotensor, labels, vec)
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
    f_part = contract(wedge_list(s.pair, Tensor, list(reversed(xs))), s.omega)
    e = ExtensionElement(s, f_part, higher_bracket(k, xs))
    if e.is_zero():
        return CohomClass.zero(s, out_degree)
    return class_of(e, degree=out_degree)
