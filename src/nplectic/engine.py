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
  [x_1..x_k]).

Everything is sliced by (wedge degree, polynomial degree) and solved with
exact linear algebra; the two shipped coefficient families keep every
slice finite.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .calculus import ce_differential, contract, higher_bracket
from .elements import Cotensor, Tensor, ascending_words, wedge_list
from .linalg import Echelon, null_space, solve
from .pairs import PairDescriptor, pair_from_json, pair_to_json
from .scalars import CapExceeded, Poly, bell

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
    return NPlecticStructure(pair, int(data["n"]), omega)


# ---------------------------------------------------------------------------
# finite slices and exact solving
# ---------------------------------------------------------------------------

# The most basis elements slice_basis builds, 30x the largest slice of the
# shipped models and benchmark inputs (336).  On a 2-vCPU machine, d on a
# 9,900-element slice over 10 variables is built and ranked in 7 s.  This
# bounds the elements, not the time: d costs more per element as the number
# of generators grows, 39 s for 5,940 elements over 12 variables.
MAX_SLICE_DIM = 10_000


def monomials_exact(nvars: int, degree: int):
    """All exponent tuples of total degree `degree`, sorted."""
    if degree < 0:
        return []
    return sorted(tuple(combo.count(v) for v in range(nvars))
                  for combo in itertools.combinations_with_replacement(range(nvars), degree))


def monomials_upto(nvars: int, max_degree: int):
    """All exponent tuples of total degree <= max_degree, sorted."""
    return sorted(e for d in range(max_degree + 1) for e in monomials_exact(nvars, d))


def slice_basis(pair, word_len: int, monos) -> list[tuple]:
    """Basis labels (word, exponent) of one finite (co)tensor slice; raises
    CapExceeded past MAX_SLICE_DIM of them."""
    size = math.comb(pair.ngens, word_len) * len(monos) if word_len >= 0 else 0
    if size > MAX_SLICE_DIM:
        raise CapExceeded(f"slice of word length {word_len} has {size} basis elements, "
                          f"more than {MAX_SLICE_DIM}")
    words = list(ascending_words(pair.ngens, word_len))
    return [(w, e) for w in words for e in monos]


def basis_elements(pair, cls, labels):
    return [cls(pair, {w: Poly(pair.poly_nvars, {e: Fraction(1)})}) for w, e in labels]


def element_coords(elem, index: dict) -> dict[int, Fraction]:
    """Sparse coordinates of an element in a slice; raises if it leaves the window."""
    coords = {}
    for w, poly in elem.terms.items():
        for e, c in poly.terms.items():
            key = (w, e)
            if key not in index:
                raise ValueError(f"element leaves the slice window at {key}")
            coords[index[key]] = c
    return coords


def coords_element(pair, cls, labels, coords: dict[int, Fraction]):
    """The element with the given sparse coordinates in a slice."""
    terms = {}
    for i in sorted(coords):
        w, e = labels[i]
        terms.setdefault(w, {})[e] = coords[i]
    return cls(pair, [(w, Poly(pair.poly_nvars, t)) for w, t in terms.items()])


class Quotient:
    """A finite slice modulo the span of some of its elements; `reduce`
    gives the canonical representative, the residue against the span's
    reduced echelon basis."""

    def __init__(self, pair, cls, labels, spanning):
        # highest total degree first, so that pivots sit on the leading terms:
        # a normal form, whatever window the labels come from
        self.labels = sorted(labels, key=lambda lab: (-sum(lab[1]), lab))
        self.pair, self.cls = pair, cls
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self.echelon = Echelon()
        for elem in spanning:
            self.add(elem)

    def add(self, elem) -> bool:
        """Enlarge the span by elem; True if elem was not in it yet."""
        return self.echelon.add(element_coords(elem, self.index))

    def reduce(self, elem):
        coords = self.echelon.reduce(element_coords(elem, self.index))
        return coords_element(self.pair, self.cls, self.labels, coords)


def matrix_of(fn, pair, src_cls, src_labels):
    """Matrix of a linear map on a slice; the target window is inferred.

    Returns (rows, tgt_labels): one sparse row {source column: entry} per
    (word, exponent) appearing in any image, in sorted label order.
    """
    rows: dict[tuple, dict[int, Fraction]] = {}
    for col, elem in enumerate(basis_elements(pair, src_cls, src_labels)):
        for w, poly in fn(elem).terms.items():
            for e, c in poly.terms.items():
                rows.setdefault((w, e), {})[col] = c
    tgt_labels = sorted(rows)
    return [rows[lab] for lab in tgt_labels], tgt_labels


# ---------------------------------------------------------------------------
# symplectic and Hamiltonian tensors
# ---------------------------------------------------------------------------

def is_symplectic(x: Tensor, s: NPlecticStructure) -> bool:
    """d i_x omega = 0."""
    return ce_differential(contract(x, s.omega)).is_zero()


def _null_slice(s, degree, monos, fn):
    labels = slice_basis(s.pair, degree, list(monos))
    rows, _ = matrix_of(fn, s.pair, Tensor, labels)
    return [coords_element(s.pair, Tensor, labels, vec) for vec in null_space(rows, len(labels))]


def symplectic_slice(s: NPlecticStructure, degree: int, monos):
    """Basis of symplectic tensors with wedge degree and monomial support fixed."""
    return _null_slice(s, degree, monos, lambda x: ce_differential(contract(x, s.omega)))


def kernel_slice(s: NPlecticStructure, degree: int, monos):
    """Basis of the contraction kernel {x : i_x omega = 0} in one slice."""
    return _null_slice(s, degree, monos, lambda x: contract(x, s.omega))


def symplectic_basis(s: NPlecticStructure, degree: int, max_poly_degree: int = 3):
    """Basis of symplectic tensors of one wedge degree within a poly window."""
    return list(s.derived(("symplectic", degree, max_poly_degree), lambda: symplectic_slice(
        s, degree, monomials_upto(s.pair.poly_nvars, max_poly_degree))))


def kernel_basis(s: NPlecticStructure, degree: int, max_poly_degree: int = 3):
    return kernel_slice(s, degree, monomials_upto(s.pair.poly_nvars, max_poly_degree))


def reduce_mod_kernel(s: NPlecticStructure, x: Tensor) -> Tensor:
    """Canonical representative of x modulo the contraction kernel.

    Works slice by slice, in the window of x's polynomial degree.  The
    quotient pivots on the highest degree, so the representative does not
    depend on the window or on the representative x started from.
    """
    out = Tensor.zero(s.pair)
    pd = max(x.max_poly_degree(), 0)
    for degree, part in x.homogeneous_parts().items():
        kernel = s.derived(("kernel", degree, pd), lambda: Quotient(
            s.pair, Tensor, slice_basis(s.pair, degree, monomials_upto(s.pair.poly_nvars, pd)),
            kernel_basis(s, degree, pd)))
        out = out + kernel.reduce(part)
    return out


class SymplecticTensor:
    """A symplectic tensor held by its canonical representative mod kernel."""

    __slots__ = ("structure", "rep")

    def __init__(self, structure: NPlecticStructure, x: Tensor):
        if x.pair != structure.pair:
            raise ValueError("tensor lives over a different pair")
        if not is_symplectic(x, structure):
            raise ValueError(f"not a symplectic tensor: {x!r}")
        self.structure = structure
        self.rep = reduce_mod_kernel(structure, x)

    def is_zero(self) -> bool:
        return self.rep.is_zero()

    @property
    def grade(self):
        return self.rep.grade

    def __eq__(self, other):
        return (isinstance(other, SymplecticTensor)
                and self.structure == other.structure and self.rep == other.rep)

    def __hash__(self):
        return hash(self.rep)

    def __add__(self, other):
        assert self.structure == other.structure
        return SymplecticTensor(self.structure, self.rep + other.rep)

    def __neg__(self):
        return SymplecticTensor(self.structure, -self.rep)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        return SymplecticTensor(self.structure, scalar * self.rep)

    __rmul__ = __mul__

    def __repr__(self):
        return f"[{self.rep!r}]"


def hamiltonian_potential(x: Tensor, s: NPlecticStructure,
                          max_poly_degree: int | None = None) -> Cotensor | None:
    """One exact solution f of d f = i_x omega, or None if there is none.

    The input must be symplectic (i_x omega closed), otherwise ValueError.
    Solving happens per (word length, polynomial degree) slice; free
    variables are pinned to zero, so the answer is canonical.
    """
    if not is_symplectic(x, s):
        raise ValueError("potential only makes sense for symplectic tensors")
    target = contract(x, s.omega)
    if target.is_zero():
        return Cotensor.zero(s.pair)
    out = Cotensor.zero(s.pair)
    for (deg, pd), part in target.bigraded_parts().items():
        wl = -deg
        if wl == 0:
            return None  # d never reaches word length zero
        # d drops the polynomial degree by one on the polynomial family
        src_pd = pd + 1 if s.pair.poly_nvars else 0
        labels = slice_basis(s.pair, wl - 1,
                             monomials_exact(s.pair.poly_nvars, src_pd)
                             if s.pair.poly_nvars else [()])
        if max_poly_degree is not None and src_pd > max_poly_degree:
            return None
        if not labels:
            return None
        rows, tgt_labels = matrix_of(ce_differential, s.pair, Cotensor, labels)
        try:
            rhs = element_coords(part, {lab: i for i, lab in enumerate(tgt_labels)})
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

    Homogeneous of degree k when the tensor has wedge degree k and the
    cotensor has word length n - k (the n-shift of its tensor degree).
    """

    __slots__ = ("structure", "f", "sym")

    def __init__(self, structure: NPlecticStructure, f: Cotensor, sym):
        if not isinstance(sym, SymplecticTensor):
            sym = SymplecticTensor(structure, sym)
        if f.pair != structure.pair:
            raise ValueError("cotensor lives over a different pair")
        self.structure = structure
        self.f = f
        self.sym = sym

    @classmethod
    def zero(cls, structure):
        return cls(structure, Cotensor.zero(structure.pair), Tensor.zero(structure.pair))

    def is_zero(self) -> bool:
        return self.f.is_zero() and self.sym.is_zero()

    def degree(self) -> int | None:
        """Degree as an element of the shifted extension complex."""
        n = self.structure.n
        degs = {d for d in self.sym.rep.degrees()}
        degs |= {n + d for d in self.f.degrees()}
        if len(degs) == 1:
            return degs.pop()
        return None

    def __add__(self, other):
        assert self.structure == other.structure
        return ExtensionElement(self.structure, self.f + other.f, self.sym + other.sym)

    def __neg__(self):
        return ExtensionElement(self.structure, -self.f, -self.sym)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        return ExtensionElement(self.structure, scalar * self.f, scalar * self.sym)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, ExtensionElement)
                and self.structure == other.structure
                and self.f == other.f and self.sym == other.sym)

    def __hash__(self):
        return hash((self.f, self.sym))

    def __repr__(self):
        return f"({self.f!r}, {self.sym!r})"

    def to_json(self):
        return {"f": self.f.to_json(), "x": self.sym.rep.to_json()}

    @classmethod
    def from_json(cls, structure, data):
        f = Cotensor.from_json(structure.pair, data.get("f", []))
        x = Tensor.from_json(structure.pair, data.get("x", []))
        return cls(structure, f, x)


def d_omega(e: ExtensionElement) -> ExtensionElement:
    """Extension differential (f, x) -> (i_x omega - d f, 0); squares to zero."""
    s = e.structure
    new_f = contract(e.sym.rep, s.omega) - ce_differential(e.f)
    return ExtensionElement(s, new_f, Tensor.zero(s.pair))


def extension_bracket(k: int, es, cap: int = DEFAULT_EXTENSION_ARITY_CAP) -> ExtensionElement:
    """k-ary bracket (B_{k-1} i_{x_k ^..^ x_1} omega, [x_1..x_k])."""
    es = list(es)
    if len(es) != k:
        raise ValueError(f"expected {k} arguments, got {len(es)}")
    if k < 2:
        raise ValueError("the unary operation of the extension complex is d_omega")
    if k > cap:
        raise CapExceeded(f"extension bracket arity {k} exceeds cap {cap}")
    s = es[0].structure
    xs = [e.sym.rep for e in es]
    f_part = Fraction(bell(k - 1)) * contract_reversed_wedge(s, xs)
    x_part = higher_bracket(k, xs)
    return ExtensionElement(s, f_part, x_part)


def contract_reversed_wedge(s: NPlecticStructure, xs) -> Cotensor:
    """i_{x_k ^..^ x_1} omega, omega contracted with the reversed wedge of xs."""
    return contract(wedge_list(s.pair, Tensor, list(reversed(xs))), s.omega)


def fundamental_pairing_check(k: int, xs, s: NPlecticStructure):
    """Check i_{[x_1..x_k]} omega = d i_{x_k ^..^ x_1} omega on symplectic xs.

    Returns (ok, lhs, rhs) so callers can report the residual.
    """
    xs = list(xs)
    lhs = contract(higher_bracket(k, xs), s.omega)
    rhs = ce_differential(contract_reversed_wedge(s, xs))
    return lhs == rhs, lhs, rhs
