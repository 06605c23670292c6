"""Graded bracket systems and the generic identity checkers.

Every algebra in the package exposes the same small surface: a zero
element, linear operations, a degree, and `bracket(vs)` of arity len(vs)
(arity one being the differential); a morphism component is `f(vs)`, None
meaning zero.  `ClassLinf` and `ExtensionLinf` take no cap: whoever sizes a
loop of brackets checks it with `require_arity`.  The checkers here only
speak that surface, so the weak Jacobi identity and the morphism
equations are evaluated by code that knows nothing about the particular
algebra.  `_shuffle_composites` is the package's only weak-Jacobi shuffle
sum: `jacobi_residual` and the left side of `morphism_residual` walk it,
and tensors, the extension complex and cohomology classes reach both
through the adapters below.  The right side of `morphism_residual` walks
unordered set partitions of the arguments, which assumes every bracket
here is graded symmetric.

`FiniteLInfinity` is the explicit-table implementation: a finite graded
basis with bracket values listed per sorted index tuple.  Construction
does not validate the table; `check_linf` is the validator, so corrupted
tables can be built on purpose and caught.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .calculus import higher_bracket
from .cohomology import (
    CohomClass,
    NotACocycle,
    class_of,
    poisson_bracket,
    require_constant_omega,
)
from .elements import Tensor
from .engine import (
    DEFAULT_EXTENSION_ARITY_CAP,
    ExtensionElement,
    NPlecticStructure,
    d_omega,
    extension_bracket,
)
from .pairs import ConstantPair, action, lie_bracket
from .scalars import (
    Poly,
    as_rational,
    enumerate_shuffles,
    koszul_sign,
    require_arity,
    sparse_sum,
)


class Operations:
    """Default linear structure for element types with operators."""

    def zero(self):
        raise NotImplementedError

    def add(self, a, b):
        return a + b

    def scale(self, c, v):
        return c * v

    def is_zero(self, v) -> bool:
        return v.is_zero()

    def degree(self, v):
        raise NotImplementedError

    def bracket(self, vs):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# explicit finite tables
# ---------------------------------------------------------------------------

class FiniteLInfinity(Operations):
    """A graded bracket system on a finite basis, given by explicit tables.

    Elements are dicts {basis index: coefficient} with 1-based indices.
    `brackets[k]` maps sorted index tuples to {target index: coefficient}.
    Evaluation symmetrizes arguments into sorted order with the Koszul
    sign; a repeated index of odd degree kills the term.
    """

    def __init__(self, degrees, brackets=None):
        self.degrees = tuple(int(d) for d in degrees)
        table: dict[int, dict[tuple, dict[int, Fraction]]] = {}
        for k, entries in (brackets or {}).items():
            k = int(k)
            if k < 1:
                raise ValueError("bracket arity must be at least one")
            slot = table.setdefault(k, {})
            for key, value in entries.items():
                key = tuple(int(i) for i in key)
                if len(key) != k or list(key) != sorted(key):
                    raise ValueError(f"bracket key {key} is not a sorted {k}-tuple")
                for i in key:
                    if not 1 <= i <= len(self.degrees):
                        raise ValueError(f"basis index {i} out of range")
                for a, b in zip(key, key[1:]):
                    if a == b and self.degrees[a - 1] % 2:
                        raise ValueError(f"repeated odd-degree index in key {key}")
                cleaned = {int(t): as_rational(c) for t, c in value.items()}
                cleaned = {t: c for t, c in cleaned.items() if c}
                if cleaned:
                    slot[key] = cleaned
        self.brackets = table

    @classmethod
    def from_pair(cls, pair: ConstantPair) -> "FiniteLInfinity":
        """The bracket table of a constant pair, all generators in degree one."""
        table: dict[tuple, dict[int, Fraction]] = {}
        for i, j, k, c in pair.brackets:
            table.setdefault((i, j), {})[k] = c
        return cls([1] * pair.dim, {2: table})

    def basis(self, i: int) -> dict:
        return {i: Fraction(1)}

    def zero(self):
        return {}

    def add(self, a, b):
        return sparse_sum(itertools.chain(a.items(), b.items()))

    def scale(self, c, v):
        c = as_rational(c)
        return {i: c * x for i, x in v.items()} if c else {}

    def is_zero(self, v) -> bool:
        return not v

    def degree(self, v):
        degs = {self.degrees[i - 1] for i in v}
        return degs.pop() if len(degs) == 1 else None

    def bracket(self, vs):
        k = len(vs)
        slot = self.brackets.get(k, {})
        if not slot:
            return {}
        terms = []
        for combo in itertools.product(*(v.items() for v in vs)):
            indices = [i for i, _ in combo]
            coeff = Fraction(1)
            for _, c in combo:
                coeff *= c
            order = sorted(range(1, k + 1), key=lambda a: indices[a - 1])
            key = tuple(indices[a - 1] for a in order)
            sign = koszul_sign(order, [self.degrees[i - 1] for i in indices])
            if any(a == b and self.degrees[a - 1] % 2
                   for a, b in zip(key, key[1:])):
                continue
            terms.extend((target, sign * coeff * c)
                         for target, c in slot.get(key, {}).items())
        return sparse_sum(terms)


# ---------------------------------------------------------------------------
# adapters for the package's own algebras
# ---------------------------------------------------------------------------

class PairLinf(Operations):
    """Tensors of degree at most one under the symmetrized pair bracket.

    The binary bracket pairs the anchor action with the Lie bracket:
    each vector part differentiates the other argument's scalar part.
    All other arities vanish.
    """

    def __init__(self, pair):
        self.pair = pair

    def zero(self):
        return Tensor.zero(self.pair)

    def degree(self, v):
        return v.grade

    def _split(self, v):
        parts = v.homogeneous_parts()
        scalar = parts.get(0, Tensor.zero(self.pair)).terms.get((), Poly.zero(self.pair.poly_nvars))
        return scalar, parts.get(1, Tensor.zero(self.pair))

    def bracket(self, vs):
        if len(vs) != 2:
            return self.zero()
        a, x = self._split(vs[0])
        b, y = self._split(vs[1])
        scalar = action(x, b) + action(y, a)
        return Tensor.scalar(self.pair, scalar) + lie_bracket(x, y)


class TensorLinf(Operations):
    """The exterior tensor algebra with its higher brackets and no differential."""

    def __init__(self, pair):
        self.pair = pair

    def zero(self):
        return Tensor.zero(self.pair)

    def degree(self, v):
        return v.grade

    def bracket(self, vs):
        if len(vs) == 1:
            return self.zero()
        return higher_bracket(vs)


class ExtensionLinf(Operations):
    """The extension complex: differential at arity one, weighted brackets above."""

    def __init__(self, structure: NPlecticStructure):
        self.structure = structure

    def zero(self):
        return ExtensionElement.zero(self.structure)

    def degree(self, v):
        return v.degree()

    def bracket(self, vs):
        if len(vs) == 1:
            return d_omega(vs[0])
        return extension_bracket(vs)


class ClassLinf(Operations):
    """Cohomology classes: zero differential, bracket values cocycles on the nose.

    `zero()` sits in degree 0, so a vanishing residual may come back in
    degree 0 or in its true degree; test residuals with `is_zero()`, not `==`.
    """

    def __init__(self, structure: NPlecticStructure):
        self.structure = structure

    def zero(self):
        return CohomClass.zero(self.structure, 0)

    def degree(self, v):
        return v.degree

    def bracket(self, vs):
        return poisson_bracket(vs)


# ---------------------------------------------------------------------------
# the generic checkers
# ---------------------------------------------------------------------------

def _degrees(op: Operations, vs, what: str):
    """Argument degrees, or None when an argument is zero and the sum vanishes."""
    if any(op.is_zero(v) for v in vs):
        return None
    degs = [op.degree(v) for v in vs]
    if None in degs:
        raise ValueError(f"{what} needs homogeneous arguments")
    return degs


def _shuffle_composites(op: Operations, outer, vs, degs):
    """(sign, outer([op.bracket(head)] + tail)) per nonzero inner bracket.

    The one weak-Jacobi shuffle sum: every split j = 1..n and every
    (j, n - j) shuffle, with its Koszul sign in the argument degrees.  The
    caller bounds the arity.
    """
    n = len(vs)
    for j in range(1, n + 1):
        for sh in enumerate_shuffles((j, n - j)):
            sign = koszul_sign(sh, degs)
            inner = op.bracket([vs[i - 1] for i in sh[:j]])
            if op.is_zero(inner):
                continue
            yield sign, outer([inner] + [vs[i - 1] for i in sh[j:]])


def jacobi_residual(op: Operations, vs):
    """Weak Jacobi residual of op at the given arguments.

    Sums op.bracket([op.bracket(head)] + tail) over all splits
    i + j = n + 1 and (j, n - j) shuffles, with Koszul signs in the
    argument degrees.  Zero exactly when the brackets cohere at this
    arity on these arguments.
    """
    vs = list(vs)
    degs = _degrees(op, vs, "Jacobi residual")
    if degs is None:
        return op.zero()
    total = None
    for sign, outer in _shuffle_composites(op, op.bracket, vs, degs):
        if op.is_zero(outer):
            continue
        term = op.scale(sign, outer)
        total = term if total is None else op.add(total, term)
    return op.zero() if total is None else total


def check_linf(op: Operations, generators, max_arity: int):
    """Check weak Jacobi on all sorted generator tuples up to an arity.

    Returns (True, None) or (False, witness) with the offending arguments
    and residual.  Sorted tuples suffice because the brackets are graded
    symmetric.  With no generators or no arity there is no tuple to check,
    and the witness is {"instances": 0}.
    """
    generators = list(generators)
    if not generators or max_arity < 1:
        return False, {"instances": 0}
    for arity in range(1, max_arity + 1):
        for combo in itertools.combinations_with_replacement(range(len(generators)), arity):
            vs = [generators[i] for i in combo]
            residual = jacobi_residual(op, vs)
            if not op.is_zero(residual):
                return False, {"arity": arity, "args": combo, "residual": residual}
    return True, None


def _set_partitions(n: int):
    """Set partitions of 1..n: ascending blocks, ordered by least element."""
    if n == 0:
        yield []
        return
    for blocks in _set_partitions(n - 1):
        for i in range(len(blocks)):
            yield blocks[:i] + [blocks[i] + [n]] + blocks[i + 1:]
        yield blocks + [[n]]


def morphism_residual(f, dom: Operations, cod: Operations, vs):
    """Defect of the morphism equations at one argument tuple.

    `f(vs)` evaluates the component of arity len(vs) (None meaning zero).  The
    left side feeds each domain bracket through a component; the right
    side subtracts one codomain bracket of component blocks per set
    partition of the arguments, blocks ascending and ordered by least
    element, with the Koszul sign of the concatenated blocks in the
    domain degrees.  Taking each unordered partition once is right only
    when the codomain bracket is graded symmetric and every component
    respects degree parity (its value has the parity of its arguments'
    total degree); then all p! orderings of the blocks give the same term.
    """
    vs = list(vs)
    degs = _degrees(dom, vs, "morphism check")
    if degs is None:
        return cod.zero()
    total = None

    def accumulate(total, term, scalar):
        if term is None or cod.is_zero(term):
            return total
        term = cod.scale(scalar, term)
        return term if total is None else cod.add(total, term)

    for sign, term in _shuffle_composites(dom, f, vs, degs):
        total = accumulate(total, term, sign)
    for blocks in _set_partitions(len(vs)):
        ys = []
        for block in blocks:
            y = f([vs[i - 1] for i in block])
            if y is None:
                break
            ys.append(y)
        else:
            order = tuple(itertools.chain.from_iterable(blocks))
            total = accumulate(total, cod.bracket(ys),
                               -koszul_sign(order, degs))
    return cod.zero() if total is None else total


def check_morphism(f, dom: Operations, cod: Operations, argument_lists):
    """Run `morphism_residual` over many tuples; (ok, witness | None).

    No tuples at all fail with the witness {"instances": 0}.
    """
    argument_lists = list(argument_lists)
    if not argument_lists:
        return False, {"instances": 0}
    for vs in argument_lists:
        residual = morphism_residual(f, dom, cod, vs)
        if not cod.is_zero(residual):
            return False, {"args": list(vs), "residual": residual}
    return True, None


# ---------------------------------------------------------------------------
# momentum maps
# ---------------------------------------------------------------------------

def check_momentum_map(s: NPlecticStructure, algebra: ConstantPair,
                       fields, potentials, max_arity: int = 3,
                       cap: int = DEFAULT_EXTENSION_ARITY_CAP):
    """Certify a momentum-map candidate into the Poisson classes.

    The candidate assigns to each generator of the algebra a field and a
    potential.  Gate one: every (potential, field) pair must be a cocycle
    of the extension complex, so the potential really is one for the
    field.  Gate two: sending generators to their classes must satisfy
    the morphism equations against the algebra's bracket table up to the
    requested arity, with all higher components zero.

    Before either gate, an omega without constant coefficients raises
    ValueError and an arity above the cap raises CapExceeded: the equations
    at arity k need the k-ary bracket of classes.  An arity below one
    leaves nothing to check and fails gate two.

    Returns (ok, details); details lists the classes and any failures.
    """
    fields = list(fields)
    potentials = list(potentials)
    if not len(fields) == len(potentials) == algebra.dim:
        raise ValueError("need one field and one potential per generator")
    require_constant_omega(s)
    require_arity(max_arity, cap)
    issues = []
    classes: list[CohomClass | None] = []
    for g, (pot, x) in enumerate(zip(potentials, fields), start=1):
        if not x.is_zero() and x.grade != 1:
            raise ValueError(f"field for generator {g} must have wedge degree one")
        try:
            classes.append(class_of(ExtensionElement(s, pot, x), degree=1))
        except NotACocycle as exc:
            classes.append(None)
            issues.append({"gate": "cocycle", "generator": g,
                           "reason": f"potential mismatch; residual {exc.residual!r}"})
        except ValueError as exc:
            classes.append(None)
            issues.append({"gate": "cocycle", "generator": g, "reason": str(exc)})
    if issues:
        return False, {"classes": classes, "issues": issues}

    dom = FiniteLInfinity.from_pair(algebra)
    cod = ClassLinf(s)

    def component(vs):
        if len(vs) != 1:
            return None
        out = None
        for i, c in vs[0].items():
            term = c * classes[i - 1]
            out = term if out is None else out + term
        return out

    if max_arity < 1:
        issues.append({"gate": "morphism", "instances": 0,
                       "reason": "no generator tuple to check"})
    for arity in range(1, max_arity + 1):
        for combo in itertools.combinations_with_replacement(range(1, algebra.dim + 1), arity):
            vs = [dom.basis(i) for i in combo]
            residual = morphism_residual(component, dom, cod, vs)
            if not residual.is_zero():
                issues.append({"gate": "morphism", "generators": list(combo),
                               "reason": f"residual {residual!r}"})
    return not issues, {"classes": classes, "issues": issues}
