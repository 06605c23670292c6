"""Graded bracket systems and the generic identity checkers.

Every algebra in the package exposes the same small surface: a zero
element, linear operations, a degree, and `bracket(vs)` of arity len(vs)
(arity one being the differential).  A weak morphism is its family of
components by arity, a dict `{k: f_k}` with `f_k(vs)` for len(vs) = k; a
missing arity is the zero component, and so is a component that returns
None.  `ClassLinf` and `ExtensionLinf` take no cap: whoever sizes a
loop of brackets checks it with `require_arity`.  The checkers here only
speak that surface, so the weak Jacobi identity and the morphism
equations are evaluated by the same code for every algebra.  The one
thing an algebra may add is `top_degree()`, the highest degree of a
nonzero element when every bracket lowers the degree by one; with it,
`jacobi_residual` returns zero without a shuffle sum when the residual's
degree, the sum of the argument degrees minus two, lies above it.  An
algebra that declares no grading (an explicit table, the pair bracket)
returns None and is always summed in full.  `_shuffle_composites` is the
package's only weak-Jacobi shuffle sum: `jacobi_residual` and the left
side of `morphism_residual` walk it, and tensors, the extension complex
and cohomology classes reach both through the adapters below.  A Jacobi
term is `op.composite(head, tail, pairs)`, which forms only what the
outer bracket reads (the extension bracket reads only tensor slots, and
the tensor algebra, whose unary bracket is zero, forms nothing for a
one-argument head or an empty tail); the `pairs` dict of one residual
goes to every bracket it forms, so each Schouten bracket of two argument
parts is formed once.  A term may be open, and a residual closes once:
it is `op.close` of the signed sum of its terms, the sum itself for
every algebra but the extension complex.  An extension term keeps its
Bell-weighted wedge uncontracted and its tensor bracket unreduced, and
the close contracts the summed wedge into omega and reduces the summed
tensor modulo the contraction kernel, once each.  That is exact, as
contraction is linear in its tensor, the canonical residue modulo the
kernel is linear, and each term carries its own Bell weight.  The right
side of `morphism_residual` walks unordered set partitions of the
arguments, which assumes every bracket here is graded symmetric.  Both
sides of the morphism equations walk only the terms whose components
are listed: a term through a zero component is zero by multilinearity,
so a unary morphism forms one domain bracket and one partition per
residual.

Each loop is written once.  `_signed_sum` is the one running sum of
signed terms: the Jacobi residual, both sides of the morphism equations
and the unary momentum component add up through it.  `_sorted_tuples` is
the one walk over sorted basis tuples, for `check_linf` and the momentum
morphism gate.  `check_linf` and `check_morphism` stop at the first
failing tuple through `report.first_failure`, which also gives their
zero-case verdict: no tuple at all fails with {"instances": 0}.

`FiniteLInfinity` is the explicit-table implementation: a finite graded
basis with bracket values listed per sorted index tuple.  Construction
does not validate the table; `check_linf` is the validator, so corrupted
tables can be built on purpose and caught.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .calculus import ce_differential, contract, higher_bracket, require_bracket_arguments
from .cohomology import (
    CohomClass,
    NotACocycle,
    class_of,
    poisson_bracket,
    require_constant_omega,
)
from .elements import Cotensor, Tensor
from .engine import (
    DEFAULT_EXTENSION_ARITY_CAP,
    ExtensionElement,
    NPlecticStructure,
    d_omega,
    extension_bracket,
    reduce_mod_kernel,
    reversed_wedge,
)
from .pairs import ConstantPair, action, lie_bracket
from .report import first_failure
from .scalars import (
    Poly,
    as_rational,
    bell,
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
        """c v; v itself for c = 1, as no operation mutates its arguments."""
        return v if c == 1 else c * v

    def is_zero(self, v) -> bool:
        return v.is_zero()

    def degree(self, v):
        raise NotImplementedError

    def bracket(self, vs, pairs=None):
        """The bracket of arity len(vs); the brackets built on `higher_bracket`
        share grouped arguments and Schouten brackets in `pairs`, the
        rest ignore it."""
        raise NotImplementedError

    def composite(self, head, tail, pairs):
        """bracket([bracket(head)] + tail), None when the inner bracket is zero."""
        inner = self.bracket(head, pairs)
        return None if self.is_zero(inner) else self.bracket([inner] + tail, pairs)

    def close(self, v):
        """The value of a sum of composites; v itself unless the algebra's
        composites are open terms."""
        return v

    def top_degree(self) -> int | None:
        """The highest degree of a nonzero element, for an algebra whose
        brackets all lower the degree by one; None when not known."""
        return None


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

    def bracket(self, vs, pairs=None):
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
        scalar = dict(v.items()).get((), Poly.zero(self.pair.poly_nvars))
        return scalar, v.homogeneous_parts().get(1, Tensor.zero(self.pair))

    def bracket(self, vs, pairs=None):
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

    def top_degree(self):
        return self.pair.ngens

    def bracket(self, vs, pairs=None):
        return higher_bracket(vs, pairs)

    def composite(self, head, tail, pairs):
        """None for the splits that are zero by definition, as the unary
        bracket is zero: a one-argument head, whose inner bracket is zero,
        and an empty tail, whose outer bracket is unary.  Their arguments
        are still checked as the full bracket checks them, so an arity
        past the cap or a mixed pair raises before any term is formed."""
        if len(head) == 1 or not tail:
            require_bracket_arguments(head + tail)
            return None
        return super().composite(head, tail, pairs)


def _extension_top_degree(s: NPlecticStructure) -> int:
    """The top degree of the extension complex and of its classes.

    The tensor slot lives in wedge degrees up to ngens and the cotensor
    slot in degrees n - (word length) up to n, and n < ngens unless
    omega = 0; every bracket, the differential included, lowers the
    degree by one.
    """
    return max(s.pair.ngens, s.n)


class _OpenTerm:
    """An extension Jacobi term before its close (`ExtensionLinf.close`):
    w, a Bell-weighted reversed wedge not yet contracted into omega; f, a
    cotensor; x, a tensor not yet reduced modulo the contraction kernel.
    Sums and rational multiples act slot by slot."""

    __slots__ = ("w", "f", "x")

    def __init__(self, w: Tensor, f: Cotensor, x: Tensor):
        self.w, self.f, self.x = w, f, x

    def is_zero(self) -> bool:
        return self.w.is_zero() and self.f.is_zero() and self.x.is_zero()

    def __add__(self, other):
        return _OpenTerm(self.w + other.w, self.f + other.f, self.x + other.x)

    def __rmul__(self, c):
        return _OpenTerm(c * self.w, c * self.f, c * self.x)


class ExtensionLinf(Operations):
    """The extension complex: differential at arity one, weighted brackets
    above.  `add`, `scale` and `is_zero` take Jacobi terms (`_OpenTerm`),
    slot by slot, as well as elements."""

    def __init__(self, structure: NPlecticStructure):
        self.structure = structure

    def zero(self):
        return ExtensionElement.zero(self.structure)

    def degree(self, v):
        return v.degree()

    def top_degree(self):
        return _extension_top_degree(self.structure)

    def bracket(self, vs, pairs=None):
        if len(vs) == 1:
            return d_omega(vs[0])
        return extension_bracket(vs, pairs)

    def composite(self, head, tail, pairs):
        """The open term of bracket([bracket(head)] + tail), None when it is zero.

        Below the top split the outer bracket reads only tensor slots: the
        term is (B_{k-1} x_k ^..^ x_1, 0, [x_1..x_k]), x_1 the inner tensor
        bracket, x_2.. the tail's tensors and k = len(tail) + 1; None for a
        one-argument head, as d_omega has no tensor slot, or a zero x_i.
        At the top split d_omega of the whole inner bracket e is the term
        (e.x, -d e.f, 0).

        A residual closed once is the sum of its terms closed one by one:
        contraction into omega is linear in its tensor, the canonical
        residue modulo the kernel K is linear, and each term carries its
        own Bell weight.  Nor does x_1 need reducing, as K is an ideal for
        both slots of the outer bracket: for k in K and symplectic y..,
        i_{[k, y..]} omega = +-d i_{y.. ^ k} omega = 0, and a wedge with a
        factor k contracts omega to zero, as i_k omega = 0.
        """
        s = self.structure
        if not tail:
            e = self.bracket(head, pairs)
            if e.is_zero():
                return None
            return _OpenTerm(e.x, -ce_differential(e.f), Tensor.zero(s.pair))
        if len(head) == 1 or any(e.x.is_zero() for e in head + tail):
            return None
        xs = [higher_bracket([e.x for e in head], pairs)] + [e.x for e in tail]
        if xs[0].is_zero():
            return None
        x = higher_bracket(xs, pairs)  # checks the arguments before the wedge does
        return _OpenTerm(bell(len(xs) - 1) * reversed_wedge(s, xs), Cotensor.zero(s.pair), x)

    def close(self, v):
        """The element of a sum of open terms, with one contraction into
        omega and one kernel reduction; zero, with neither, for zero."""
        if v.is_zero():
            return self.zero()
        s = self.structure
        return ExtensionElement.canonical(s, contract(v.w, s.omega) + v.f,
                                          reduce_mod_kernel(s, v.x))


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

    def top_degree(self):
        return _extension_top_degree(self.structure)

    def bracket(self, vs, pairs=None):
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


def _shuffle_composites(compose, vs, degs, heads=None):
    """(sign, compose(head, tail)) per composite that is not None.

    The one weak-Jacobi shuffle sum: every split into a head of j
    arguments and a tail, j in `heads` (all of 1..n by default), and
    every (j, n - j) shuffle of it, with its Koszul sign in the argument
    degrees.  `compose` returns the outer bracket of the inner bracket of
    the head and the tail, or None when it knows the term is zero.  The
    caller bounds the arity.
    """
    n = len(vs)
    for j in range(1, n + 1) if heads is None else heads:
        for sh in enumerate_shuffles((j, n - j)):
            term = compose([vs[i - 1] for i in sh[:j]], [vs[i - 1] for i in sh[j:]])
            if term is not None:
                yield koszul_sign(sh, degs), term


def _signed_sum(op: Operations, terms):
    """The sum of c v over the (c, v) pairs, skipping a v that is None or
    zero; op.zero() when nothing is left."""
    total = None
    for c, v in terms:
        if v is None or op.is_zero(v):
            continue
        v = op.scale(c, v)
        total = v if total is None else op.add(total, v)
    return op.zero() if total is None else total


def _sorted_tuples(size: int, max_arity: int):
    """Every sorted tuple of indices 0..size-1, arity 1 up to max_arity,
    in order of arity; none for no indices or no arity."""
    for arity in range(1, max_arity + 1):
        yield from itertools.combinations_with_replacement(range(size), arity)


def jacobi_residual(op: Operations, vs):
    """Weak Jacobi residual of op at the given arguments.

    Sums op.bracket([op.bracket(head)] + tail) over all splits
    i + j = n + 1 and (j, n - j) shuffles, with Koszul signs in the
    argument degrees, each term as `op.composite` with one `pairs` dict
    for the residual, and closes the sum once with `op.close`.  Zero
    exactly when the brackets cohere at this arity on these arguments.
    Every term has degree sum(degs) - 2, so past `op.top_degree()` the
    residual is zero and no bracket is formed; the argument checks of
    `_degrees` run first.
    """
    vs = list(vs)
    degs = _degrees(op, vs, "Jacobi residual")
    if degs is None:
        return op.zero()
    top = op.top_degree()
    if top is not None and sum(degs) - 2 > top:
        return op.zero()
    pairs = {}
    return op.close(_signed_sum(op, _shuffle_composites(
        lambda head, tail: op.composite(head, tail, pairs), vs, degs)))


def check_linf(op: Operations, generators, max_arity: int):
    """Check weak Jacobi on all sorted generator tuples up to an arity.

    Returns (True, None) or (False, witness) with the offending arguments
    and residual.  Sorted tuples suffice because the brackets are graded
    symmetric.  With no generators or no arity there is no tuple to check,
    and the witness is {"instances": 0}.
    """
    generators = list(generators)

    def witness(*combo):
        residual = jacobi_residual(op, [generators[i] for i in combo])
        if not op.is_zero(residual):
            return {"arity": len(combo), "args": combo, "residual": residual}
        return None

    ok, details = first_failure(_sorted_tuples(len(generators), max_arity), witness)
    return ok, details or None


def _set_partitions(n: int, sizes):
    """Set partitions of 1..n whose block sizes all lie in `sizes`:
    ascending blocks, ordered by least element.

    A block never grows past max(sizes), so only partitions that can
    still end in allowed sizes are built; they come in the order of the
    unrestricted enumeration, which adds n to each block of a partition
    of 1..n-1 in turn, then as a block of its own.
    """
    cap = max(sizes, default=0)

    def grow(m):
        if m == 0:
            yield []
            return
        for blocks in grow(m - 1):
            for i, block in enumerate(blocks):
                if len(block) < cap:
                    yield blocks[:i] + [block + [m]] + blocks[i + 1:]
            yield blocks + [[m]]

    for blocks in grow(n):
        if all(len(block) in sizes for block in blocks):
            yield blocks


def _require_components(components):
    if any(k < 1 for k in components):
        raise ValueError("morphism component arity must be at least one")


def morphism_residual(components, dom: Operations, cod: Operations, vs):
    """Defect of the morphism equations at one argument tuple.

    `components` maps an arity k to the component `f_k(vs)`, len(vs) = k;
    a missing arity, or a None value, is zero.  The left side feeds each
    domain bracket through a component; the right side subtracts one
    codomain bracket of component blocks per set partition of the
    arguments, blocks ascending and ordered by least element, with the
    Koszul sign of the concatenated blocks in the domain degrees.  Only
    the splits and partitions whose components are listed are walked,
    and each block's component is evaluated once.  Taking each unordered
    partition once is right only when the codomain bracket is graded
    symmetric and every component respects degree parity (its value has
    the parity of its arguments' total degree); then all p! orderings of
    the blocks give the same term.
    """
    _require_components(components)
    vs = list(vs)
    degs = _degrees(dom, vs, "morphism check")
    if degs is None:
        return cod.zero()
    n = len(vs)

    def compose(head, tail):
        inner = dom.bracket(head)
        return None if dom.is_zero(inner) else components[len(tail) + 1]([inner] + tail)

    def partition_terms():
        values = {}  # each block's component value, shared by the partitions
        for blocks in _set_partitions(n, components):
            ys = []
            for block in map(tuple, blocks):
                if block not in values:
                    values[block] = components[len(block)]([vs[i - 1] for i in block])
                if values[block] is None:
                    break
                ys.append(values[block])
            else:
                order = tuple(itertools.chain.from_iterable(blocks))
                yield -koszul_sign(order, degs), cod.bracket(ys)

    heads = [j for j in range(1, n + 1) if n - j + 1 in components]
    return _signed_sum(cod, itertools.chain(
        _shuffle_composites(compose, vs, degs, heads), partition_terms()))


def check_morphism(components, dom: Operations, cod: Operations, argument_lists):
    """Run `morphism_residual` over many tuples; (ok, witness | None).

    The argument lists are drawn lazily, none after the first failing
    one.  No tuples at all fail with the witness {"instances": 0}.
    """
    _require_components(components)

    def witness(*vs):
        residual = morphism_residual(components, dom, cod, vs)
        if not cod.is_zero(residual):
            return {"args": list(vs), "residual": residual}
        return None

    ok, details = first_failure(argument_lists, witness)
    return ok, details or None


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
        return _signed_sum(cod, ((c, classes[i - 1]) for i, c in vs[0].items()))

    if max_arity < 1:
        issues.append({"gate": "morphism", "instances": 0,
                       "reason": "no generator tuple to check"})
    for combo in _sorted_tuples(algebra.dim, max_arity):
        generators = [i + 1 for i in combo]
        residual = morphism_residual({1: component}, dom, cod,
                                     [dom.basis(i) for i in generators])
        if not residual.is_zero():
            issues.append({"gate": "morphism", "generators": generators,
                           "reason": f"residual {residual!r}"})
    return not issues, {"classes": classes, "issues": issues}
