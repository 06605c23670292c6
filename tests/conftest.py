"""Shared fixtures: a verdict log that survives output capture, the S_n
oracle for the weak Jacobi residual, the ordered-block oracle for the
morphism residual, the target-word oracle for d, the term-by-term `Poly`
oracles for the label wedge and the label brackets, a plain {exponent:
Fraction} polynomial arithmetic as the oracle for `Poly`, a sampler of
extension elements, the unit elements of a slice, which the element-path
oracles of the label-built slices start from, the null space of a
window's contractions and the Tensor-level reduction against it as the
oracles for the one-elimination kernel quotient, and the two-step
extension slice, null space then images, as the oracle for the
one-elimination build, and the extension rank table with every rank from
that one elimination, as the oracle for the table's closed-form ranks on
the polynomial family."""

import functools
import itertools
import math
from fractions import Fraction

import pytest

from nplectic.cohomology import extension_slice
from nplectic.elements import (
    Cotensor,
    Tensor,
    ascending_words,
    label_element,
    label_vector,
    sort_word,
)
from nplectic.engine import (
    ExtensionElement,
    Quotient,
    coords_vector,
    differential_slice,
    label_contraction,
    matrix_of,
    slice_basis,
    symplectic_slice,
)
from nplectic.identities import random_symplectic
from nplectic.linalg import null_space
from nplectic.linf import _shuffle_composites
from nplectic.sampling import random_cotensor
from nplectic.scalars import Poly, combine, enumerate_shuffles, koszul_sign, monomial_exponents


class VerdictLog:
    """Collects one PASS/FAIL line per acceptance criterion."""

    def __init__(self):
        self.lines = []

    def record(self, num: int, text: str, ok: bool) -> bool:
        line = f"{'PASS' if ok else 'FAIL'} criterion {num:>2}: {text}"
        self.lines.append(line)
        print(line)
        return ok


_LOG = VerdictLog()


@pytest.fixture(scope="session")
def verdicts():
    return _LOG


def symmetrized_jacobi_sum(op, vs):
    """Oracle for `linf.jacobi_residual`: the weak Jacobi sum over all of S_n.

    Each split into an inner j-bracket and an outer (n + 1 - j)-bracket is
    summed over every permutation of the arguments and weighted by
    1/(j! (n - j)!); for graded symmetric brackets each unshuffle then
    counts once.  The Koszul sign is a direct count over inversions, so
    neither the shuffle enumeration nor the package's sign rule is used.
    """
    vs = list(vs)
    n = len(vs)
    if any(op.is_zero(v) for v in vs):
        return op.zero()
    degs = [op.degree(v) for v in vs]
    total = None
    for perm in itertools.permutations(range(n)):
        parity = sum(degs[perm[a]] * degs[perm[b]]
                     for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        for j in range(1, n + 1):
            inner = op.bracket([vs[t] for t in perm[:j]])
            if op.is_zero(inner):
                continue
            outer = op.bracket([inner] + [vs[t] for t in perm[j:]])
            if op.is_zero(outer):
                continue
            weight = Fraction(-1 if parity % 2 else 1,
                              math.factorial(j) * math.factorial(n - j))
            term = op.scale(weight, outer)
            total = term if total is None else op.add(total, term)
    return op.zero() if total is None else total


@pytest.fixture(scope="session")
def jacobi_oracle():
    return symmetrized_jacobi_sum


def ordered_morphism_rhs(f, cod, vs, degs):
    """Oracle for the right side of `linf.morphism_residual`, as (weight, term) pairs.

    Every ordered composition of n into p blocks and every shuffle of the
    arguments into those blocks gives cod.bracket(component blocks)
    with weight -1/p! times the Koszul sign of the shuffle.  Each unordered
    block partition is visited once per ordering of its blocks, so the sum
    does not assume the codomain bracket or the components are graded
    symmetric.
    """
    n = len(vs)
    terms = []
    for p in range(1, n + 1):
        for cuts in itertools.combinations(range(1, n), p - 1):
            bounds = list(zip((0,) + cuts, cuts + (n,)))
            for sh in enumerate_shuffles([b - a for a, b in bounds]):
                ys = [f([vs[i - 1] for i in sh[a:b]]) for a, b in bounds]
                if any(y is None for y in ys):
                    continue
                weight = Fraction(-koszul_sign(sh, degs), math.factorial(p))
                terms.append((weight, cod.bracket(ys)))
    return terms


def ordered_morphism_residual(components, dom, cod, vs):
    """The morphism residual with its right side from `ordered_morphism_rhs`.

    The components {arity: f_k} are read through one callable, None at a
    missing arity, and every split and every ordered partition is walked.
    The left side is the package's weak-Jacobi shuffle sum over all head
    sizes, which the S_n oracle above checks on its own.
    """

    def f(xs):
        component = components.get(len(xs))
        return None if component is None else component(xs)

    vs = list(vs)
    if any(dom.is_zero(v) for v in vs):
        return cod.zero()
    degs = [dom.degree(v) for v in vs]

    def compose(head, tail):
        inner = dom.bracket(head)
        return None if dom.is_zero(inner) else f([inner] + tail)

    total = None
    for weight, term in itertools.chain(_shuffle_composites(compose, vs, degs),
                                        ordered_morphism_rhs(f, cod, vs, degs)):
        if term is None or cod.is_zero(term):
            continue
        term = cod.scale(weight, term)
        total = term if total is None else cod.add(total, term)
    return cod.zero() if total is None else total


@pytest.fixture(scope="session")
def morphism_oracle():
    return ordered_morphism_residual


def ce_differential_by_targets(f):
    """Oracle for `calculus.ce_differential` and the label formula under it,
    `calculus.label_differential`: d f evaluated word by word.

    For each word length l in f it walks every ascending target word of
    length l + 1, whatever the support of f, and evaluates

        df(x_0..x_l) = sum_j (-1)^j D_{x_j} f(.. ^x_j ..)
                     + sum_{i<j} (-1)^{i+j} f([x_i,x_j], .. ^x_i .. ^x_j ..)

    on it through the pair's `action_basis` and `bracket_basis`.
    """
    pair = f.pair
    values = []
    by_length: dict[int, dict] = {}
    for w, c in f.items():
        by_length.setdefault(len(w), {})[w] = c
    for length, terms in by_length.items():
        for target in ascending_words(pair.ngens, length + 1):
            val = Poly.zero(pair.poly_nvars)
            for j, g in enumerate(target):
                inner = terms.get(target[:j] + target[j + 1:])
                if inner is not None:
                    contrib = pair.action_basis(g, inner)
                    val = val + (contrib if j % 2 == 0 else -contrib)
            for i in range(length + 1):
                for j in range(i + 1, length + 1):
                    rest = tuple(g for t, g in enumerate(target) if t not in (i, j))
                    outer = -1 if (i + j) % 2 else 1
                    for k, c in pair.bracket_basis(target[i], target[j]):
                        sign, norm = sort_word((k,) + rest)
                        inner = terms.get(norm)
                        if sign and inner is not None:
                            val = val + (outer * sign) * c * inner
            values.append((target, val))
    return Cotensor(pair, values)


@pytest.fixture(scope="session")
def differential_oracle():
    return ce_differential_by_targets


def schouten_by_terms(u, v):
    """Oracle for `calculus.schouten`: the Marle closed form term by term,
    one `Poly` product per coefficient pair, through the pair's
    `bracket_basis`, `acting` and `action_basis`, not through labels."""
    pair = u.pair
    products = []
    u_terms, v_terms = u.items(), v.items()
    u_letters, v_letters = any(w for w, _ in u_terms), any(w for w, _ in v_terms)
    v_terms = [(wv, b, pair.acting(b) if u_letters else ()) for wv, b in v_terms]

    def emit(word, sign, coeff):
        s, norm = sort_word(word)
        if s:
            products.append((norm, coeff if s == sign else -coeff))

    for wu, a in u_terms:
        p = len(wu)
        acts_on_a = pair.acting(a) if v_letters else ()
        for wv, b, acts_on_b in v_terms:
            for t, j in enumerate(wv):
                sign = -1 if t % 2 else 1
                rest = wv[:t] + wv[t + 1:]
                for r, i in enumerate(wu):
                    for k, c in pair.bracket_basis(i, j):
                        emit(wu[:r] + (k,) + wu[r + 1:] + rest, sign, a * b * c)
                if j in acts_on_a:
                    emit(wu + rest, -sign, pair.action_basis(j, a) * b)
            for r, i in enumerate(wu):
                if i in acts_on_b:
                    emit(wu[:r] + wu[r + 1:] + wv, -1 if (p - 1 - r) % 2 else 1,
                         a * pair.action_basis(i, b))
    return Tensor(pair, products)


def wedge_by_polys(x, y):
    """Oracle for `_Element.wedge`, which convolves int numerators by label:
    one `Poly` product per pair of words, read through `items()`, with the
    reordering sign of `sort_word`, summed by the checked constructor."""
    products = []
    for w1, c1 in x.items():
        for w2, c2 in y.items():
            sign, norm = sort_word(w1 + w2)
            if sign:
                c = c1 * c2
                products.append((norm, c if sign == 1 else -c))
    return type(x)(x.pair, products)


def pairing_by_polys(f, x):
    """Oracle for `calculus.pairing`, which convolves int numerators by
    label: one `Poly` product per word both have, read through `items()`."""
    if f.pair != x.pair:
        raise ValueError("pairing across different pairs")
    on_x = dict(x.items())
    out = Poly.zero(f.pair.poly_nvars)
    for w, b in f.items():
        a = on_x.get(w)
        if a is not None:
            out = out + a * b
    return out


def higher_bracket_by_terms(xs):
    """Oracle for `calculus.higher_bracket`: the (2, k-2)-shuffle sum on
    Tensors, over every tuple of homogeneous parts, with each Schouten
    bracket from `schouten_by_terms` and each tail wedge from
    `wedge_by_polys`, so no label product is shared with the bracket."""
    xs = list(xs)
    k = len(xs)
    pair = xs[0].pair
    total = Tensor.zero(pair)
    if k == 1:
        return total
    split = [sorted(x.homogeneous_parts().items()) for x in xs]
    for combo in itertools.product(*split):
        degs = tuple(d for d, _ in combo)
        parts = [part for _, part in combo]
        if sum(degs) - 1 > pair.ngens:
            continue
        for s in enumerate_shuffles((2, k - 2)):
            sign = koszul_sign(s, degs)
            if degs[s[0] - 1] % 2:
                sign = -sign
            inner = schouten_by_terms(parts[s[1] - 1], parts[s[0] - 1])
            tail = [parts[i - 1] for i in reversed(s[2:])]
            total = total + sign * functools.reduce(wedge_by_polys, tail + [inner])
    return total


def basis_elements(pair, cls, labels):
    """The unit-monomial element x^key e_word of each slice label (word, key)."""
    nvars = pair.poly_nvars
    return [cls(pair, {w: Poly(nvars, {monomial_exponents(e, nvars): 1})}) for w, e in labels]


def kernel_by_null_space(s, degree, pd):
    """Oracle for the contraction kernel: the labels of a tensor window and
    the label vectors of the null space of their contractions' matrix."""
    labels = slice_basis(s.pair, degree, range(pd + 1))
    rows = matrix_of([label_contraction(s, w, e) for w, e in labels])
    return labels, [coords_vector(labels, *vec) for vec in null_space(rows, len(labels))]


def reduce_mod_kernel_by_parts(s, x):
    """Oracle for `reduce_mod_kernel`: x split into Tensors by wedge degree,
    each reduced against a fresh quotient spanned by its window's kernel
    (`kernel_by_null_space`), and the parts added back as Tensors."""
    out = Tensor.zero(s.pair)
    pd = max(x.max_poly_degree(), 0)
    for degree, part in x.homogeneous_parts().items():
        labels, kernel = kernel_by_null_space(s, degree, pd)
        if kernel:
            residue = Quotient(s.pair, labels, kernel).residue(*label_vector(part))
            part = label_element(s.pair, Tensor, *residue)
        out = out + part
    return out


def extension_slice_by_null_space(s, k, r):
    """Oracle for `cohomology.extension_slice`: the null space of d on the
    contractions of the tensor labels (`symplectic_slice`), one image
    i_x omega per null vector, and a Quotient of the cotensor slice whose
    relations put every image in the span, on its own, before the d h of
    the cotensor slice join it."""
    pair = s.pair
    labels = slice_basis(pair, s.n + 1 - k, r)
    tensors, null = symplectic_slice(s, k, r)
    # above degree n + 1 every image is zero
    vectors = [label_contraction(s, w, e) for w, e in tensors] if k <= s.n + 1 else []
    images = [combine(vec, vectors) for vec in null] if vectors else []
    # the exact cotensors h of degree k: d raises the word length by one and
    # lowers the polynomial degree by one where there are variables
    _, exact = differential_slice(pair, s.n - k, r + 1 if pair.poly_nvars else r)
    image = Quotient(pair, labels, exact, [({}, nums) for nums, _ in images])
    return image, image.ranks[0] + len(exact)


def extension_table_by_full_elimination(s, degrees, weights):
    """Oracle for `cohomology.extension_cohomology_table`: every rank the
    full quotient of `extension_slice`, its images and every d h of the
    exact cotensors in one echelon, ranked again for each row that needs
    it, on any family and with no slice sized first."""
    def differential(k, r):
        image, dim = extension_slice(s, k, r)
        return image.echelon.rank, dim
    rows = []
    for w in weights:
        for k in degrees:
            rank, dim = differential(k, w)
            # d lowers the polynomial degree by one where there are variables
            im, _ = differential(k + 1, w + 1 if s.pair.poly_nvars else w)
            rows.append({"degree": k, "weight": w, "dim": dim,
                         "kernel": dim - rank, "image": im, "rank": dim - rank - im})
    return rows


class DictPoly:
    """Oracle for `Poly`: polynomials as plain {exponent tuple: Fraction}
    dicts with no zero values, one Fraction operation per coefficient."""

    @staticmethod
    def add(a, b):
        out = dict(a)
        for e, c in b.items():
            out[e] = out.get(e, 0) + c
        return {e: c for e, c in out.items() if c}

    @staticmethod
    def scale(q, a):
        return {e: q * c for e, c in a.items()} if q else {}

    @staticmethod
    def mul(a, b):
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return {e: c for e, c in out.items() if c}

    @staticmethod
    def power(a, k, nvars):
        out = {(0,) * nvars: Fraction(1)}
        for _ in range(k):
            out = DictPoly.mul(out, a)
        return out

    @staticmethod
    def diff(a, i):
        out = {}
        for e, c in a.items():
            if e[i]:
                out[e[:i] + (e[i] - 1,) + e[i + 1:]] = c * e[i]
        return out

    @staticmethod
    def substitute(a, images, nvars):
        out = {}
        for e, c in a.items():
            term = {(0,) * nvars: c}
            for img, k in zip(images, e):
                term = DictPoly.mul(term, DictPoly.power(img, k, nvars))
            out = DictPoly.add(out, term)
        return out

    @staticmethod
    def components(a):
        out = {}
        for e, c in a.items():
            out.setdefault(sum(e), {})[e] = c
        return out

    @staticmethod
    def format(a, names):
        """Highest total degree first, then exponents descending; unit
        coefficients of non-constant monomials are left out."""
        if not a:
            return "0"
        text = ""
        for e in sorted(a, key=lambda e: (sum(e), e), reverse=True):
            c = a[e]
            mono = "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k)
            body = "*".join(([] if mono and abs(c) == 1 else [str(abs(c))])
                            + ([mono] if mono else []))
            if not text:
                text = ("-" if c < 0 else "") + body
            else:
                text += (" - " if c < 0 else " + ") + body
        return text


@pytest.fixture(scope="session")
def poly_oracle():
    return DictPoly


def random_extension_element(rng, s, degree):
    """A degree-k element: a random symplectic tensor, then a random cotensor.

    The cotensor slot is zero when the degree exceeds n.
    """
    x = random_symplectic(rng, s, degree)
    f = random_cotensor(rng, s.pair, s.n - degree, max_degree=2)
    return ExtensionElement(s, f, x)


@pytest.fixture(scope="session")
def random_extension():
    return random_extension_element


def pytest_terminal_summary(terminalreporter):
    if _LOG.lines:
        terminalreporter.section("acceptance criteria")
        for line in _LOG.lines:
            terminalreporter.write_line(line)
