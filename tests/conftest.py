"""Shared fixtures: a verdict log that survives output capture, the S_n
oracle for the weak Jacobi residual, the ordered-block oracle for the
morphism residual, the target-word oracle for d, a plain
{exponent: Fraction} polynomial arithmetic as the oracle for `Poly`, and a
sampler of extension elements."""

import itertools
import math
from fractions import Fraction

import pytest

from nplectic.elements import Cotensor, ascending_words, sort_word
from nplectic.engine import ExtensionElement
from nplectic.identities import random_symplectic
from nplectic.linf import _shuffle_composites
from nplectic.sampling import random_cotensor
from nplectic.scalars import Poly, enumerate_shuffles, koszul_sign, sparse_sum


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


def ordered_morphism_residual(f, dom, cod, vs):
    """The morphism residual with its right side from `ordered_morphism_rhs`.

    The left side is the package's weak-Jacobi shuffle sum, which the S_n
    oracle above checks on its own.
    """
    vs = list(vs)
    if any(dom.is_zero(v) for v in vs):
        return cod.zero()
    degs = [dom.degree(v) for v in vs]
    total = None
    for weight, term in itertools.chain(_shuffle_composites(dom, f, vs, degs),
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
    """Oracle for `calculus.ce_differential`: d f evaluated word by word.

    For each word length l in f it walks every ascending target word of
    length l + 1, whatever the support of f, and evaluates

        df(x_0..x_l) = sum_j (-1)^j D_{x_j} f(.. ^x_j ..)
                     + sum_{i<j} (-1)^{i+j} f([x_i,x_j], .. ^x_i .. ^x_j ..)

    on it through the pair's `action_basis` and `bracket_basis`.
    """
    pair = f.pair
    values = []
    by_length: dict[int, dict] = {}
    for w, c in f.terms.items():
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
    out = Cotensor.zero(pair)
    out.terms = sparse_sum(values)
    return out


@pytest.fixture(scope="session")
def differential_oracle():
    return ce_differential_by_targets


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
