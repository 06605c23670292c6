"""Exterior calculus: pairing, contraction, differential, Lie derivative,
the odd graded (Schouten-type) bracket and the higher tensor brackets.

Conventions, once and for all:

* tensors are graded by wedge-word length, cotensors by minus that;
* the pairing of basis words is the Kronecker delta (it is the
  determinant pairing evaluated on ascending words);
* contraction is the signed Laplace expansion, first wedge letter first,
  so that <i_x f, y> = <f, x ^ y>;
* the differential is the Q-linear operator fixed by its values on the
  unit cotensors x^key e^w, the slice labels, which `label_differential`
  gives as integers (it is a first-order operator, not an A-module map:
  d(x^2) = 2x dx);
* the odd bracket is the biderivation extending the pair bracket, the
  action and zero on ring pairs, with [u,v] = -(-1)^((|u|-1)(|v|-1)) [v,u];
* the module is free of rank ngens, so Lambda^{>ngens} = 0, and contracting
  a tensor into a cotensor of shorter word length gives 0: a value the
  grading puts there is zero without being computed.

Every identity these operators are supposed to satisfy is enforced by the
test suite rather than assumed; the randomized Cartan-rule suite in
`identities` is the arbiter for the sign conventions.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .elements import Cotensor, Tensor, label_element, label_vector, sort_word, wedge_list
from .scalars import Poly, enumerate_shuffles, koszul_sign, require_arity, sparse_sum

# The highest arity of `higher_bracket`: it sums C(k, 2) shuffle terms, each a
# Schouten bracket wedged with the k - 2 other arguments.
MAX_BRACKET_ARITY = 12


def pairing(f: Cotensor, x: Tensor) -> Poly:
    """Natural pairing <f, x>; zero across mismatched degrees."""
    if f.pair != x.pair:
        raise ValueError("pairing across different pairs")
    out = Poly.zero(f.pair.poly_nvars)
    for w, b in f.terms.items():
        a = x.terms.get(w)
        if a is not None:
            out = out + a * b
    return out


def contract(x: Tensor, f: Cotensor) -> Cotensor:
    """Contraction i_x f by signed Laplace expansion (first letter first).

    Adjoint to wedging on the right: <i_x f, y> = <f, x ^ y>.  A ring
    element in degree zero just scales: i_a f = a f.
    """
    if x.pair != f.pair:
        raise ValueError("contraction across different pairs")
    products = []
    for wx, a in x.terms.items():
        for wf, b in f.terms.items():
            letters = list(wf)
            sign = 1
            for g in wx:
                if g not in letters:
                    sign = 0
                    break
                at = letters.index(g)
                if at % 2:
                    sign = -sign
                del letters[at]
            if sign:
                products.append((tuple(letters), a * b * sign))
    out = Cotensor.zero(f.pair)
    out.terms = sparse_sum(products)
    return out


def label_differential(pair, word, key) -> list[tuple[tuple, int]]:
    """d of the unit cotensor x^key e^word, as (label, int) terms over
    `pair.bracket_den`: the one formula for d.

    On a word-length-l cotensor the value on a basis tuple is the
    alternating sum of derivations of the deleted-letter coefficients plus
    the alternating bracket-insertion sum:

        df(x_0..x_l) = sum_j (-1)^j D_{x_j} f(.. ^x_j ..)
                     + sum_{i<j} (-1)^{i+j} f([x_i,x_j], .. ^x_i .. ^x_j ..)

    So x^key e^word reaches the word with one letter g added at position
    j, with (-1)^j D_g(x^key), for each g in `pair.monomial_action(key)`
    not in the word; and the word with its t-th letter k traded for
    a < b, with (-1)^(i+j+t) c^k_{ab} x^key, where i and j are the
    positions of a and b in the target.  The work follows the generators
    acting on the monomial and the bracket rows, not the number of target
    words.  Two terms may share a target.
    """
    den, length = pair.bracket_den, len(word)
    terms = []
    j = 0
    for g, k, lowered in pair.monomial_action(key):
        while j < length and word[j] < g:
            j += 1
        if j < length and word[j] == g:
            continue
        k *= den
        terms.append(((word[:j] + (g,) + word[j:], lowered), -k if j % 2 else k))
    for a, b, k, c in pair.bracket_nums:
        if k not in word:
            continue
        t = word.index(k)
        rest = word[:t] + word[t + 1:]
        if a in rest or b in rest:
            continue
        target = tuple(sorted(rest + (a, b)))
        odd = (target.index(a) + target.index(b) + t) % 2
        terms.append(((target, key), -c if odd else c))
    return terms


def differential_numerators(pair, nums: dict) -> dict:
    """d on a label vector: the numerators of d of the cotensor with
    numerators nums, over their denominator times `pair.bracket_den`,
    summed label by label through `label_differential`; zeros dropped."""
    out: dict = {}
    for (w, key), a in nums.items():
        for lab, c in label_differential(pair, w, key):
            out[lab] = out.get(lab, 0) + a * c
    return {lab: c for lab, c in out.items() if c}


def ce_differential(f: Cotensor) -> Cotensor:
    """The degree -1 differential of the pair: `label_differential` applied
    to the terms of f, so the work follows the support of f."""
    nums, den = label_vector(f)
    return label_element(f.pair, Cotensor, differential_numerators(f.pair, nums),
                         den * f.pair.bracket_den)


def lie_derivative(x: Tensor, f: Cotensor) -> Cotensor:
    """Cartan's formula L_x f = d i_x f - (-1)^|x| i_x df, degree |x| - 1."""
    out = Cotensor.zero(f.pair)
    df = None
    for deg, part in x.homogeneous_parts().items():
        out = out + ce_differential(contract(part, f))
        if df is None:
            df = ce_differential(f)
        term = contract(part, df)
        out = out + (-term if deg % 2 == 0 else term)
    return out


# ---------------------------------------------------------------------------
# the odd graded bracket
# ---------------------------------------------------------------------------

def schouten(u: Tensor, v: Tensor) -> Tensor:
    """Odd bracket on the exterior tensor algebra, degree |u| + |v| - 1.

    The biderivation generated by the pair bracket on vectors, the action
    on (vector, ring) pairs and zero on ring pairs:
    [u, v^w] = [u,v]^w + (-1)^((|u|-1)|v|) v^[u,w], the matching left rule,
    and [u,v] = -(-1)^((|u|-1)(|v|-1)) [v,u].  On terms a e_I and b e_J,
    I = i_1..i_p and J = j_1..j_q, it is the closed form (Marle, J. Geom.
    Phys. 23, 1997)

        [a e_I, b e_J] =
              sum_{r,t} (-1)^(t-1) a b sum_k c^k_{i_r j_t} e_{I, i_r -> k} ^ e_{J - j_t}
            - sum_t     (-1)^(t-1) D_{j_t}(a) b e_I ^ e_{J - j_t}
            + sum_r     (-1)^(p-r) a D_{i_r}(b) e_{I - i_r} ^ e_J

    where c^k_{ij} are the rows of `bracket_basis` and D_i is `action_basis`,
    formed only for the generators i in `pair.acting` of its coefficient.
    """
    if u.pair != v.pair:
        raise ValueError("bracket across different pairs")
    pair = u.pair
    products = []
    # acting(b) is read only at the letters of u's words, acting(a) at those of v's
    u_letters, v_letters = any(u.terms), any(v.terms)
    v_terms = [(wv, b, pair.acting(b) if u_letters else ()) for wv, b in v.terms.items()]

    def emit(word, sign, coeff):
        s, norm = sort_word(word)
        if s:
            products.append((norm, coeff if s == sign else -coeff))

    for wu, a in u.terms.items():
        p = len(wu)
        acts_on_a = pair.acting(a) if v_letters else ()
        for wv, b, acts_on_b in v_terms:
            ab = None
            for t, j in enumerate(wv):
                sign = -1 if t % 2 else 1
                rest = wv[:t] + wv[t + 1:]
                for r, i in enumerate(wu):
                    for k, c in pair.bracket_basis(i, j):
                        if ab is None:
                            ab = a * b
                        emit(wu[:r] + (k,) + wu[r + 1:] + rest, sign, ab * c)
                if j in acts_on_a:
                    emit(wu + rest, -sign, pair.action_basis(j, a) * b)
            for r, i in enumerate(wu):
                if i in acts_on_b:
                    emit(wu[:r] + wu[r + 1:] + wv, -1 if (p - 1 - r) % 2 else 1,
                         a * pair.action_basis(i, b))
    out = Tensor.zero(pair)
    out.terms = sparse_sum(products)
    return out


# ---------------------------------------------------------------------------
# higher brackets and the inclusion
# ---------------------------------------------------------------------------

def _hom_tuples(xs):
    """Cartesian product of homogeneous parts, with their degree tuples;
    a homogeneous argument is its own part, keeping its identity."""
    split = []
    for x in xs:
        parts = x.homogeneous_parts() if x.grade is None else {x.grade: x}
        if not parts:
            return
        split.append(sorted(parts.items()))
    for combo in itertools.product(*split):
        degs = tuple(d for d, _ in combo)
        parts = tuple(p for _, p in combo)
        yield degs, parts


def higher_bracket(xs, pairs=None) -> Tensor:
    """k-ary graded symmetric bracket on the exterior tensor algebra, k = len(xs).

    [x_1..x_k] = sum over (2, k-2)-shuffles s of
        sign(s; x) * (-1)^|x_{s(1)}| * x_{s(k)} ^ .. ^ x_{s(3)} ^ [x_{s(2)}, x_{s(1)}]

    Degree -1 as a multilinear map; the unary bracket is zero.  An arity
    above MAX_BRACKET_ARITY raises CapExceeded, and arguments over
    different pairs raise ValueError, before any term is formed.  A tuple
    of homogeneous parts whose degrees sum past ngens + 1 lands in
    Lambda^{>ngens} = 0 and is skipped.  Each Schouten bracket of two parts
    is formed once per `pairs`, a dict keyed by their ids that holds them,
    so no id is reused while it lives; one Jacobi residual shares one.
    """
    xs = list(xs)
    k = len(xs)
    require_arity(k, MAX_BRACKET_ARITY)
    pair = xs[0].pair
    if k == 1:
        return Tensor.zero(pair)
    if any(x.pair != pair for x in xs):
        raise ValueError("bracket across different pairs")
    shuffle_set = enumerate_shuffles((2, k - 2))
    pairs = {} if pairs is None else pairs
    total = Tensor.zero(pair)
    for degs, parts in _hom_tuples(xs):
        if sum(degs) - 1 > pair.ngens:
            continue
        for s in shuffle_set:
            sign = koszul_sign(s, degs)
            if degs[s[0] - 1] % 2:
                sign = -sign
            u, v = parts[s[1] - 1], parts[s[0] - 1]
            key = (id(u), id(v))
            if key not in pairs:
                pairs[key] = (u, v, schouten(u, v))
            inner = pairs[key][2]
            if inner.is_zero():
                continue
            tail = [parts[i - 1] for i in reversed(s[2:])]
            term = wedge_list(pair, Tensor, tail + [inner])
            total = total + sign * term
    return total


def natural_inclusion(xs) -> Tensor:
    """Inclusion component (x_1..x_k) -> (-1)^(k-1) (k-1)! x_k ^ .. ^ x_1, k = len(xs)."""
    xs = list(xs)
    coeff = Fraction((-1) ** (len(xs) - 1) * math.factorial(len(xs) - 1))
    return coeff * wedge_list(xs[0].pair, Tensor, xs[::-1])
