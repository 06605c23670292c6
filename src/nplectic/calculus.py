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
  it and the higher brackets act on labels too: they read their
  arguments' label vectors grouped by word, every coefficient product is
  an int convolution of monomial keys, and one Tensor is built from the
  sum over `pair.bracket_den` times the arguments' denominators;
* the module is free of rank ngens, so Lambda^{>ngens} = 0, and contracting
  a tensor into a cotensor of shorter word length gives 0: a value the
  grading puts there is zero without being computed.

`pairing` convolves label vectors; `contract` stays on `Poly`, one product
per word pair, because the benchmark's tests pin `scalars.poly_mul.calls > 0`.

Every identity these operators are supposed to satisfy is enforced by the
test suite rather than assumed; the randomized Cartan-rule suite in
`identities` is the arbiter for the sign conventions.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .elements import (
    Cotensor,
    Tensor,
    _emit,
    _nonzero,
    _wedge_into,
    label_element,
    label_vector,
    label_words,
    wedge_list,
    words_element,
)
from .scalars import Poly, add_product, enumerate_shuffles, koszul_sign, require_arity, sum_vectors

# The highest arity of `higher_bracket`: it sums C(k, 2) shuffle terms, each a
# Schouten bracket wedged with the k - 2 other arguments.
MAX_BRACKET_ARITY = 12


def pairing(f: Cotensor, x: Tensor) -> Poly:
    """Natural pairing <f, x>, zero across mismatched degrees: on labels, one
    int convolution per word both have, over the product of the denominators."""
    if f.pair != x.pair:
        raise ValueError("pairing across different pairs")
    (a, den_f), (b, den_x) = label_words(f), label_words(x)
    out: dict = {}
    for w, nums in a.items():
        if w in b:
            add_product(out, nums, b[w], 1)
    nums = _nonzero(f.pair, {(): out}).get((), {})
    return Poly._from_nums(f.pair.poly_nvars, nums, den_f * den_x)


def contract(x: Tensor, f: Cotensor) -> Cotensor:
    """Contraction i_x f by signed Laplace expansion (first letter first).

    Adjoint to wedging on the right: <i_x f, y> = <f, x ^ y>.  A ring
    element in degree zero just scales: i_a f = a f.
    """
    if x.pair != f.pair:
        raise ValueError("contraction across different pairs")
    products = []
    on_f = f.items()
    for wx, a in x.items():
        for wf, b in on_f:
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
                nums, den = (a * b * sign).numerators()
                word = tuple(letters)
                products.append(({(word, e): c for e, c in nums.items()}, den))
    return label_element(f.pair, Cotensor, *sum_vectors(products))


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
    summed label by label through `label_differential`; zeros dropped.
    Sums inline: in this inner loop of every slice build `sparse_sum` cost ~6%."""
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
# the odd graded bracket, on labels
# ---------------------------------------------------------------------------
#
# The brackets act on label vectors grouped by word (`label_words`), through
# the products of `elements`: a coefficient product is an int convolution
# of monomial keys, and one Tensor is built from the sum at the end.

def _derivatives(pair, words: dict) -> dict:
    """D_g of each word's numerators, {word: {g: {key: int}}}, for every
    generator g acting on them."""
    out: dict = {}
    for w, nums in words.items():
        by_gen = out[w] = {}
        for e, c in nums.items():
            for g, k, lowered in pair.monomial_action(e):
                by_gen.setdefault(g, {})[lowered] = k * c
    return out


def _schouten_words(pair, u: dict, du: dict, v: dict, dv: dict) -> dict:
    """The Marle closed form of `schouten` on word-grouped numerators u, v
    with their derivatives du, dv: the numerators of [u, v] over
    `pair.bracket_den` times the operands' denominators.

    Per word pair, each target word and its sign is formed once, and the
    monomial work is one convolution.  The bracket terms come from the rows
    of `pair.bracket_nums`, both signs, the action terms from the
    derivatives of the other operand's numerators.
    """
    den = pair.bracket_den
    out: dict = {}
    for wu, a in u.items():
        p, acts_on_a = len(wu), du[wu]
        for wv, b in v.items():
            acts_on_b = dv[wv]
            for t, j in enumerate(wv):
                if j in acts_on_a:
                    _emit(out, wu + wv[:t] + wv[t + 1:], den if t % 2 else -den, acts_on_a[j], b)
            for r, i in enumerate(wu):
                if i in acts_on_b:
                    _emit(out, wu[:r] + wu[r + 1:] + wv, -den if (p - 1 - r) % 2 else den,
                          a, acts_on_b[i])
            for row_i, row_j, k, n in pair.bracket_nums:
                for i, j, c in ((row_i, row_j, n), (row_j, row_i, -n)):
                    if i in wu and j in wv:
                        r, t = wu.index(i), wv.index(j)
                        _emit(out, wu[:r] + (k,) + wu[r + 1:] + wv[:t] + wv[t + 1:],
                              -c if t % 2 else c, a, b)
    return _nonzero(pair, out)


# the word-grouped numerators of the unit scalar
_UNIT = {(): {0: 1}}


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

    where c^k_{ij} are the structure constants and D_i the action.  It is
    evaluated on labels: `_schouten_words` applies the formula to the
    word-grouped numerators of u and v over `pair.bracket_den`, and the one
    Tensor is built from the sum.
    """
    if u.pair != v.pair:
        raise ValueError("bracket across different pairs")
    pair = u.pair
    (a, den_u), (b, den_v) = label_words(u), label_words(v)
    return words_element(pair, Tensor,
                         _schouten_words(pair, a, _derivatives(pair, a), b, _derivatives(pair, b)),
                         den_u * den_v * pair.bracket_den)


# ---------------------------------------------------------------------------
# higher brackets and the inclusion
# ---------------------------------------------------------------------------

def _grouped(pairs: dict, x) -> tuple:
    """x's entry in `pairs`, made on first use: (x, parts, derivatives,
    den), its word-grouped numerators split by degree, {degree: {word:
    {key: int}}} over den, and their `_derivatives`.  Holding x keeps its
    id in use."""
    entry = pairs.get(id(x))
    if entry is None:
        words, den = label_words(x)
        parts: dict = {}
        for w, nums in words.items():
            parts.setdefault(len(w), {})[w] = nums
        entry = pairs[id(x)] = (x, parts, _derivatives(x.pair, words), den)
    return entry


def require_bracket_arguments(xs) -> None:
    """Raise CapExceeded for an arity above MAX_BRACKET_ARITY, then
    ValueError for arguments over different pairs."""
    require_arity(len(xs), MAX_BRACKET_ARITY)
    if any(x.pair != xs[0].pair for x in xs):
        raise ValueError("bracket across different pairs")


def higher_bracket(xs, pairs=None) -> Tensor:
    """k-ary graded symmetric bracket on the exterior tensor algebra, k = len(xs).

    [x_1..x_k] = sum over (2, k-2)-shuffles s of
        sign(s; x) * (-1)^|x_{s(1)}| * x_{s(k)} ^ .. ^ x_{s(3)} ^ [x_{s(2)}, x_{s(1)}]

    Degree -1 as a multilinear map; the unary bracket is zero.  An arity
    above MAX_BRACKET_ARITY raises CapExceeded, and arguments over
    different pairs raise ValueError, before any term is formed.  A tuple
    of homogeneous parts whose degrees sum past ngens + 1 lands in
    Lambda^{>ngens} = 0 and is skipped.

    The sum runs on labels.  Every term is a product of one homogeneous
    part of each argument, so all of them sit over one denominator,
    `pair.bracket_den` times the arguments' own, and are summed as ints
    into one Tensor at the end.  `pairs` is a dict keyed by ids: under an
    argument's id it holds the argument with its `_grouped` form, and under
    two ids and degrees the Schouten bracket of those parts, word-grouped.
    Holding the arguments keeps their ids in use.  One Jacobi residual
    shares one dict, so each argument is grouped once and each Schouten
    bracket formed once.
    """
    xs = list(xs)
    k = len(xs)
    require_bracket_arguments(xs)
    pair = xs[0].pair
    if k == 1:
        return Tensor.zero(pair)
    shuffle_set = enumerate_shuffles((2, k - 2))
    pairs = {} if pairs is None else pairs
    _, parts, derivatives, dens = zip(*(_grouped(pairs, x) for x in xs))
    total: dict = {}
    for degs in itertools.product(*map(sorted, parts)):
        if sum(degs) - 1 > pair.ngens:
            continue
        for s in shuffle_set:
            sign = koszul_sign(s, degs)
            if degs[s[0] - 1] % 2:
                sign = -sign
            u, v = s[1] - 1, s[0] - 1
            key = (id(xs[u]), degs[u], id(xs[v]), degs[v])
            term = pairs.get(key)
            if term is None:
                term = pairs[key] = _schouten_words(pair, parts[u][degs[u]], derivatives[u],
                                                    parts[v][degs[v]], derivatives[v])
            # x_{s(k)} ^ .. ^ x_{s(3)} ^ term, the outermost factor wedged into the sum
            factors = [parts[i - 1][degs[i - 1]] for i in s[2:]] or [_UNIT]
            for part in factors[:-1]:
                if not term:
                    break
                term = _nonzero(pair, _wedge_into({}, part, term, 1))
            _wedge_into(total, factors[-1], term, sign)
    return words_element(pair, Tensor, total, pair.bracket_den * math.prod(dens))


def natural_inclusion(xs) -> Tensor:
    """Inclusion component (x_1..x_k) -> (-1)^(k-1) (k-1)! x_k ^ .. ^ x_1, k = len(xs)."""
    xs = list(xs)
    coeff = Fraction((-1) ** (len(xs) - 1) * math.factorial(len(xs) - 1))
    return coeff * wedge_list(xs[0].pair, Tensor, xs[::-1])
