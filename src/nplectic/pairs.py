"""Concrete Lie-Rinehart pairs and their axiom checks.

A pair couples a commutative coefficient ring A with a Lie algebra g that
is simultaneously a finitely generated free A-module, acting on A by
derivations.  Two families are implemented:

* `ConstantPair`: A = Q with the zero action; the bracket is given by
  structure constants on a finite basis e_1..e_d.
* `PolyVectorFieldPair`: A = Q[x_1..x_m] and g the free module on the
  coordinate derivations, with the usual vector-field bracket.

Both are torsionless (free modules embed in their double dual), which the
validator spot-checks through the nondegeneracy of the basis pairing.

`acting(c)` is the one answer to "which generators act on the coefficient
c?": exactly the g with a nonzero `action_basis(g, c)`, in ascending
order, so a caller acts only with those and needs no zero test.

On a slice label (word, monomial key) both are read as integers, the form
`calculus.label_differential` takes them in: `monomial_action(key)` gives
D_g of the monomial per acting generator g, and `bracket_nums` the
structure constants as int numerators over `bracket_den`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .calculus import pairing
from .elements import Cotensor, Tensor
from .report import Report, witness_unless
from .sampling import random_coeff, random_gvector, random_tuples
from .scalars import (
    Poly,
    _default_names,
    as_int,
    as_rational,
    format_poly,
    monomial_derivatives,
    parse_poly,
    sparse_sum,
)


@dataclass(frozen=True)
class ConstantPair:
    """Constant coefficients: A = Q, zero anchor, structure-constant bracket.

    `brackets` holds (i, j, k, c) rows with i < j meaning the e_k
    coefficient of [e_i, e_j] is c.  Missing rows are zero.  The Jacobi
    identity is deliberately not enforced here; `validate_pair` reports it.
    """

    dim: int
    brackets: tuple[tuple[int, int, int, Fraction], ...] = ()

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("need at least one generator")
        seen = set()
        rows = []
        for row in self.brackets:
            i, j, k, c = row
            if not (1 <= i < j <= self.dim and 1 <= k <= self.dim):
                raise ValueError(f"bad structure constant indices {row}")
            if (i, j, k) in seen:
                raise ValueError(f"duplicate structure constant {row}")
            seen.add((i, j, k))
            c = as_rational(c)
            if c:
                rows.append((i, j, k, c))
        object.__setattr__(self, "brackets", tuple(sorted(rows)))
        # [e_i, e_j] rows per ordered (i, j), both signs; not a field, so
        # equality, hashing and repr do not see it
        table = {}
        for i, j, k, c in self.brackets:
            table.setdefault((i, j), []).append((k, c))
            table.setdefault((j, i), []).append((k, -c))
        object.__setattr__(self, "_bracket_table", table)
        # the rows as int numerators over the lcm of their denominators
        den = math.lcm(*(c.denominator for *_, c in self.brackets))
        object.__setattr__(self, "bracket_den", den)
        object.__setattr__(self, "bracket_nums", tuple(
            (i, j, k, c.numerator * (den // c.denominator)) for i, j, k, c in self.brackets))

    @classmethod
    def from_brackets(cls, dim: int, table: dict) -> "ConstantPair":
        """Build from {(i, j): {k: c}}; rows with i > j are sign-folded."""
        rows = {}
        for (i, j), entry in table.items():
            flip = 1
            if i > j:
                i, j, flip = j, i, -1
            for k, c in entry.items():
                c = as_rational(c) * flip
                key = (i, j, k)
                rows[key] = rows.get(key, Fraction(0)) + c
        return cls(dim, tuple((i, j, k, c) for (i, j, k), c in rows.items() if c))

    # descriptor protocol used by elements and everything downstream
    family = "constant"

    @property
    def ngens(self) -> int:
        return self.dim

    poly_nvars = 0
    var_names = ()  # no variables; unannotated, so not a dataclass field

    def gen_name(self, g: int) -> str:
        return f"e{g}"

    def dual_name(self, g: int) -> str:
        return f"e^{g}"

    def coeff(self, value) -> Poly:
        return _coerce_coeff(self, value)

    def bracket_basis(self, i: int, j: int) -> list[tuple[int, Fraction]]:
        """[e_i, e_j] as (index, coefficient) rows, ascending in the index.

        The rows are read from a table built once with the pair and shared
        by every call: callers must not mutate the list.
        """
        return self._bracket_table.get((i, j), [])

    def acting(self, c: Poly) -> tuple[int, ...]:
        return ()  # no generator acts on Q

    def action_basis(self, i: int, a: Poly) -> Poly:
        return Poly.zero(0)

    def monomial_action(self, key: int) -> tuple:
        return ()


@dataclass(frozen=True)
class PolyVectorFieldPair:
    """Polynomial coefficients: A = Q[x_1..x_m], g free on the d/dx_i."""

    nvars: int
    brackets = bracket_nums = ()
    bracket_den = 1

    def __post_init__(self):
        if self.nvars < 1:
            raise ValueError("need at least one variable")

    family = "poly"

    @property
    def ngens(self) -> int:
        return self.nvars

    @property
    def poly_nvars(self) -> int:
        return self.nvars

    @property
    def var_names(self) -> tuple[str, ...]:
        return _default_names(self.nvars)

    def gen_name(self, g: int) -> str:
        return "@" + self.var_names[g - 1]

    def dual_name(self, g: int) -> str:
        return "d" + self.var_names[g - 1]

    def coeff(self, value) -> Poly:
        return _coerce_coeff(self, value)

    def bracket_basis(self, i: int, j: int) -> list[tuple[int, Fraction]]:
        return []  # coordinate derivations commute

    def acting(self, c: Poly) -> list[int]:
        return [v + 1 for v in c.variables()]  # e_g is d/dx_g

    def action_basis(self, i: int, a: Poly) -> Poly:
        return a.diff(i - 1)

    def monomial_action(self, key: int) -> list[tuple[int, int, int]]:
        """(g, k, lowered) for each generator g acting on the monomial x^key,
        ascending: D_g(x^key) = k x^lowered."""
        return monomial_derivatives(key, self.nvars, 1)  # e_g is d/dx_g


PairDescriptor = ConstantPair | PolyVectorFieldPair


def _coerce_coeff(pair, value) -> Poly:
    if isinstance(value, Poly):
        if value.nvars != pair.poly_nvars:
            raise ValueError(f"coefficient in {value.nvars} variables over {pair}")
        return value
    if isinstance(value, str):
        return parse_poly(value, pair.poly_nvars, pair.var_names or None)
    return Poly.const(pair.poly_nvars, value)


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------

def pair_to_json(pair: PairDescriptor) -> dict:
    if pair.family == "constant":
        table: dict[str, dict[str, str]] = {}
        for i, j, k, c in pair.brackets:
            table.setdefault(f"{i},{j}", {})[str(k)] = str(c)
        return {"family": "constant", "dim": pair.dim, "brackets": table}
    return {"family": "poly", "vars": pair.nvars}


def _json_object(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise TypeError(f"{what}: expected a JSON object, got {type(data).__name__}")
    return data


def _generator_index(text: str, what: str) -> int:
    """A generator index in a bracket-table key: ASCII digits, nothing else
    (no space, sign or digit underscore)."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{what}: a generator index is digits only, got {text!r}")
    return int(text)


def pair_from_json(data: dict) -> PairDescriptor:
    family = _json_object(data, "pair").get("family")
    if family == "constant":
        table = {}
        for key, entry in _json_object(data.get("brackets", {}), "brackets").items():
            row = key.split(",")
            if len(row) != 2:
                raise ValueError(f"bracket key {key!r}: expected 'i,j'")
            i, j = (_generator_index(v, f"bracket key {key!r}") for v in row)
            table[(i, j)] = {_generator_index(k, f"bracket {key} target"): as_rational(c)
                             for k, c in _json_object(entry, f"bracket {key}").items()}
        return ConstantPair.from_brackets(as_int(data["dim"], "'dim'"), table)
    if family == "poly":
        return PolyVectorFieldPair(as_int(data["vars"], "'vars'"))
    raise ValueError(f"unknown pair family {family!r}")


# ---------------------------------------------------------------------------
# elements of the pair itself
# ---------------------------------------------------------------------------

def lie_bracket(x: Tensor, y: Tensor) -> Tensor:
    """Bracket of two module elements (degree-one tensors).

    On decomposables: [a e_i, b e_j] = a D_i(b) e_j - b D_j(a) e_i
    + a b [e_i, e_j], the unique extension of the basis bracket that is
    compatible with the action (Leibniz on both slots).  The bracket part
    is summed over the structure-constant rows, a row (i, j, k, c) giving
    (a_i b_j - a_j b_i) c e_k.  The action part forms a D_i(b) e_j only
    for the generators i in `pair.acting(b)` that x has a term at, and
    b D_j(a) e_i likewise.
    """
    _require_vector(x)
    _require_vector(y)
    pair = x.pair
    terms = []
    for i, j, k, c in pair.brackets:
        for a, b, sign in ((x.terms.get((i,)), y.terms.get((j,)), c),
                           (x.terms.get((j,)), y.terms.get((i,)), -c)):
            if a is not None and b is not None:
                terms.append(((k,), (a * b).scale(sign)))
    for u, v, sign in ((x, y, 1), (y, x, -1)):
        for (j,), b in v.terms.items():
            for i in pair.acting(b):
                a = u.terms.get((i,))
                if a is not None:
                    terms.append(((j,), (a * pair.action_basis(i, b)).scale(sign)))
    out = Tensor.zero(pair)
    out.terms = sparse_sum(terms)
    return out


def action(x: Tensor, a) -> Poly:
    """The anchor: apply the derivation attached to x to the ring element a."""
    _require_vector(x)
    a = x.pair.coeff(a)
    acting = x.pair.acting(a)
    out = Poly.zero(x.pair.poly_nvars)
    for (i,), coeff in x.terms.items():
        if i in acting:
            out = out + coeff * x.pair.action_basis(i, a)
    return out


def _require_vector(x: Tensor):
    if any(len(w) != 1 for w in x.terms):
        raise ValueError("expected a degree-one tensor (module element)")


# ---------------------------------------------------------------------------
# axiom validation
# ---------------------------------------------------------------------------

def validate_pair(pair: PairDescriptor, samples: int = 25, seed: int = 0,
                  max_degree: int = 3) -> Report:
    """Randomized exact checks of the pair axioms, with witnesses on failure."""
    rng = random.Random(seed)
    report = Report("validate-pair", meta={
        "family": pair.family, "seed": seed, "samples": samples,
        "max_degree": max_degree,
    })
    vec, coeff = random_gvector, random_coeff

    def draw(*samplers):
        return random_tuples(rng, pair, samplers, samples, max_degree)

    report.first_failure("bracket_antisymmetry", draw(vec, vec), lambda x, y: witness_unless(
        (lie_bracket(x, y) + lie_bracket(y, x)).is_zero(), x=x, y=y))

    # Jacobi, exhaustively on the basis triples a bracket row reaches: the
    # Jacobiator of e_i, e_j, e_k vanishes unless two of them have a row.
    # The random triples are drawn up front, so the later checks draw the
    # same cases whether or not a basis triple fails.
    def jacobiator(x, y, z):
        total = (lie_bracket(x, lie_bracket(y, z))
                 + lie_bracket(y, lie_bracket(z, x))
                 + lie_bracket(z, lie_bracket(x, y)))
        return witness_unless(total.is_zero(), x=x, y=y, z=z, residual=total)

    reached = sorted({tuple(sorted((a, b, c))) for a, b, _, _ in pair.brackets
                      for c in range(1, pair.ngens + 1) if c not in (a, b)})
    triples = [tuple(Tensor.basis(pair, (g,)) for g in abc) for abc in reached]
    report.first_failure("jacobi", triples + list(draw(vec, vec, vec)), jacobiator)

    # the action is by derivations
    report.first_failure("action_derivation", draw(vec, coeff, coeff), lambda x, a, b: (
        witness_unless(action(x, a * b) == action(x, a) * b + a * action(x, b), x=x, a=a, b=b)))

    # Leibniz coupling of bracket and action
    def leibniz(x, y, a):
        lhs = lie_bracket(x, a * y)
        rhs = action(x, a) * y + a * lie_bracket(x, y)
        return witness_unless(lhs == rhs, x=x, a=a, y=y, lhs=lhs, rhs=rhs)
    report.first_failure("leibniz", draw(vec, vec, coeff), leibniz)

    # the action is a Lie morphism
    report.first_failure("action_lie_morphism", draw(vec, vec, coeff), lambda x, y, a: (
        witness_unless(action(lie_bracket(x, y), a)
                       == action(x, action(y, a)) - action(y, action(x, a)), x=x, y=y, a=a)))

    # torsionless spot-check: <e^j, sum_i i e_i> = j, one pairing per generator
    gens = range(1, pair.ngens + 1)
    weighted = Tensor(pair, [((i,), pair.coeff(i)) for i in gens])
    report.add("pairing_nondegenerate", all(
        pairing(Cotensor.basis(pair, (j,)), weighted) == Poly.const(pair.poly_nvars, j)
        for j in gens))
    return report


# ---------------------------------------------------------------------------
# morphisms of pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairMorphismCandidate:
    """Finite description of a would-be morphism of pairs.

    `f_images[v]` is the image of the v-th domain variable in the codomain
    ring (so f is the substitution morphism); `g_images[i]` is the image of
    the domain basis vector e_{i+1}, a degree-one codomain tensor.  g
    extends f-semilinearly: g(sum a_i e_i) = sum f(a_i) g(e_i).
    """

    domain: PairDescriptor
    codomain: PairDescriptor
    f_images: tuple[Poly, ...]
    g_images: tuple[Tensor, ...]

    def __post_init__(self):
        if len(self.f_images) != self.domain.poly_nvars:
            raise ValueError("need one ring image per domain variable")
        if len(self.g_images) != self.domain.ngens:
            raise ValueError("need one module image per domain generator")
        for img in self.f_images:
            if img.nvars != self.codomain.poly_nvars:
                raise ValueError("ring images live in the wrong ring")
        for img in self.g_images:
            if img.pair != self.codomain:
                raise ValueError("module images live over the wrong pair")
            if any(len(w) != 1 for w in img.terms):
                raise ValueError("module images must be degree-one tensors")

    def apply_f(self, a: Poly) -> Poly:
        if self.domain.poly_nvars == 0:
            return Poly.const(self.codomain.poly_nvars, a.constant_value())
        return a.substitute(self.f_images)

    def apply_g(self, x: Tensor) -> Tensor:
        _require_vector(x)
        out = Tensor.zero(self.codomain)
        for (i,), a in x.terms.items():
            out = out + self.apply_f(a) * self.g_images[i - 1]
        return out

    def to_json(self) -> dict:
        return {
            "domain": pair_to_json(self.domain),
            "codomain": pair_to_json(self.codomain),
            "f": [format_poly(p, self.codomain.var_names or None) for p in self.f_images],
            "g": [img.to_json() for img in self.g_images],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PairMorphismCandidate":
        domain = pair_from_json(data["domain"])
        codomain = pair_from_json(data["codomain"])
        f_images = tuple(codomain.coeff(s) for s in data.get("f", []))
        g_images = tuple(Tensor.from_json(codomain, t) for t in data.get("g", []))
        return cls(domain, codomain, f_images, g_images)


def validate_morphism(cand: PairMorphismCandidate, samples: int = 25, seed: int = 0,
                      max_degree: int = 3) -> Report:
    """Check the morphism equations on generators, basis and random data."""
    rng = random.Random(seed)
    dom, cod = cand.domain, cand.codomain
    report = Report("validate-morphism", meta={
        "domain": dom.family, "codomain": cod.family, "seed": seed, "samples": samples,
    })

    # ring morphism: unital plus multiplicative on variables (substitution
    # is multiplicative by construction; this documents the contract)
    one_dom = Poly.const(dom.poly_nvars, 1)
    report.add("f_unital", cand.apply_f(one_dom) == Poly.const(cod.poly_nvars, 1))
    vec, coeff = random_gvector, random_coeff

    def draw(*samplers):
        return random_tuples(rng, dom, samplers, samples, max_degree)

    f, g = cand.apply_f, cand.apply_g
    report.first_failure("f_multiplicative", draw(coeff, coeff), lambda a, b: (
        witness_unless(f(a * b) == f(a) * f(b), a=a, b=b)))

    # g respects brackets: exhaustive on the basis, then random elements,
    # drawn up front like the Jacobi triples of validate_pair
    def bracket_images(x, y):
        lhs, rhs = g(lie_bracket(x, y)), lie_bracket(g(x), g(y))
        return witness_unless(lhs == rhs, x=x, y=y, g_of_bracket=lhs, bracket_of_images=rhs)

    basis = [Tensor.basis(dom, (g,)) for g in range(1, dom.ngens + 1)]
    basis_pairs = [(basis[i], basis[j]) for i in range(dom.ngens)
                   for j in range(i + 1, dom.ngens)]
    report.first_failure("g_lie_morphism", basis_pairs + list(draw(vec, vec)), bracket_images)

    # module compatibility g(a x) = f(a) g(x)
    report.first_failure("module_compat", draw(coeff, vec), lambda a, x: (
        witness_unless(g(a * x) == f(a) * g(x), a=a, x=x)))

    # action compatibility f(D_x a) = D_{g(x)} f(a)
    def action_images(a, x):
        lhs, rhs = f(action(x, a)), action(g(x), f(a))
        return witness_unless(lhs == rhs, a=a, x=x, lhs=lhs, rhs=rhs)
    report.first_failure("action_compat", draw(coeff, vec), action_images)
    return report
