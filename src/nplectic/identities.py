"""Randomized identity suites for the calculus and for n-plectic structures.

These suites are the arbiter for the sign conventions spread across
`calculus` and `engine`: each rule is evaluated on seeded random
homogeneous arguments and every failure is counted, with the first
witness kept.  The alternate form of the bracket-flow rule swaps one
flow factor; it fails in general and is recorded as informational only,
as a sentinel that the suite can tell right from wrong.
"""

from __future__ import annotations

import random
from functools import partial

from .calculus import ce_differential, contract, lie_derivative, schouten
from .elements import Tensor
from .engine import NPlecticStructure, fundamental_pairing_check, symplectic_basis
from .report import Report, witness_unless
from .sampling import random_cotensor, random_fraction, random_tensor
from .scalars import sparse_sum


def _sign(exponent: int) -> int:
    return -1 if exponent % 2 else 1


def _rule_d_commutes_with_flow(x, y, f):
    lhs = ce_differential(lie_derivative(x, f))
    rhs = _sign(x.grade - 1) * lie_derivative(x, ce_differential(f))
    return lhs, rhs


def _rule_bracket_contraction(x, y, f):
    lhs = contract(schouten(x, y), f)
    rhs = (_sign((x.grade - 1) * y.grade) * lie_derivative(x, contract(y, f))
           - contract(y, lie_derivative(x, f)))
    return lhs, rhs


def _rule_bracket_flow(x, y, f):
    lhs = lie_derivative(schouten(x, y), f)
    rhs = (_sign((x.grade - 1) * (y.grade - 1)) * lie_derivative(x, lie_derivative(y, f))
           - lie_derivative(y, lie_derivative(x, f)))
    return lhs, rhs


def _rule_bracket_flow_one_sided(x, y, f):
    # deliberate near-miss of the bracket-flow rule; informational only
    lhs = lie_derivative(schouten(x, y), f)
    rhs = (_sign((x.grade - 1) * (y.grade - 1)) * lie_derivative(x, lie_derivative(x, f))
           - lie_derivative(y, lie_derivative(x, f)))
    return lhs, rhs


def _rule_wedge_flow(x, y, f):
    lhs = lie_derivative(x.wedge(y), f)
    rhs = (_sign(y.grade) * contract(y, lie_derivative(x, f))
           + lie_derivative(y, contract(x, f)))
    return lhs, rhs


CARTAN_RULES = (
    ("d_commutes_with_flow", _rule_d_commutes_with_flow, True),
    ("bracket_contraction", _rule_bracket_contraction, True),
    ("bracket_flow", _rule_bracket_flow, True),
    ("bracket_flow_one_sided", _rule_bracket_flow_one_sided, False),
    ("wedge_flow", _rule_wedge_flow, True),
)


def _draw_tensor(rng, pair, max_wedge, poly_degree):
    for _ in range(20):
        x = random_tensor(rng, pair, rng.randint(0, max_wedge),
                          max_degree=poly_degree)
        if not x.is_zero():
            return x
    return Tensor.scalar(pair, 1)


def _rule_witness(rule, x, y, f):
    lhs, rhs = rule(x, y, f)
    return witness_unless(lhs == rhs, x=x, y=y, f=f, lhs=lhs, rhs=rhs)


def _dd_witness(x, y, f):
    dd = ce_differential(ce_differential(f))
    return witness_unless(dd.is_zero(), f=f, ddf=dd)


def cartan_suite(pair, count: int = 200, seed: int = 0,
                 max_wedge: int = 3, poly_degree: int = 2) -> Report:
    """Run the flow/contraction rules and d*d = 0 on seeded random draws."""
    rng = random.Random(seed)
    max_wedge = min(max_wedge, pair.ngens)
    report = Report("cartan-suite", {
        "family": pair.family, "seed": seed, "count": count,
        "max_wedge_degree": max_wedge, "max_poly_degree": poly_degree,
    })
    cases = [(_draw_tensor(rng, pair, max_wedge, poly_degree),
              _draw_tensor(rng, pair, max_wedge, poly_degree),
              random_cotensor(rng, pair, rng.randint(0, min(3, pair.ngens)),
                              max_degree=poly_degree))
             for _ in range(count)]
    for name, rule, gating in CARTAN_RULES:
        report.tally(name, cases, partial(_rule_witness, rule), gating=gating)
    report.tally("d_squares_to_zero", cases, _dd_witness)
    return report


def random_symplectic(rng, s: NPlecticStructure, grade: int,
                      poly_degree: int = 2) -> Tensor:
    """A random symplectic tensor from one wedge-degree slice."""
    terms = []
    for b in symplectic_basis(s, grade, max_poly_degree=poly_degree):
        if rng.random() < 0.6:
            q = random_fraction(rng)
            terms.extend((w, c.scale(q)) for w, c in b.terms.items())
    return Tensor.zero(s.pair)._make(sparse_sum(terms))


def pairing_suite(s: NPlecticStructure, count: int = 50, seed: int = 0,
                  arities=(2, 3, 4)) -> Report:
    """Check the pairing between brackets and contractions of symplectic tensors.

    For each arity k it draws k random symplectic tensors and compares the
    contraction of their bracket into the structure tensor against the
    differential of the reversed-wedge contraction.
    """
    rng = random.Random(seed)
    report = Report("pairing-suite", {
        "family": s.pair.family, "n": s.n, "seed": seed, "count": count,
    })
    grades = [g for g in range(0, s.pair.ngens + 1)
              if symplectic_basis(s, g, max_poly_degree=2)]

    def pairing_witness(*xs):
        ok, lhs, rhs = fundamental_pairing_check(xs, s)
        return witness_unless(ok, args=list(xs), lhs=lhs, rhs=rhs)

    for k in arities:
        cases = (tuple(random_symplectic(rng, s, rng.choice(grades)) for _ in range(k))
                 for _ in range(count))
        report.tally(f"bracket_pairing_arity_{k}", cases, pairing_witness)
    return report
