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

from .calculus import ce_differential, contract, lie_derivative, schouten
from .elements import Tensor
from .engine import NPlecticStructure, fundamental_pairing_check, symplectic_basis
from .report import Report
from .sampling import random_cotensor, random_fraction, random_tensor


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


def cartan_suite(pair, count: int = 200, seed: int = 0,
                 max_wedge: int = 3, poly_degree: int = 2) -> Report:
    """Run the flow/contraction rules and d*d = 0 on seeded random draws."""
    rng = random.Random(seed)
    max_wedge = min(max_wedge, pair.ngens)
    report = Report("cartan-suite", {
        "family": pair.family, "seed": seed, "count": count,
        "max_wedge_degree": max_wedge, "max_poly_degree": poly_degree,
    })
    stats = {name: {"instances": 0, "failures": 0, "witness": None}
             for name, _, _ in CARTAN_RULES}
    stats["d_squares_to_zero"] = {"instances": 0, "failures": 0, "witness": None}
    for _ in range(count):
        x = _draw_tensor(rng, pair, max_wedge, poly_degree)
        y = _draw_tensor(rng, pair, max_wedge, poly_degree)
        f = random_cotensor(rng, pair, rng.randint(0, min(3, pair.ngens)),
                            max_degree=poly_degree)
        for name, rule, _ in CARTAN_RULES:
            slot = stats[name]
            slot["instances"] += 1
            lhs, rhs = rule(x, y, f)
            if lhs != rhs:
                slot["failures"] += 1
                if slot["witness"] is None:
                    slot["witness"] = {"x": repr(x), "y": repr(y), "f": repr(f),
                                       "lhs": repr(lhs), "rhs": repr(rhs)}
        slot = stats["d_squares_to_zero"]
        slot["instances"] += 1
        dd = ce_differential(ce_differential(f))
        if not dd.is_zero():
            slot["failures"] += 1
            if slot["witness"] is None:
                slot["witness"] = {"f": repr(f), "ddf": repr(dd)}
    for name, _, gating in CARTAN_RULES:
        slot = stats[name]
        details = {"instances": slot["instances"], "failures": slot["failures"]}
        if slot["witness"] is not None:
            details["witness"] = slot["witness"]
        report.add(name, slot["failures"] == 0, gating=gating, **details)
    slot = stats["d_squares_to_zero"]
    details = {"instances": slot["instances"], "failures": slot["failures"]}
    if slot["witness"] is not None:
        details["witness"] = slot["witness"]
    report.add("d_squares_to_zero", slot["failures"] == 0, **details)
    return report


def random_symplectic(rng, s: NPlecticStructure, grade: int,
                      poly_degree: int = 2) -> Tensor:
    """A random symplectic tensor from one wedge-degree slice."""
    x = Tensor.zero(s.pair)
    for b in symplectic_basis(s, grade, max_poly_degree=poly_degree):
        if rng.random() < 0.6:
            x = x + random_fraction(rng) * b
    return x


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
    for k in arities:
        failures = 0
        witness = None
        for _ in range(count):
            xs = [random_symplectic(rng, s, rng.choice(grades))
                  for _ in range(k)]
            ok, lhs, rhs = fundamental_pairing_check(k, xs, s)
            if not ok:
                failures += 1
                if witness is None:
                    witness = {"args": [repr(x) for x in xs],
                               "lhs": repr(lhs), "rhs": repr(rhs)}
        details = {"instances": count, "failures": failures}
        if witness is not None:
            details["witness"] = witness
        report.add(f"bracket_pairing_arity_{k}", failures == 0, **details)
    return report
