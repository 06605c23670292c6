"""Command line interface over the validators, the calculus and the reports.

Every command writes a single JSON document (sorted keys, two-space
indent, trailing newline) to stdout or to ``--output``.  Wall-clock
timings go to stderr so that reports for a fixed seed are byte-identical
across runs.  Exit codes: 0 when every gating check passes, 1 when a
check fails, 2 on malformed or invalid input, 3 when a bracket arity
exceeds its cap (``--arity-cap``, or 12 for a tensor bracket) or a slice
would exceed the slice cap.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from functools import partial
from pathlib import Path

from .calculus import ce_differential, contract, higher_bracket, lie_derivative, schouten
from .cohomology import (
    NotACocycle,
    ce_cohomology_table,
    class_of,
    extension_cohomology_table,
    poisson_bracket,
    require_constant_omega,
)
from .elements import Cotensor, Tensor
from .engine import (
    DEFAULT_EXTENSION_ARITY_CAP,
    ExtensionElement,
    structure_from_json,
    symplectic_basis,
)
from .identities import cartan_suite, pairing_suite, random_symplectic
from .linf import ClassLinf, ExtensionLinf, TensorLinf, check_momentum_map, jacobi_residual
from .models import momentum_from_json
from .pairs import PairMorphismCandidate, pair_from_json, validate_morphism, validate_pair
from .report import Report, canonical_json, witness_unless
from .sampling import random_cotensor, random_tensor
from .scalars import CapExceeded, require_arity


class InputError(Exception):
    """Unreadable, malformed or structurally invalid input."""


# ---------------------------------------------------------------------------
# loading helpers
# ---------------------------------------------------------------------------

def _read_json(path: str):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(str(exc)) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc


def _load_pair(data):
    if isinstance(data, dict) and "omega" in data:
        data = data.get("pair", data)
    try:
        return pair_from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad pair: {exc}") from exc


def _load_structure(data):
    if not isinstance(data, dict):
        raise InputError(f"bad structure: expected a JSON object, got {type(data).__name__}")
    try:
        return structure_from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad structure: {exc}") from exc


def _load_element(cls, pair, data, what: str):
    try:
        return cls.from_json(pair, data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad {what}: {exc}") from exc


def _field(data, key: str):
    try:
        return data[key]
    except (KeyError, TypeError) as exc:
        raise InputError(f"missing field {key!r}") from exc


def _parse_span(text: str, what: str) -> range:
    """A nonempty inclusive MIN:MAX span, e.g. '-1:4'."""
    lo, sep, hi = text.partition(":")
    try:
        span = range(int(lo), int(hi) + 1) if sep else range(int(text), int(text) + 1)
    except ValueError:
        raise InputError(f"bad {what} span {text!r}; expected MIN:MAX") from None
    if not span:
        raise InputError(f"empty {what} span {text!r}; MIN must not exceed MAX")
    return span


def _result_extra(result) -> dict:
    return {"result": result.to_json(), "display": repr(result)}


# ---------------------------------------------------------------------------
# command handlers; each returns (report, extra top-level JSON fields)
# ---------------------------------------------------------------------------

def cmd_validate_pair(args):
    pair = _load_pair(_read_json(args.input))
    report = validate_pair(pair, samples=args.samples, seed=args.seed,
                           max_degree=args.max_degree)
    return report, {}


def cmd_validate_morphism(args):
    data = _read_json(args.input)
    try:
        cand = PairMorphismCandidate.from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad morphism: {exc}") from exc
    report = validate_morphism(cand, samples=args.samples, seed=args.seed,
                               max_degree=args.max_degree)
    return report, {}


def cmd_bracket(args):
    data = _read_json(args.input)
    pair = _load_pair(_field(data, "pair"))
    raw = _field(data, "args")
    if not isinstance(raw, list) or not raw:
        raise InputError("'args' must be a nonempty list of tensors")
    xs = [_load_element(Tensor, pair, t, "tensor") for t in raw]
    if args.schouten:
        if len(xs) != 2:
            raise InputError("the schouten bracket takes exactly two arguments")
        result = schouten(xs[0], xs[1])
    else:
        result = higher_bracket(xs)
    report = Report("bracket", {"family": pair.family, "arity": len(xs),
                                "schouten": bool(args.schouten)})
    return report, _result_extra(result)


def cmd_differential(args):
    data = _read_json(args.input)
    pair = _load_pair(_field(data, "pair"))
    f = _load_element(Cotensor, pair, _field(data, "element"), "cotensor")
    report = Report("differential", {"family": pair.family})
    return report, _result_extra(ce_differential(f))


def _tensor_cotensor_input(args):
    data = _read_json(args.input)
    pair = _load_pair(_field(data, "pair"))
    x = _load_element(Tensor, pair, _field(data, "tensor"), "tensor")
    f = _load_element(Cotensor, pair, _field(data, "cotensor"), "cotensor")
    return pair, x, f


def cmd_contract(args):
    pair, x, f = _tensor_cotensor_input(args)
    report = Report("contract", {"family": pair.family})
    return report, _result_extra(contract(x, f))


def cmd_lie_derivative(args):
    pair, x, f = _tensor_cotensor_input(args)
    try:
        result = lie_derivative(x, f)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    report = Report("lie-derivative", {"family": pair.family})
    return report, _result_extra(result)


def cmd_nplectic_check(args):
    data = _read_json(args.input)
    pair = _load_pair(_field(data, "pair"))
    try:
        n = int(_field(data, "n"))
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad degree n: {exc}") from exc
    omega = _load_element(Cotensor, pair, _field(data, "omega"), "cotensor")
    report = Report("nplectic-check", {"family": pair.family, "n": n})
    report.add("degree_at_least_one", n >= 1)
    degree_ok = omega.is_zero() or omega.grade == -(n + 1)
    report.add("homogeneous_of_degree", degree_ok,
               expected=-(n + 1), found=sorted(omega.degrees()))
    residual = ce_differential(omega)
    report.add("closed", residual.is_zero(),
               **({} if residual.is_zero() else {"residual": repr(residual)}))
    return report, {}


def cmd_jacobi(args):
    s = _load_structure(_read_json(args.input))
    cap = args.arity_cap
    require_arity(args.max_arity, cap)
    rng = random.Random(args.seed)
    pair = s.pair
    report = Report("jacobi", {
        "family": pair.family, "n": s.n, "seed": args.seed, "count": args.count,
        "max_arity": args.max_arity, "arity_cap": cap,
    })
    grades = [g for g in range(0, s.n + 1)
              if symplectic_basis(s, g, max_poly_degree=2)] or [0]
    max_grade = min(pair.ngens, 3)

    def tensor():
        return random_tensor(rng, pair, rng.randrange(max_grade + 1), max_degree=2)

    def extension_element():
        g = rng.choice(grades)
        return ExtensionElement(s, random_cotensor(rng, pair, s.n - g, max_degree=2),
                                random_symplectic(rng, s, g))

    families = (("tensor", TensorLinf(pair), tensor),
                ("extension", ExtensionLinf(s), extension_element))
    for k in range(2, args.max_arity + 1):
        for family, op, draw in families:
            report.tally(f"{family}_jacobi_arity_{k}",
                         ([draw() for _ in range(k)] for _ in range(args.count)),
                         partial(_jacobi_witness, op), count_key="nonzero")
    return report, {}


def _jacobi_witness(op, *vs):
    residual = jacobi_residual(op, vs)
    return witness_unless(op.is_zero(residual), args=list(vs), residual=residual)


def cmd_cohomology(args):
    data = _read_json(args.input)
    has_structure = isinstance(data, dict) and "omega" in data
    if not (args.plain or has_structure):
        raise InputError(
            "extension cohomology needs a structure with omega; pass --plain for pair tables")
    s = _load_structure(data) if has_structure else None
    pair = s.pair if has_structure else _load_pair(data)
    if args.weights is not None:
        weights = list(_parse_span(args.weights, "weights"))
    else:
        weights = [0] if pair.poly_nvars == 0 else [0, 1, 2]
    if args.plain:
        degrees = (_parse_span(args.degrees, "degrees") if args.degrees is not None
                   else range(pair.ngens + 1))
        table = ce_cohomology_table(pair, degrees, weights)
        report = Report("cohomology", {"family": pair.family, "mode": "pair",
                                       "weights": weights})
        return report, {"table": table}
    _require_constant_omega(s)
    degrees = (_parse_span(args.degrees, "degrees") if args.degrees is not None
               else range(-1, s.n + 3))
    table = extension_cohomology_table(s, degrees, weights)
    report = Report("cohomology", {
        "family": s.pair.family, "n": s.n, "mode": "extension",
        "degrees": list(degrees), "weights": weights,
    })
    return report, {"table": table}


def _require_constant_omega(s):
    try:
        require_constant_omega(s)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def cmd_poisson(args):
    s = _load_structure(_read_json(args.input))
    _require_constant_omega(s)
    cap = args.arity_cap
    data = _read_json(args.elements)
    raw = _field(data, "elements")
    if not isinstance(raw, list) or not raw:
        raise InputError("'elements' must be a nonempty list")
    require_arity(len(raw), cap)
    report = Report("poisson", {
        "family": s.pair.family, "n": s.n, "arity": len(raw), "arity_cap": cap,
        "jacobi": bool(args.jacobi),
    })
    classes = []
    for i, item in enumerate(raw, start=1):
        if not isinstance(item, dict):
            raise InputError(f"element {i} must be an object with 'f' and 'x'")
        try:
            e = ExtensionElement.from_json(s, item)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad element {i}: {exc}") from exc
        degree = item.get("degree")
        if degree is not None and (isinstance(degree, bool) or not isinstance(degree, int)):
            raise InputError(f"element {i}: 'degree' must be an integer, got {degree!r}")
        try:
            cls = class_of(e, degree=degree)
        except NotACocycle as exc:
            report.add(f"cocycle_{i}", False, residual=repr(exc.residual))
            continue
        except ValueError as exc:
            raise InputError(f"element {i}: {exc}") from exc
        report.add(f"cocycle_{i}", True)
        classes.append(cls)
    if len(classes) != len(raw):
        return report, {}
    result = poisson_bracket(classes)
    extra = {"result": result.to_json(), "display": repr(result),
             "zero_class": result.is_zero()}
    if args.jacobi:
        residual = jacobi_residual(ClassLinf(s), classes)
        report.add("weak_jacobi", residual.is_zero(),
                   **({} if residual.is_zero() else {"residual": repr(residual)}))
    return report, extra


def cmd_momentum_check(args):
    s = _load_structure(_read_json(args.input))
    cap = args.arity_cap
    data = _read_json(args.candidate)
    try:
        algebra, fields, potentials = momentum_from_json(s, data)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad candidate: {exc}") from exc
    try:
        ok, details = check_momentum_map(s, algebra, fields, potentials,
                                         max_arity=args.max_arity, cap=cap)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    report = Report("momentum-check", {
        "family": s.pair.family, "n": s.n, "generators": algebra.dim,
        "max_arity": args.max_arity, "arity_cap": cap,
    })
    cocycle_issues = [i for i in details["issues"] if i["gate"] == "cocycle"]
    morphism_issues = [i for i in details["issues"] if i["gate"] == "morphism"]
    report.add("cocycle_gate", not cocycle_issues,
               **({"issues": cocycle_issues} if cocycle_issues else {}))
    report.add("morphism_gate", ok and not morphism_issues,
               **({"issues": morphism_issues} if morphism_issues else {}))
    extra = {"classes": [None if c is None else repr(c) for c in details["classes"]]}
    return report, extra


def cmd_identities(args):
    data = _read_json(args.input)
    has_structure = isinstance(data, dict) and "omega" in data
    if has_structure:
        s = _load_structure(data)
        pair = s.pair
    else:
        pair = _load_pair(data)
    report = cartan_suite(pair, count=args.count, seed=args.seed)
    report.title = "identities"
    if has_structure:
        pairing = pairing_suite(s, count=args.pairing_count, seed=args.seed)
        report.checks.extend(pairing.checks)
        report.meta["n"] = s.n
        report.meta["pairing_count"] = args.pairing_count
    return report, {}


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------

def _add_output(p):
    p.add_argument("--output", metavar="PATH",
                   help="write the JSON report here instead of stdout")


def _int_at_least(least: int):
    """Argparse type for an integer option with a lower bound."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    return parse


def _add_sampling(p, samples: int):
    p.add_argument("--samples", type=_int_at_least(1), default=samples, metavar="N")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.add_argument("--max-degree", type=_int_at_least(0), default=3, metavar="D",
                   help="largest polynomial degree drawn for random elements")


def _add_cap(p):
    p.add_argument("--arity-cap", type=_int_at_least(1),
                   default=DEFAULT_EXTENSION_ARITY_CAP, metavar="K",
                   help="largest bracket arity to evaluate (default: %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nplectic",
        description="Exact calculus, cohomology and certification for "
                    "higher symplectic structures over Lie-Rinehart pairs.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("validate-pair", help="check the pair axioms on random data")
    p.add_argument("input", help="pair or structure JSON file")
    _add_sampling(p, 25)
    _add_output(p)
    p.set_defaults(handler=cmd_validate_pair)

    p = sub.add_parser("validate-morphism", help="check the morphism equations")
    p.add_argument("input", help="morphism JSON file with domain/codomain/f/g")
    _add_sampling(p, 25)
    _add_output(p)
    p.set_defaults(handler=cmd_validate_morphism)

    p = sub.add_parser("bracket", help="higher bracket of tensors")
    p.add_argument("input", help="JSON file with 'pair' and a list 'args'")
    p.add_argument("--schouten", action="store_true",
                   help="binary odd bracket instead of the alternating one")
    _add_output(p)
    p.set_defaults(handler=cmd_bracket)

    p = sub.add_parser("differential", help="apply the complex differential")
    p.add_argument("input", help="JSON file with 'pair' and 'element'")
    _add_output(p)
    p.set_defaults(handler=cmd_differential)

    p = sub.add_parser("contract", help="contract a tensor into a cotensor")
    p.add_argument("input", help="JSON file with 'pair', 'tensor' and 'cotensor'")
    _add_output(p)
    p.set_defaults(handler=cmd_contract)

    p = sub.add_parser("lie-derivative", help="flow derivative of a cotensor")
    p.add_argument("input", help="JSON file with 'pair', 'tensor' and 'cotensor'")
    _add_output(p)
    p.set_defaults(handler=cmd_lie_derivative)

    p = sub.add_parser("nplectic-check", help="degree and closedness of a structure")
    p.add_argument("input", help="structure JSON file with 'pair', 'n' and 'omega'")
    _add_output(p)
    p.set_defaults(handler=cmd_nplectic_check)

    p = sub.add_parser("jacobi", help="weak Jacobi checks on seeded random draws")
    p.add_argument("input", help="structure JSON file")
    p.add_argument("--max-arity", type=_int_at_least(2), default=4, metavar="K")
    p.add_argument("--count", type=_int_at_least(1), default=10, metavar="N",
                   help="random instances per arity and family")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    _add_cap(p)
    _add_output(p)
    p.set_defaults(handler=cmd_jacobi)

    p = sub.add_parser("cohomology", help="cohomology dimension tables")
    p.add_argument("input", help="structure JSON file (or pair file with --plain)")
    p.add_argument("--degrees", metavar="MIN:MAX",
                   help="inclusive degree window (default -1:n+2)")
    p.add_argument("--weights", metavar="MIN:MAX",
                   help="inclusive polynomial weight window (default 0:2)")
    p.add_argument("--plain", action="store_true",
                   help="table of the plain complex of the pair instead")
    _add_output(p)
    p.set_defaults(handler=cmd_cohomology)

    p = sub.add_parser("poisson", help="bracket of classes from cocycle data")
    p.add_argument("input", help="structure JSON file")
    p.add_argument("elements", help="JSON file with a list 'elements' of {f, x}")
    p.add_argument("--jacobi", action="store_true",
                   help="also check the weak Jacobi identity on the classes")
    _add_cap(p)
    _add_output(p)
    p.set_defaults(handler=cmd_poisson)

    p = sub.add_parser("momentum-check", help="certify a momentum-map candidate")
    p.add_argument("input", help="structure JSON file")
    p.add_argument("candidate", help="JSON file with algebra/fields/potentials")
    p.add_argument("--max-arity", type=_int_at_least(1), default=3, metavar="K")
    _add_cap(p)
    _add_output(p)
    p.set_defaults(handler=cmd_momentum_check)

    p = sub.add_parser("identities", help="randomized flow-calculus identity suite")
    p.add_argument("input", help="pair or structure JSON file")
    p.add_argument("--count", type=_int_at_least(1), default=200, metavar="N")
    p.add_argument("--pairing-count", type=_int_at_least(1), default=50, metavar="N",
                   help="instances per arity for the pairing checks")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    _add_output(p)
    p.set_defaults(handler=cmd_identities)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        report, extra = args.handler(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    payload = report.to_json()
    payload.update(extra)
    text = canonical_json(payload)
    if args.output:
        try:
            Path(args.output).write_text(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    elapsed = time.perf_counter() - started
    print(f"{args.command}: {elapsed:.3f}s", file=sys.stderr)
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
