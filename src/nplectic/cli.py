"""Command line interface over the validators, the calculus and the reports.

Every command writes a single JSON document (sorted keys, two-space
indent, trailing newline) to stdout or to ``--output``.  Wall-clock
timings go to stderr so that reports for a fixed seed are byte-identical
across runs.  Exit codes: 0 when every gating check passes, 1 when a
check fails, 2 on malformed or invalid input (a polynomial exponent
above 2^31 - 1 included), 3 when a bracket arity exceeds its cap
(``--arity-cap``, from 1 to 12, or 12 for a tensor bracket), a slice
would exceed the slice cap or a polynomial product would have an exponent
above 2^31 - 1.

Input files pass one boundary: ``_parse`` runs a JSON reader and reports
its ``KeyError`` as a missing field and its ``TypeError`` or ``ValueError``
with the reader's own message, each as exit 2.

The commands live in one table, ``COMMANDS``.  Each run builds only the
parser of the command it runs; the full parser, with every command, is
built only for a first argument that names none (help, usage errors).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from functools import partial
from pathlib import Path

from .calculus import (
    MAX_BRACKET_ARITY,
    ce_differential,
    contract,
    higher_bracket,
    lie_derivative,
    schouten,
)
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
from .scalars import CapExceeded, as_int, require_arity


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


def _parse(what: str, build, *args):
    """build(*args) for a JSON reader `build`; a KeyError becomes a missing
    field, a TypeError or ValueError keeps its message, both after `what`."""
    try:
        return build(*args)
    except KeyError as exc:
        raise InputError(f"{what}: missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what}: {exc}") from exc


def _is_structure(data) -> bool:
    return isinstance(data, dict) and "omega" in data


def _load_pair(data):
    """A pair file, or the pair of a structure file."""
    if _is_structure(data):
        data = data.get("pair", data)
    return _parse("bad pair", pair_from_json, data)


def _load_structure(data):
    if not isinstance(data, dict):
        raise InputError(f"bad structure: expected a JSON object, got {type(data).__name__}")
    return _parse("bad structure", structure_from_json, data)


def _load_pair_or_structure(data):
    """(pair, structure) of a structure file, (pair, None) of a pair file."""
    if _is_structure(data):
        s = _load_structure(data)
        return s.pair, s
    return _load_pair(data), None


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
    cand = _parse("bad morphism", PairMorphismCandidate.from_json, _read_json(args.input))
    report = validate_morphism(cand, samples=args.samples, seed=args.seed,
                               max_degree=args.max_degree)
    return report, {}


def cmd_bracket(args):
    data = _read_json(args.input)
    pair = _load_pair(_field(data, "pair"))
    raw = _field(data, "args")
    if not isinstance(raw, list) or not raw:
        raise InputError("'args' must be a nonempty list of tensors")
    xs = [_parse("bad tensor", Tensor.from_json, pair, t) for t in raw]
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
    f = _parse("bad cotensor", Cotensor.from_json, pair, _field(data, "element"))
    report = Report("differential", {"family": pair.family})
    return report, _result_extra(ce_differential(f))


def cmd_tensor_on_cotensor(args):
    """`contract` and `lie-derivative`: args.operation(x, f) on one pair."""
    data = _read_json(args.input)
    pair = _load_pair(_field(data, "pair"))
    x = _parse("bad tensor", Tensor.from_json, pair, _field(data, "tensor"))
    f = _parse("bad cotensor", Cotensor.from_json, pair, _field(data, "cotensor"))
    report = Report(args.command, {"family": pair.family})
    return report, _result_extra(args.operation(x, f))


def cmd_nplectic_check(args):
    data = _read_json(args.input)
    pair = _load_pair(_field(data, "pair"))
    n = _parse("bad structure", as_int, _field(data, "n"), "'n'")
    omega = _parse("bad cotensor", Cotensor.from_json, pair, _field(data, "omega"))
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
    if not (args.plain or _is_structure(data)):
        raise InputError(
            "extension cohomology needs a structure with omega; pass --plain for pair tables")
    pair, s = _load_pair_or_structure(data)
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
        "family": pair.family, "n": s.n, "mode": "extension",
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
        e = _parse(f"bad element {i}", ExtensionElement.from_json, s, item)
        degree = item.get("degree")
        if degree is not None:
            _parse(f"element {i}", as_int, degree, "'degree'")
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
    algebra, fields, potentials = _parse("bad candidate", momentum_from_json, s,
                                         _read_json(args.candidate))
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
    pair, s = _load_pair_or_structure(_read_json(args.input))
    report = cartan_suite(pair, count=args.count, seed=args.seed)
    report.title = "identities"
    if s is not None:
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


def _int_at_least(least: int, most: int | None = None):
    """Argparse type for an integer option with a lower and an optional upper bound."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        if most is not None and value > most:
            raise argparse.ArgumentTypeError(f"must be at most {most}, got {value}")
        return value
    return parse


def _add_sampling(p, samples: int):
    p.add_argument("--samples", type=_int_at_least(1), default=samples, metavar="N")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.add_argument("--max-degree", type=_int_at_least(0), default=3, metavar="D",
                   help="largest polynomial degree drawn for random elements")


def _add_cap(p):
    p.add_argument("--arity-cap", type=_int_at_least(1, MAX_BRACKET_ARITY),
                   default=DEFAULT_EXTENSION_ARITY_CAP, metavar="K",
                   help="largest bracket arity to evaluate (default: %(default)s)")


def _args_validate_pair(p):
    p.add_argument("input", help="pair or structure JSON file")
    _add_sampling(p, 25)
    p.set_defaults(handler=cmd_validate_pair)


def _args_validate_morphism(p):
    p.add_argument("input", help="morphism JSON file with domain/codomain/f/g")
    _add_sampling(p, 25)
    p.set_defaults(handler=cmd_validate_morphism)


def _args_bracket(p):
    p.add_argument("input", help="JSON file with 'pair' and a list 'args'")
    p.add_argument("--schouten", action="store_true",
                   help="binary odd bracket instead of the alternating one")
    p.set_defaults(handler=cmd_bracket)


def _args_differential(p):
    p.add_argument("input", help="JSON file with 'pair' and 'element'")
    p.set_defaults(handler=cmd_differential)


def _args_contract(p):
    p.add_argument("input", help="JSON file with 'pair', 'tensor' and 'cotensor'")
    p.set_defaults(handler=cmd_tensor_on_cotensor, operation=contract)


def _args_lie_derivative(p):
    p.add_argument("input", help="JSON file with 'pair', 'tensor' and 'cotensor'")
    p.set_defaults(handler=cmd_tensor_on_cotensor, operation=lie_derivative)


def _args_nplectic_check(p):
    p.add_argument("input", help="structure JSON file with 'pair', 'n' and 'omega'")
    p.set_defaults(handler=cmd_nplectic_check)


def _args_jacobi(p):
    p.add_argument("input", help="structure JSON file")
    p.add_argument("--max-arity", type=_int_at_least(2), default=4, metavar="K")
    p.add_argument("--count", type=_int_at_least(1), default=10, metavar="N",
                   help="random instances per arity and family")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    _add_cap(p)
    p.set_defaults(handler=cmd_jacobi)


def _args_cohomology(p):
    p.add_argument("input", help="structure JSON file (or pair file with --plain)")
    p.add_argument("--degrees", metavar="MIN:MAX",
                   help="inclusive degree window (default -1:n+2)")
    p.add_argument("--weights", metavar="MIN:MAX",
                   help="inclusive polynomial weight window (default 0:2)")
    p.add_argument("--plain", action="store_true",
                   help="table of the plain complex of the pair instead")
    p.set_defaults(handler=cmd_cohomology)


def _args_poisson(p):
    p.add_argument("input", help="structure JSON file")
    p.add_argument("elements", help="JSON file with a list 'elements' of {f, x}")
    p.add_argument("--jacobi", action="store_true",
                   help="also check the weak Jacobi identity on the classes")
    _add_cap(p)
    p.set_defaults(handler=cmd_poisson)


def _args_momentum_check(p):
    p.add_argument("input", help="structure JSON file")
    p.add_argument("candidate", help="JSON file with algebra/fields/potentials")
    p.add_argument("--max-arity", type=_int_at_least(1), default=3, metavar="K")
    _add_cap(p)
    p.set_defaults(handler=cmd_momentum_check)


def _args_identities(p):
    p.add_argument("input", help="pair or structure JSON file")
    p.add_argument("--count", type=_int_at_least(1), default=200, metavar="N")
    p.add_argument("--pairing-count", type=_int_at_least(1), default=50, metavar="N",
                   help="instances per arity for the pairing checks")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.set_defaults(handler=cmd_identities)


# name -> (help line, adder of its arguments and its handler), in help order;
# every command also takes --output, added after its own arguments
COMMANDS = {
    "validate-pair": ("check the pair axioms on random data", _args_validate_pair),
    "validate-morphism": ("check the morphism equations", _args_validate_morphism),
    "bracket": ("higher bracket of tensors", _args_bracket),
    "differential": ("apply the complex differential", _args_differential),
    "contract": ("contract a tensor into a cotensor", _args_contract),
    "lie-derivative": ("flow derivative of a cotensor", _args_lie_derivative),
    "nplectic-check": ("degree and closedness of a structure", _args_nplectic_check),
    "jacobi": ("weak Jacobi checks on seeded random draws", _args_jacobi),
    "cohomology": ("cohomology dimension tables", _args_cohomology),
    "poisson": ("bracket of classes from cocycle data", _args_poisson),
    "momentum-check": ("certify a momentum-map candidate", _args_momentum_check),
    "identities": ("randomized flow-calculus identity suite", _args_identities),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with every command of COMMANDS, or with `command` alone."""
    parser = argparse.ArgumentParser(
        prog="nplectic",
        description="Exact calculus, cohomology and certification for "
                    "higher symplectic structures over Lie-Rinehart pairs.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (help_line, add_arguments) in COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=help_line)
            add_arguments(p)
            _add_output(p)
    return parser


def main(argv=None) -> int:
    """Run the command argv (default: sys.argv[1:]) names and return its exit code.

    When argv starts with a command name only that command's parser is
    built; any other start (none, -h, an unknown word, an option) builds
    them all, for the full help, usage and list of choices.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(command).parse_args(argv)
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
