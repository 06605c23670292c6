"""Arbitrary JSON through the command line: every input ends in a report or
an error message with exit code 0, 1, 2 or 3, never an escaping exception.

Integers in payloads are drawn from -2..5, so a drawn pair has at most five
generators or variables and every example stays small.  Caps on a huge
``dim`` or ``vars`` are a separate matter and are not exercised here.
``poisson`` and ``momentum-check`` also run against a structure whose omega
has a polynomial coefficient, which must exit 2 before any gate.  Arities
past ``--arity-cap`` are drawn up to 10**6 for ``jacobi`` and
``momentum-check``; they must exit 3 before any bracket is evaluated.
"""

import contextlib
import io
import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from nplectic.cli import main

MODELS = Path(__file__).resolve().parents[1] / "models"
PLANE = str(MODELS / "symplectic_plane.json")
SU2_CARTAN = str(MODELS / "su2_cartan.json")
ROTATION = json.loads((MODELS / "rotation_momentum.json").read_text())
POLY_OMEGA = {"pair": {"family": "poly", "vars": 3}, "n": 2,
              "omega": [[[1, 2, 3], "1 + x^2"]]}

ints = st.integers(-2, 5)
texts = st.sampled_from(["", "1", "-1/2", "1/0", "x", "x1*y", "2*x^2", "1,2", "3,1",
                         "constant", "poly", "nan"]) | st.text(max_size=4)
keys = st.sampled_from(["family", "dim", "vars", "brackets", "pair", "n", "omega",
                        "1,2", "2,3", "1", "2", "3"]) | st.text(max_size=3)
scalars = st.none() | st.booleans() | ints | texts
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(keys, inner, max_size=3),
    max_leaves=8)

# Structure-shaped values, so that examples also get past the loaders.
coeffs = ints | texts
terms = st.lists(st.tuples(st.lists(ints, max_size=3), coeffs).map(list), max_size=3)
brackets = st.dictionaries(st.sampled_from(["1,2", "2,3", "3,1", "1,1", "1"]),
                           st.dictionaries(st.sampled_from(["1", "2", "3", "x"]), coeffs,
                                           max_size=2) | scalars | json_values,
                           max_size=3)
pairs = (st.fixed_dictionaries({"family": st.just("poly"), "vars": ints})
         | st.fixed_dictionaries({"family": st.just("constant"), "dim": ints},
                                 optional={"brackets": brackets})
         | st.fixed_dictionaries({"family": st.sampled_from(["constant", "poly"]) | json_values},
                                 optional={"dim": json_values, "vars": json_values,
                                           "brackets": brackets | json_values}))
structures = (st.fixed_dictionaries({"pair": pairs, "n": ints, "omega": terms})
              | st.fixed_dictionaries({"pair": pairs | json_values, "n": ints | json_values,
                                       "omega": terms | json_values}))
inputs = structures | pairs | json_values

COMMANDS = [["validate-pair", "--samples", "2"], ["nplectic-check"],
            ["cohomology", "--weights=0:1"]]


def run_main(argv):
    """Run the CLI; return (exit code, stderr) after the common checks."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert err.getvalue().startswith("error:") and not out.getvalue()
    return code, err.getvalue()


def write_json(tmp_path_factory, name, data):
    path = tmp_path_factory.getbasetemp() / name
    path.write_text(json.dumps(data))
    return str(path)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=inputs, command=st.sampled_from(COMMANDS))
def test_arbitrary_json_ends_in_an_exit_code(tmp_path_factory, data, command):
    path = write_json(tmp_path_factory, "fuzz.json", data)
    run_main([command[0], path, *command[1:]])


# Pair-shaped payloads for the calculus commands.  The first shape holds a
# valid pair and in-range words, so that examples also reach the operators.
valid_pairs = (st.fixed_dictionaries({"family": st.just("poly"), "vars": st.integers(1, 3)})
               | st.fixed_dictionaries({"family": st.just("constant"),
                                        "dim": st.integers(3, 4),
                                        "brackets": st.dictionaries(
                                            st.sampled_from(["1,2", "2,3", "3,1"]),
                                            st.dictionaries(st.sampled_from(["1", "2", "3"]),
                                                            ints, max_size=2),
                                            max_size=3)}))
valid_terms = st.lists(st.tuples(st.lists(st.integers(1, 3), max_size=3),
                                 ints | st.sampled_from(["x", "-1/2", "2*x^2"])).map(list),
                       max_size=3)
calculus_inputs = (st.fixed_dictionaries({"pair": valid_pairs,
                                          "args": st.lists(valid_terms, min_size=2, max_size=3),
                                          "element": valid_terms, "tensor": valid_terms,
                                          "cotensor": valid_terms})
                   | st.fixed_dictionaries({"pair": pairs | json_values,
                                            "args": st.lists(terms | json_values) | json_values,
                                            "element": terms | json_values,
                                            "tensor": terms | json_values,
                                            "cotensor": terms | json_values})
                   | json_values)

CALCULUS_COMMANDS = [["bracket"], ["bracket", "--schouten"], ["differential"], ["contract"],
                     ["lie-derivative"]]


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=calculus_inputs, command=st.sampled_from(CALCULUS_COMMANDS))
def test_calculus_commands_end_in_an_exit_code(tmp_path_factory, data, command):
    path = write_json(tmp_path_factory, "fuzz.json", data)
    run_main([command[0], path, *command[1:]])


# Element files for `poisson` on the symplectic plane.  The rotation cocycle
# lets examples get past the cocycle gate to `class_of` and the bracket.
ROTATION_COCYCLE = {"f": [[[], "-1/2*x^2 - 1/2*y^2"]], "x": [[[2], "x"], [[1], "-y"]]}
potential_fields = st.just(ROTATION_COCYCLE) | st.fixed_dictionaries({"f": terms, "x": terms})
element_objects = st.builds(lambda fx, degree: {**fx, "degree": degree},
                            potential_fields, scalars)
element_files = (st.fixed_dictionaries({"elements": st.lists(element_objects, min_size=1,
                                                             max_size=2)})
                 | st.fixed_dictionaries({"elements": st.lists(json_values, max_size=2)})
                 | json_values)


def structure_path(tmp_path_factory, polynomial_omega: bool) -> str:
    if polynomial_omega:
        return write_json(tmp_path_factory, "poly_omega.json", POLY_OMEGA)
    return PLANE


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=element_files, polynomial_omega=st.booleans())
def test_poisson_elements_end_in_an_exit_code(tmp_path_factory, data, polynomial_omega):
    path = write_json(tmp_path_factory, "elements.json", data)
    structure = structure_path(tmp_path_factory, polynomial_omega)
    code, err = run_main(["poisson", structure, path, "--jacobi"])
    if polynomial_omega:
        assert code == 2 and err.startswith("error: omega is not weight-homogeneous")


# Candidate files for `momentum-check`.  The rotation candidate and the
# all-zero candidates pass the cocycle gate and reach the morphism gate.
algebras = (st.fixed_dictionaries({"family": st.just("constant"), "dim": ints},
                                  optional={"brackets": brackets})
            | pairs | json_values)
candidates = (st.just(ROTATION)
              | st.integers(1, 3).map(lambda dim: {
                  "algebra": {"family": "constant", "dim": dim, "brackets": {}},
                  "fields": [[]] * dim, "potentials": [[]] * dim})
              | st.fixed_dictionaries({"algebra": algebras,
                                       "fields": st.lists(terms | json_values, max_size=3),
                                       "potentials": st.lists(terms | json_values,
                                                              max_size=3)})
              | json_values)
arities_past_cap = st.integers(7, 10 ** 6)


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=candidates, polynomial_omega=st.booleans(),
       max_arity=st.integers(1, 3) | arities_past_cap)
def test_momentum_candidates_end_in_an_exit_code(tmp_path_factory, data, polynomial_omega,
                                                 max_arity):
    path = write_json(tmp_path_factory, "candidate.json", data)
    structure = structure_path(tmp_path_factory, polynomial_omega)
    code, err = run_main(["momentum-check", structure, path,
                          "--max-arity", str(max_arity)])
    # a bad candidate file exits 2 before omega is looked at
    assert code == 2 or not polynomial_omega
    if data is ROTATION:
        if polynomial_omega:
            assert err.startswith("error: omega is not weight-homogeneous")
        elif max_arity > 6:
            assert code == 3 and "exceeds cap" in err


@settings(max_examples=50, deadline=None, derandomize=True)
@given(structure=st.sampled_from([PLANE, SU2_CARTAN]), cap=st.integers(1, 6),
       excess=st.integers(1, 10 ** 6))
def test_jacobi_arity_past_the_cap_exits_three(structure, cap, excess):
    code, err = run_main(["jacobi", structure, "--arity-cap", str(cap),
                          "--max-arity", str(cap + excess)])
    assert code == 3 and "exceeds cap" in err
