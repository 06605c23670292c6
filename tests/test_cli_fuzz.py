"""Arbitrary JSON through the command line: every input ends in a report or
an error message with exit code 0, 1, 2 or 3, never an escaping exception.

Integers are drawn from -2..5, so a drawn pair has at most five generators
or variables and every example stays small.  Caps on a huge ``dim`` or
``vars`` are a separate matter and are not exercised here.
"""

import contextlib
import io
import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from nplectic.cli import main

PLANE = str(Path(__file__).resolve().parents[1] / "models" / "symplectic_plane.json")

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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert err.getvalue().startswith("error:")


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


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=element_files)
def test_poisson_elements_end_in_an_exit_code(tmp_path_factory, data):
    path = write_json(tmp_path_factory, "elements.json", data)
    run_main(["poisson", PLANE, path, "--jacobi"])
