"""Arbitrary JSON through the command line: every input ends in a report or
an error message with exit code 0, 1, 2 or 3, never an escaping exception.

Integers are drawn from -2..5, so a drawn pair has at most five generators
or variables and every example stays small.  Caps on a huge ``dim`` or
``vars`` are a separate matter and are not exercised here.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from nplectic.cli import main

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


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=inputs, command=st.sampled_from(COMMANDS))
def test_arbitrary_json_ends_in_an_exit_code(tmp_path_factory, data, command):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command[0], str(path), *command[1:]])
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert err.getvalue().startswith("error:")
