"""End-to-end runs of the command line interface against the shipped models."""

import argparse
import contextlib
import io
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from nplectic import cli
from nplectic.cli import COMMANDS, build_parser, main

MODELS = Path(__file__).resolve().parents[1] / "models"
PLANE = str(MODELS / "symplectic_plane.json")
SU2_CARTAN = str(MODELS / "su2_cartan.json")
HEISENBERG = str(MODELS / "heisenberg_pair.json")
ROTATION = str(MODELS / "rotation_momentum.json")
SP2 = str(Path(__file__).resolve().parent / "golden" / "inputs" / "sp2_momentum.json")

SU2_PAIR_JSON = {
    "family": "constant", "dim": 3,
    "brackets": {"1,2": {"3": "1"}, "2,3": {"1": "1"}, "3,1": {"2": "1"}},
}


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        payload = json.loads(captured.out) if captured.out else None
        return code, payload, captured.err
    return invoke


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_validate_pair_passes_on_shipped_pair(run):
    code, payload, _ = run("validate-pair", HEISENBERG, "--samples", "5")
    assert code == 0
    assert payload["ok"] and payload["title"] == "validate-pair"


def test_validate_pair_unwraps_a_structure_file(run):
    code, payload, _ = run("validate-pair", PLANE, "--samples", "5")
    assert code == 0
    assert payload["ok"] and payload["meta"]["family"] == "poly"


def test_validate_morphism_identity(run, tmp_path):
    path = write(tmp_path, "mor.json", {
        "domain": SU2_PAIR_JSON, "codomain": SU2_PAIR_JSON,
        "f": [],
        "g": [[[[1], "1"]], [[[2], "1"]], [[[3], "1"]]],
    })
    code, payload, _ = run("validate-morphism", path, "--samples", "5")
    assert code == 0 and payload["ok"]


def test_bracket_of_plane_rotations(run, tmp_path):
    path = write(tmp_path, "br.json", {
        "pair": {"family": "poly", "vars": 2},
        "args": [[[[2], "x"]], [[[1], "y"]]],
    })
    code, payload, _ = run("bracket", path)
    assert code == 0
    assert payload["display"] == "x*@x + -y*@y"


def test_schouten_needs_two_arguments(run, tmp_path):
    path = write(tmp_path, "br.json", {
        "pair": {"family": "poly", "vars": 2},
        "args": [[[[1], "1"]]],
    })
    code, payload, err = run("bracket", path, "--schouten")
    assert code == 2 and payload is None
    assert "exactly two" in err


def test_differential_on_the_first_dual_generator(run, tmp_path):
    path = write(tmp_path, "d.json", {
        "pair": SU2_PAIR_JSON, "element": [[[1], "1"]],
    })
    code, payload, _ = run("differential", path)
    assert code == 0
    assert payload["display"] == "-1*e^2^e^3"
    assert payload["result"] == [[[2, 3], "-1"]]


def test_contract_and_lie_derivative(run, tmp_path):
    path = write(tmp_path, "c.json", {
        "pair": {"family": "poly", "vars": 2},
        "tensor": [[[1], "1"]],
        "cotensor": [[[1, 2], "1"]],
    })
    code, payload, _ = run("contract", path)
    assert code == 0 and payload["display"] == "dy"

    path = write(tmp_path, "l.json", {
        "pair": {"family": "poly", "vars": 2},
        "tensor": [[[1], "x"]],
        "cotensor": [[[1, 2], "1"]],
    })
    code, payload, _ = run("lie-derivative", path)
    assert code == 0 and payload["display"] == "dx^dy"


def test_nplectic_check_accepts_shipped_structures(run):
    for path in (PLANE, SU2_CARTAN):
        code, payload, _ = run("nplectic-check", path)
        assert code == 0 and payload["ok"]


def test_zero_denominator_coefficient_is_bad_input(run, tmp_path):
    structure = write(tmp_path, "bad.json", {
        "pair": {"family": "poly", "vars": 2}, "n": 1,
        "omega": [[[1, 2], "1/0"]],
    })
    pair = write(tmp_path, "pair.json", {
        "family": "constant", "dim": 2, "brackets": {"1,2": {"1": "1/0"}},
    })
    for argv in (["nplectic-check", structure], ["validate-pair", pair]):
        code, payload, err = run(*argv)
        assert code == 2 and payload is None
        assert err.startswith("error:") and "Traceback" not in err


def test_nplectic_check_reports_a_closedness_witness(run, tmp_path):
    path = write(tmp_path, "bad.json", {
        "pair": {"family": "poly", "vars": 3}, "n": 1,
        "omega": [[[1, 2], "z"]],
    })
    code, payload, _ = run("nplectic-check", path)
    assert code == 1 and not payload["ok"]
    closed = next(c for c in payload["checks"] if c["name"] == "closed")
    assert not closed["ok"]
    assert closed["details"]["residual"] == "dx^dy^dz"


def test_nplectic_check_flags_a_degree_mismatch(run, tmp_path):
    path = write(tmp_path, "bad.json", {
        "pair": {"family": "poly", "vars": 2}, "n": 2,
        "omega": [[[1, 2], "1"]],
    })
    code, payload, _ = run("nplectic-check", path)
    assert code == 1
    degree = next(c for c in payload["checks"] if c["name"] == "homogeneous_of_degree")
    assert not degree["ok"] and degree["details"]["expected"] == -3


def test_jacobi_runs_both_paths(run):
    code, payload, _ = run("jacobi", SU2_CARTAN, "--max-arity", "3", "--count", "3")
    assert code == 0 and payload["ok"]
    names = [c["name"] for c in payload["checks"]]
    assert names == ["tensor_jacobi_arity_2", "extension_jacobi_arity_2",
                     "tensor_jacobi_arity_3", "extension_jacobi_arity_3"]
    assert all(c["details"]["nonzero"] == 0 and c["details"]["instances"] == 3
               for c in payload["checks"])


def test_jacobi_arity_above_cap_exits_three(run):
    code, payload, err = run("jacobi", PLANE, "--max-arity", "8",
                             "--arity-cap", "5", "--count", "1")
    assert code == 3 and payload is None
    assert "exceeds cap" in err


# six rotation cocycles and the field d/dx, which is not one: past the cap
# of 6, no element is loaded, so the exit is 3 and not a failed cocycle check
SEVEN_ELEMENTS = {"elements": [
    {"f": [[[], "-1/2*x^2 - 1/2*y^2"]], "x": [[[2], "x"], [[1], "-y"]]}] * 6 + [
    {"f": [], "x": [[[1], "1"]]}]}


@pytest.mark.parametrize("argv", [
    ["jacobi", PLANE, "--max-arity", "1000000"],
    ["jacobi", SU2_CARTAN, "--max-arity", "1000000"],
    ["jacobi", SU2_CARTAN, "--max-arity", "7", "--arity-cap", "6"],
    ["momentum-check", PLANE, SP2, "--arity-cap", "8", "--max-arity", "1000000"],
    ["poisson", PLANE, "seven.json"],
], ids=["jacobi-plane", "jacobi-su2", "jacobi-su2-seven", "momentum-check-sp2",
        "poisson-plane"])
def test_an_arity_above_the_cap_exits_three_before_any_work(run, tmp_path, argv):
    elements = write(tmp_path, "seven.json", SEVEN_ELEMENTS)
    argv = [elements if a == "seven.json" else a for a in argv]
    start = time.monotonic()
    code, payload, err = run(*argv)
    assert time.monotonic() - start < 1
    assert code == 3 and payload is None
    assert re.fullmatch(r"error: bracket arity \d+ exceeds cap \d+\n", err)


def test_a_bracket_of_thirteen_tensors_exits_three(run, tmp_path):
    path = write(tmp_path, "bracket13.json", {
        "pair": {"family": "poly", "vars": 2}, "args": [[[[1], "x"]]] * 13})
    code, payload, err = run("bracket", path)
    assert code == 3 and payload is None
    assert err == "error: bracket arity 13 exceeds cap 12\n"


def test_cohomology_on_forty_variables_exits_three_quickly(run, tmp_path):
    path = write(tmp_path, "poly40.json", {
        "n": 1, "omega": [[[1, 2], "1"]], "pair": {"family": "poly", "vars": 40}})
    start = time.monotonic()
    code, payload, err = run("cohomology", path, "--weights=0:2")
    assert time.monotonic() - start < 5
    assert code == 3 and payload is None
    assert err.startswith("error: slice of word length")


def test_jacobi_on_forty_variables_exits_three_quickly(run, tmp_path):
    path = write(tmp_path, "poly40.json", {
        "n": 1, "omega": [[[1, 2], "1"]], "pair": {"family": "poly", "vars": 40}})
    start = time.monotonic()
    code, payload, err = run("jacobi", path, "--max-arity", "3", "--count", "1")
    assert time.monotonic() - start < 5
    assert code == 3 and payload is None
    assert err.startswith("error: slice of word length")


def test_a_potential_of_degree_2001_exits_three_in_under_a_second(run, tmp_path):
    # the kernel slice of its field has 2 x C(2002, 2) labels: counted, never built
    path = write(tmp_path, "big.json", {"elements": [
        {"f": [[[], "x^2001"]], "x": [[[2], "-2001*x^2000"]]}]})
    start = time.monotonic()
    code, payload, err = run("poisson", PLANE, path)
    assert time.monotonic() - start < 1
    assert code == 3 and payload is None
    assert err == "error: slice of word length 1 has 4006002 basis elements, more than 10000\n"


@pytest.mark.parametrize("weight", [40, 60])
def test_cohomology_at_a_high_weight_exits_three_in_under_a_second(run, tmp_path, weight):
    path = write(tmp_path, "poly6.json", {
        "n": 1, "omega": [[[1, 2], "1"], [[3, 4], "1"], [[5, 6], "1"]],
        "pair": {"family": "poly", "vars": 6}})
    start = time.monotonic()
    code, payload, err = run("cohomology", path, f"--weights={weight}:{weight}")
    assert time.monotonic() - start < 1
    assert code == 3 and payload is None
    assert err.startswith("error: slice of word length 3 has ")


def test_nplectic_check_on_sixty_generators_is_quick(run, tmp_path):
    path = write(tmp_path, "const60.json", {
        "n": 2, "omega": [[[4, 5, 6], "1"]],
        "pair": {"family": "constant", "dim": 60, "brackets": {"1,2": {"3": "1"}}}})
    start = time.monotonic()
    code, payload, _ = run("nplectic-check", path)
    assert time.monotonic() - start < 2
    assert code == 0 and payload["ok"]


def test_validate_pair_on_a_hundred_generators_is_quick(run, tmp_path):
    # su(2) on e1..e3 and 97 or 397 central generators: only the basis
    # triples a bracket row reaches need a Jacobi check, and a bracket of
    # two random vectors is summed over the rows
    for dim, samples in ((100, ["--samples", "2"]), (400, [])):
        path = write(tmp_path, f"const{dim}.json", {
            "family": "constant", "dim": dim,
            "brackets": {"1,2": {"3": "1"}, "2,3": {"1": "1"}, "1,3": {"2": "-1"}}})
        start = time.monotonic()
        code, payload, _ = run("validate-pair", path, *samples)
        assert time.monotonic() - start < 5
        assert code == 0 and payload["ok"]


def test_jacobi_runs_under_an_explicit_arity_cap(run):
    code, _, _ = run("jacobi", PLANE, "--max-arity", "4", "--count", "1",
                     "--arity-cap", "6")
    assert code == 0


def test_benchmark_cohomology_table_is_the_expected_one(run):
    # the cohomology-4var workload checks its table against expected.json;
    # a regression there fails here too, without a benchmark run
    perfbench = MODELS.parent / "perfbench"
    expected = json.loads((perfbench / "expected.json").read_text())
    code, payload, _ = run("cohomology", str(perfbench / "inputs" / "poly4.json"),
                           "--weights=0:3")
    assert code == 0 and payload["ok"]
    assert payload["table"] == expected["cohomology-4var"]["table"]


def test_cohomology_table_of_the_extension_complex(run):
    code, payload, _ = run("cohomology", SU2_CARTAN)
    assert code == 0
    ranks = {row["degree"]: row["rank"] for row in payload["table"]}
    assert ranks == {-1: 0, 0: 0, 1: 3, 2: 0, 3: 0, 4: 0}


def test_cohomology_plain_tables(run):
    code, payload, _ = run("cohomology", HEISENBERG, "--plain")
    assert code == 0
    assert [row["rank"] for row in payload["table"]] == [1, 2, 2, 1]
    assert payload["meta"]["mode"] == "pair"


def test_cohomology_degree_window(run):
    code, payload, _ = run("cohomology", SU2_CARTAN, "--degrees", "1:2")
    assert code == 0
    assert [row["degree"] for row in payload["table"]] == [1, 2]


def test_cohomology_plain_honours_the_degree_span(run):
    code, payload, _ = run("cohomology", SU2_CARTAN, "--plain", "--degrees", "2:3")
    assert code == 0
    assert [row["degree"] for row in payload["table"]] == [2, 3]
    assert [row["rank"] for row in payload["table"]] == [0, 1]


@pytest.mark.parametrize("argv", [
    ["--degrees", "3:1"],
    ["--weights", "3:1"],
    ["--plain", "--degrees", "3:1"],
], ids=" ".join)
def test_cohomology_rejects_an_empty_span(run, argv):
    code, payload, err = run("cohomology", PLANE, *argv)
    assert code == 2 and payload is None
    assert "empty" in err and "Traceback" not in err


@pytest.mark.parametrize("option", ["--degrees", "--weights"])
def test_cohomology_rejects_a_span_that_is_not_integers(run, option):
    code, payload, err = run("cohomology", PLANE, option, "a:2")
    what = option.lstrip("-")
    assert code == 2 and payload is None
    assert err == f"error: bad {what} span 'a:2'; expected MIN:MAX\n"


def test_cohomology_rejects_omega_without_constant_coefficients(run, tmp_path):
    # closed and valid, but the weight grading cannot slice it
    path = write(tmp_path, "s.json", {
        "pair": {"family": "poly", "vars": 3}, "n": 1,
        "omega": [[[1, 3], "1"], [[1, 2], "x"]],
    })
    code, payload, _ = run("nplectic-check", path)
    assert code == 0 and payload["ok"]
    code, payload, err = run("cohomology", path)
    assert code == 2 and payload is None
    assert "weight-homogeneous" in err


POLY_OMEGA = {"pair": {"family": "poly", "vars": 3}, "n": 2,
              "omega": [[[1, 2, 3], "1 + x^2"]]}


@pytest.mark.parametrize("command, payload", [
    ("poisson", {"elements": [{"f": [[[1], "1"]], "x": []}]}),
    ("momentum-check", {"algebra": {"family": "constant", "dim": 1, "brackets": {}},
                        "fields": [[]], "potentials": [[[[1], "1"]]]}),
], ids=["poisson", "momentum-check"])
def test_classes_need_omega_with_constant_coefficients(run, tmp_path, command, payload):
    structure = write(tmp_path, "s.json", POLY_OMEGA)
    code, out, err = run(command, structure, write(tmp_path, "arg.json", payload))
    assert code == 2 and out is None
    assert err.startswith("error: omega is not weight-homogeneous")


def test_jacobi_runs_on_omega_with_polynomial_coefficients(run, tmp_path):
    structure = write(tmp_path, "s.json", POLY_OMEGA)
    code, payload, _ = run("jacobi", structure, "--max-arity", "3", "--count", "2")
    assert code == 0 and payload["ok"]


def test_cohomology_without_structure_needs_plain(run):
    code, payload, err = run("cohomology", HEISENBERG)
    assert code == 2 and "--plain" in err


COORDINATE_ELEMENTS = {
    "elements": [
        {"f": [[[], "x"]], "x": [[[2], "-1"]]},
        {"f": [[[], "y"]], "x": [[[1], "1"]]},
    ]
}


def test_poisson_bracket_of_coordinate_classes(run, tmp_path):
    path = write(tmp_path, "els.json", COORDINATE_ELEMENTS)
    code, payload, _ = run("poisson", PLANE, path, "--jacobi")
    assert code == 0 and payload["ok"]
    assert payload["zero_class"] is True
    jac = next(c for c in payload["checks"] if c["name"] == "weak_jacobi")
    assert jac["ok"]


def test_poisson_rejects_a_mismatched_potential(run, tmp_path):
    path = write(tmp_path, "els.json", {
        "elements": [{"f": [[[], "x"]], "x": [[[2], "1"]]}],
    })
    code, payload, _ = run("poisson", PLANE, path)
    assert code == 1
    first = payload["checks"][0]
    assert first["name"] == "cocycle_1" and not first["ok"]
    assert "residual" in first["details"]


def test_poisson_rejects_a_non_symplectic_field(run, tmp_path):
    path = write(tmp_path, "els.json", {
        "elements": [{"f": [], "x": [[[1], "x"]]}],
    })
    code, payload, err = run("poisson", PLANE, path)
    assert code == 2 and "element 1" in err


def test_poisson_asks_for_the_degree_of_the_zero_element(run, tmp_path):
    path = write(tmp_path, "els.json", {"elements": [{"f": [], "x": []}]})
    code, payload, err = run("poisson", PLANE, path)
    assert code == 2 and payload is None
    assert err == "error: element 1: the zero element has every degree; give one\n"


ROTATION_COCYCLE = {"f": [[[], "-1/2*x^2 - 1/2*y^2"]], "x": [[[2], "x"], [[1], "-y"]]}


@pytest.mark.parametrize("degree", ["a", "1", 1.5, [1], True])
def test_poisson_rejects_a_degree_that_is_not_an_integer(run, tmp_path, degree):
    path = write(tmp_path, "els.json", {
        "elements": [dict(ROTATION_COCYCLE, degree=degree), ROTATION_COCYCLE],
    })
    code, payload, err = run("poisson", PLANE, path)
    assert code == 2 and payload is None
    assert err.startswith("error: element 1: ")


@pytest.mark.parametrize("degree", [5, -2])
def test_poisson_rejects_a_degree_the_element_does_not_have(run, tmp_path, degree):
    path = write(tmp_path, "els.json", {
        "elements": [dict(ROTATION_COCYCLE, degree=degree), ROTATION_COCYCLE],
    })
    code, payload, err = run("poisson", PLANE, path)
    assert code == 2 and payload is None
    assert err.startswith(f"error: element 1: element has degree 1, not {degree}")


@pytest.mark.parametrize("degree", [None, 0, 1])
def test_poisson_rejects_an_element_without_a_single_degree(run, tmp_path, degree):
    # 1 + dx is a cocycle, but its parts have degrees 1 and 0
    element = {"f": [[[], "1"], [[1], "1"]], "x": []}
    if degree is not None:
        element["degree"] = degree
    path = write(tmp_path, "els.json", {"elements": [element]})
    code, payload, err = run("poisson", PLANE, path)
    assert code == 2 and payload is None
    assert err == ("error: element 1: element has no single degree; "
                   "a class needs a homogeneous element\n")


def test_momentum_check_certifies_the_rotation_candidate(run):
    code, payload, _ = run("momentum-check", PLANE, ROTATION)
    assert code == 0 and payload["ok"]
    assert [c["name"] for c in payload["checks"]] == ["cocycle_gate", "morphism_gate"]
    assert len(payload["classes"]) == 1


def test_momentum_check_rejects_a_corrupted_potential(run, tmp_path):
    data = json.loads(Path(ROTATION).read_text())
    data["potentials"] = [[[[], "x^2"]]]
    path = write(tmp_path, "bad.json", data)
    code, payload, _ = run("momentum-check", PLANE, path)
    assert code == 1
    gate = next(c for c in payload["checks"] if c["name"] == "cocycle_gate")
    assert not gate["ok"] and gate["details"]["issues"]
    assert payload["classes"] == [None]
    # the arity is checked against the cap before either gate runs
    code, payload, err = run("momentum-check", PLANE, path, "--max-arity", "7")
    assert code == 3 and payload is None and "exceeds cap" in err


def test_identities_on_a_bare_pair(run):
    code, payload, _ = run("identities", HEISENBERG, "--count", "6")
    assert code == 0 and payload["ok"]
    names = [c["name"] for c in payload["checks"]]
    assert "d_squares_to_zero" in names
    assert not any(n.startswith("bracket_pairing") for n in names)


def test_identities_on_a_structure_adds_pairing_checks(run):
    code, payload, _ = run("identities", PLANE, "--count", "5",
                           "--pairing-count", "3")
    assert code == 0 and payload["ok"]
    names = [c["name"] for c in payload["checks"]]
    assert "bracket_pairing_arity_2" in names
    assert payload["meta"]["pairing_count"] == 3


def test_output_flag_writes_the_report_file(run, tmp_path):
    out = tmp_path / "report.json"
    code, payload, _ = run("nplectic-check", PLANE, "--output", str(out))
    assert code == 0 and payload is None
    assert json.loads(out.read_text())["ok"]


@pytest.mark.parametrize("argv", [
    ["validate-pair", "{}"],
    ["identities", "{}"],
    ["jacobi", "{}"],
    ["cohomology", "{}"],
    ["cohomology", "{}", "--plain"],
    ["nplectic-check", "{}"],
    ["poisson", "{}", "{}"],
    ["momentum-check", "{}", ROTATION],
    ["identities", "{nested}"],
], ids=" ".join)
def test_a_json_array_is_bad_input(run, tmp_path, argv):
    array = write(tmp_path, "array.json", [1, 2])
    nested = write(tmp_path, "nested.json", {"pair": [1, 2], "n": 1, "omega": []})
    code, payload, err = run(*(a.format(array, nested=nested) for a in argv))
    assert code == 2 and payload is None
    assert err.startswith("error:")


@pytest.mark.parametrize("brackets", [[1], {"1,2": [1]}], ids=json.dumps)
@pytest.mark.parametrize("command", ["validate-pair", "nplectic-check", "jacobi"])
def test_a_bracket_table_that_is_not_an_object_is_a_bad_pair(run, tmp_path, brackets, command):
    pair = {"family": "constant", "dim": 3, "brackets": brackets}
    data = pair if command == "validate-pair" else {"pair": pair, "n": 1, "omega": []}
    code, payload, err = run(command, write(tmp_path, "pair.json", data))
    assert code == 2 and payload is None
    assert err.startswith(("error: bad pair:", "error: bad structure:"))
    assert "expected a JSON object, got list" in err


@pytest.mark.parametrize("row, target, bad", [
    (" 1_0, +11", "12", " 1_0"), ("1, 2", "3", " 2"), ("+1,2", "3", "+1"),
    ("1_0,11", "12", "1_0"), ("1,2", " 3", " 3"), ("1,2", "+3", "+3"), ("1,2", "1_2", "1_2"),
], ids=repr)
@pytest.mark.parametrize("command", ["validate-pair", "jacobi"])
def test_a_bracket_table_key_is_digits_only(run, tmp_path, command, row, target, bad):
    pair = {"family": "constant", "dim": 12, "brackets": {row: {target: "1"}}}
    data = pair if command == "validate-pair" else {"pair": pair, "n": 1, "omega": []}
    code, payload, err = run(command, write(tmp_path, "pair.json", data))
    assert code == 2 and payload is None
    assert err.startswith(("error: bad pair:", "error: bad structure:"))
    assert err.endswith(f"a generator index is digits only, got {bad!r}\n")


def test_a_bracket_table_key_names_two_generators(run, tmp_path):
    for row in ("1", "1,2,3", ""):
        pair = {"family": "constant", "dim": 3, "brackets": {row: {"3": "1"}}}
        code, _, err = run("validate-pair", write(tmp_path, "pair.json", pair))
        assert code == 2 and err == f"error: bad pair: bracket key {row!r}: expected 'i,j'\n"
    pair = {"family": "constant", "dim": 12, "brackets": {"10,11": {"12": "1"}}}
    assert run("validate-pair", write(tmp_path, "pair.json", pair), "--samples", "2")[0] == 0


def test_an_exponent_past_the_bound_exits_2_and_a_product_past_it_exits_3(run, tmp_path):
    top = 2 ** 31 - 1
    plane = {"family": "poly", "vars": 2}
    at_bound = write(tmp_path, "at.json", {"pair": plane, "element": [[[1], f"x*y^{top}"]]})
    code, payload, _ = run("differential", at_bound)
    assert code == 0 and payload["display"] == f"-{top}*x*y^{top - 1}*dx^dy"
    past = write(tmp_path, "past.json", {"pair": plane, "element": [[[1], f"x^{top + 1}"]]})
    code, payload, err = run("differential", past)
    assert (code, payload) == (2, None)
    assert err == f"error: bad cotensor: exponent {top + 1} exceeds {top}\n"
    product = write(tmp_path, "product.json",
                    {"pair": plane, "args": [[[[1], f"x^{top}"]], [[[1], "x^2"]]]})
    code, payload, err = run("bracket", "--schouten", product)
    assert (code, payload) == (3, None)
    assert err == f"error: a polynomial exponent exceeds cap {top}\n"


PLANE_STRUCTURE_JSON = {"pair": {"family": "poly", "vars": 2}, "n": 1,
                        "omega": [[[1, 2], "1"]]}

# field -> (command, the input file with the field set to a value, stderr prefix)
INTEGER_FIELDS = {
    "dim": ("validate-pair", lambda v: {"family": "constant", "dim": v},
            "error: bad pair: 'dim'"),
    "vars": ("validate-pair", lambda v: {"family": "poly", "vars": v},
             "error: bad pair: 'vars'"),
    "jacobi n": ("jacobi", lambda v: dict(PLANE_STRUCTURE_JSON, n=v),
                 "error: bad structure: 'n'"),
    "cohomology n": ("cohomology", lambda v: dict(PLANE_STRUCTURE_JSON, n=v),
                     "error: bad structure: 'n'"),
    "nplectic-check n": ("nplectic-check", lambda v: dict(PLANE_STRUCTURE_JSON, n=v),
                         "error: bad structure: 'n'"),
    "word letter": ("nplectic-check",
                    lambda v: dict(PLANE_STRUCTURE_JSON, omega=[[[v, 2], "1"]]),
                    "error: bad cotensor: a word letter"),
}


@pytest.mark.parametrize("value", [1.7, True, "1", None], ids=json.dumps)
@pytest.mark.parametrize("field", INTEGER_FIELDS)
def test_an_integer_field_takes_only_a_json_integer(run, tmp_path, field, value):
    command, build, prefix = INTEGER_FIELDS[field]
    code, payload, err = run(command, write(tmp_path, "in.json", build(value)))
    assert code == 2 and payload is None
    assert err == f"{prefix} must be an integer, got {value!r}\n"


@pytest.mark.parametrize("command, data, prefix", [
    ("nplectic-check", dict(PLANE_STRUCTURE_JSON, omega=[[[1, 2], True]]), "bad cotensor"),
    ("validate-pair", dict(SU2_PAIR_JSON, brackets={"1,2": {"3": True}}), "bad pair"),
], ids=["cotensor", "bracket"])
def test_a_true_coefficient_is_bad_input(run, tmp_path, command, data, prefix):
    code, payload, err = run(command, write(tmp_path, "in.json", data))
    assert code == 2 and payload is None
    assert err == f"error: {prefix}: cannot interpret True as a rational\n"


def test_malformed_json_reports_line_and_column(run, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"pair": ')
    code, payload, err = run("nplectic-check", str(path))
    assert code == 2 and "line 1" in err and "column" in err


@pytest.mark.parametrize("content, message", [
    (b"\xff\xfe\x00bad", "'utf-8' codec can't decode byte 0xff in position 0"),
    (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
], ids=["not-utf8", "nested-100000-deep"])
def test_a_file_that_is_not_utf8_or_too_deep_is_bad_input(run, tmp_path, content, message):
    path = tmp_path / "in.json"
    path.write_bytes(content)
    code, payload, err = run("nplectic-check", str(path))
    assert code == 2 and payload is None
    assert err.startswith(f"error: {path}: {message}") and "Traceback" not in err


def test_a_missing_input_file_is_bad_input(run, tmp_path):
    code, payload, err = run("nplectic-check", str(tmp_path / "absent.json"))
    assert code == 2 and payload is None
    assert err.startswith("error: [Errno 2] No such file or directory")


def test_a_report_into_a_missing_directory_is_bad_input(run, tmp_path):
    target = tmp_path / "absent" / "report.json"
    code, payload, err = run("validate-pair", HEISENBERG, "--samples", "1",
                             "--output", str(target))
    assert code == 2 and payload is None and not target.exists()
    assert err.startswith("error: [Errno 2] No such file or directory")


@pytest.mark.parametrize("argv, data, message", [
    (["differential"], {"pair": SU2_PAIR_JSON}, "missing field 'element'"),
    (["differential"], {"pair": SU2_PAIR_JSON, "element": [[[4], "1"]]},
     "bad cotensor: generator index 4 out of range"),
    (["contract"], {"pair": SU2_PAIR_JSON, "tensor": [[[1], True]], "cotensor": []},
     "bad tensor: cannot interpret True as a rational"),
    (["lie-derivative"], {"pair": SU2_PAIR_JSON, "tensor": [], "cotensor": [[[0], "1"]]},
     "bad cotensor: generator index 0 out of range"),
], ids=["differential-missing", "differential-bad", "contract-bad", "lie-derivative-bad"])
def test_an_element_command_names_the_field_it_could_not_read(run, tmp_path, argv, data,
                                                              message):
    code, payload, err = run(*argv, write(tmp_path, "in.json", data))
    assert code == 2 and payload is None
    assert err.startswith(f"error: {message}")


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["jacobi", PLANE, "--max-arity", "0"],
    ["jacobi", PLANE, "--max-arity", "1"],
    ["jacobi", PLANE, "--count", "0"],
    ["jacobi", PLANE, "--count", "-1"],
    ["validate-pair", HEISENBERG, "--samples", "-3"],
    ["validate-pair", HEISENBERG, "--max-degree", "-1"],
    ["validate-morphism", HEISENBERG, "--max-degree", "-1"],
    ["identities", PLANE, "--count", "0"],
    ["identities", PLANE, "--pairing-count", "0"],
    ["momentum-check", PLANE, ROTATION, "--max-arity", "0"],
], ids=lambda argv: " ".join([argv[0]] + argv[-2:]))
def test_counts_that_would_test_nothing_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "must be at least" in err and "Traceback" not in err


def test_an_integer_option_that_is_not_an_integer_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["jacobi", PLANE, "--count", "two"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "error: argument --count: expected an integer, got 'two'" in err


@pytest.mark.parametrize("argv", [
    ["momentum-check", PLANE, ROTATION, "--arity-cap", "0"],
    ["jacobi", PLANE, "--arity-cap", "-1"],
    ["poisson", PLANE, ROTATION, "--arity-cap", "0"],
    # higher_bracket stops at arity 12, so a larger cap would not bound the run
    ["jacobi", PLANE, "--max-arity", "13", "--count", "1", "--arity-cap", "13"],
    ["poisson", PLANE, ROTATION, "--arity-cap", "13"],
    ["momentum-check", PLANE, ROTATION, "--arity-cap", "13"],
], ids=lambda argv: " ".join([argv[0]] + argv[-2:]))
def test_arity_cap_outside_one_to_twelve_is_rejected_at_parse_time(argv, capsys):
    start = time.monotonic()
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert time.monotonic() - start < 1
    err = capsys.readouterr().err
    bound = "at least 1" if int(argv[-1]) < 1 else "at most 12"
    assert exc.value.code == 2
    assert f"error: argument --arity-cap: must be {bound}" in err and "Traceback" not in err


def _without(data: dict, key: str) -> dict:
    return {k: v for k, v in data.items() if k != key}


PLANE_JSON = json.loads(Path(PLANE).read_text())
ROTATION_JSON = json.loads(Path(ROTATION).read_text())
MORPHISM_JSON = {"domain": SU2_PAIR_JSON, "codomain": SU2_PAIR_JSON, "f": [],
                 "g": [[[[1], "1"]], [[[2], "1"]], [[[3], "1"]]]}
CALCULUS_JSON = {"pair": {"family": "poly", "vars": 2},
                 "tensor": [[[1], "1"]], "cotensor": [[[1, 2], "1"]]}


@pytest.mark.parametrize("argv, data, key, prefix", [
    (["jacobi", HEISENBERG], {}, "pair", "bad structure: "),  # a pair file, not a structure
    (["jacobi", "{}"], PLANE_JSON, "pair", "bad structure: "),
    (["jacobi", "{}"], PLANE_JSON, "omega", "bad structure: "),
    (["jacobi", "{}"], PLANE_JSON, "n", "bad structure: "),
    (["validate-pair", "{}"], SU2_PAIR_JSON, "dim", "bad pair: "),
    (["validate-pair", "{}"], {"family": "poly", "vars": 2}, "vars", "bad pair: "),
    (["momentum-check", PLANE, "{}"], ROTATION_JSON, "algebra", "bad candidate: "),
    (["momentum-check", PLANE, "{}"], ROTATION_JSON, "fields", "bad candidate: "),
    (["momentum-check", PLANE, "{}"], ROTATION_JSON, "potentials", "bad candidate: "),
    (["validate-morphism", "{}"], MORPHISM_JSON, "domain", "bad morphism: "),
    (["validate-morphism", "{}"], MORPHISM_JSON, "codomain", "bad morphism: "),
    (["contract", "{}"], CALCULUS_JSON, "tensor", ""),
    (["lie-derivative", "{}"], CALCULUS_JSON, "cotensor", ""),
], ids=["heisenberg-pair-file", "structure-pair", "structure-omega", "structure-n", "pair-dim",
        "pair-vars", "candidate-algebra", "candidate-fields", "candidate-potentials",
        "morphism-domain", "morphism-codomain", "contract-tensor", "lie-derivative-cotensor"])
def test_a_missing_key_is_reported_as_a_missing_field(run, tmp_path, argv, data, key, prefix):
    path = write(tmp_path, "input.json", _without(data, key))
    code, payload, err = run(*(a.format(path) for a in argv))
    assert code == 2 and payload is None
    assert err == f"error: {prefix}missing field {key!r}\n"


def test_plain_cohomology_on_a_thousand_variables_exits_three(run, tmp_path):
    # monomials are listed without recursion, so the run reaches the slice cap
    path = write(tmp_path, "poly1000.json", {"family": "poly", "vars": 1000})
    start = time.monotonic()
    code, payload, err = run("cohomology", "--plain", path)
    assert time.monotonic() - start < 10
    assert code == 3 and payload is None
    assert err == "error: slice of word length 2 has 499500 basis elements, more than 10000\n"


@pytest.mark.parametrize(("argv", "rows"), [
    ((SU2_CARTAN, "--weights=0:200000"), 6 * 200_001),
    (("--plain", HEISENBERG, "--weights=0:200000"), 4 * 200_001),
    ((SU2_CARTAN, "--weights=0:1000000000000"), 6 * (10**12 + 1)),
    ((SU2_CARTAN, "--weights=0:100000000000000000000"), 6 * (10**20 + 1)),
    ((SU2_CARTAN, "--degrees=0:200000"), 200_001),
])
def test_a_table_past_the_row_cap_exits_three_in_under_a_second(run, argv, rows):
    # the rows are counted from the spans, before any weight is listed
    start = time.monotonic()
    code, payload, err = run("cohomology", *argv)
    assert time.monotonic() - start < 1
    assert code == 3 and payload is None
    assert err == f"error: table has {rows} rows, more than 100000\n"


def test_seeded_reports_are_byte_identical():
    argv = [sys.executable, "-m", "nplectic.cli", "identities", PLANE,
            "--count", "8", "--pairing-count", "4", "--seed", "11"]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    assert first.stdout == second.stdout
    # wall time goes to stderr only, so it cannot break byte equality
    assert b"identities:" in first.stderr
    other = subprocess.run(argv[:-1] + ["12"], capture_output=True, check=True)
    assert other.stdout != first.stdout


# ---------------------------------------------------------------------------
# the parser of the command that runs
# ---------------------------------------------------------------------------

PARSE_ARGVS = [
    [], ["--help"], ["-h", "jacobi"], ["bogus"],
    ["--output", "x", "jacobi", PLANE],
    *([name, "--help"] for name in COMMANDS),
    ["jacobi"],
    ["jacobi", PLANE, "--arity-cap", "13"],
    ["jacobi", PLANE, "--bogus"],
]


def _outcome(argv):
    """(exit code, stdout, stderr) of main(argv), exits from argparse included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", PARSE_ARGVS, ids=lambda argv: " ".join(argv) or "(none)")
def test_parsing_reads_as_with_every_command_built(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    lazy = _outcome(argv)
    monkeypatch.setattr(cli, "build_parser", lambda command=None: build_parser())
    assert lazy == _outcome(argv)
    assert lazy[0] in (0, 2)


def test_a_known_command_builds_only_its_own_parser(monkeypatch, capsys):
    added = []
    original = argparse._SubParsersAction.add_parser

    def add_parser(self, name, **kwargs):
        added.append(name)
        return original(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", add_parser)
    assert main(["nplectic-check", PLANE]) == 0
    assert added == ["nplectic-check"]
    capsys.readouterr()


def _commands(parser):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


def test_the_command_table_is_the_full_parser():
    assert _commands(build_parser()) == list(COMMANDS) and len(COMMANDS) == 12
    for name in COMMANDS:
        assert _commands(build_parser(name)) == [name]


def test_module_entry_point_reads_its_arguments_from_sys_argv():
    result = subprocess.run([sys.executable, "-m", "nplectic.cli", "nplectic-check", PLANE],
                            capture_output=True, check=True)
    assert json.loads(result.stdout)["title"] == "nplectic-check"
    assert result.stderr.startswith(b"nplectic-check: ")
