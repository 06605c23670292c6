"""The package's public surface: every exported name exists and is public,
every name the benchmark tracer wraps can still be found and a traced
workload or element command prints what the plain one does, only
`scalars` reads the storage of a `Poly` and only `elements` that of a
tensor or cotensor, only `engine` and `cohomology` hand matrices to
`linalg`, only `symplectic_slice` takes a null space in `engine`, slices,
the checked extension entry and kernel reduction build no `Poly`, the
higher brackets multiply none, the pairing adds and multiplies none,
seeded draws add none, and the README quick start runs and prints what
its comments say."""

import ast
import importlib.util
import json
import random
import re
from pathlib import Path

import pytest

import nplectic
from nplectic import ConstantPair, Cotensor, PolyVectorFieldPair, Tensor, higher_bracket, pairing
from nplectic.cli import main
from nplectic.cohomology import extension_differential, extension_slice
from nplectic.engine import (
    ExtensionElement,
    NPlecticStructure,
    kernel_basis,
    reduce_mod_kernel,
    symplectic_slice,
)
from nplectic.identities import random_symplectic
from nplectic.sampling import random_cotensor, random_tensor
from nplectic.scalars import Poly

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
README = ROOT / "README.md"


def test_every_exported_name_resolves_and_is_public():
    assert len(set(nplectic.__all__)) == len(nplectic.__all__)
    for name in nplectic.__all__:
        assert not name.startswith("_"), name
        assert hasattr(nplectic, name), name


def test_only_scalars_reads_the_poly_storage():
    storage = re.compile(r"\.(nums|den)\b")
    for path in sorted((ROOT / "src" / "nplectic").glob("*.py")):
        if path.name != "scalars.py":
            assert not storage.search(path.read_text()), path.name


def test_only_engine_and_cohomology_import_linalg():
    # linalg takes only sparse int rows, which the engine lays out from label vectors
    importer = re.compile(r"^\s*(from (\.|nplectic\.)linalg import|import nplectic\.linalg"
                          r"|from (\.|nplectic) import .*\blinalg\b)", re.M)
    for path in sorted((ROOT / "src" / "nplectic").glob("*.py")):
        if path.name not in ("engine.py", "cohomology.py"):
            assert not importer.search(path.read_text()), path.name


def test_only_symplectic_slice_takes_a_null_space_in_engine():
    # every quotient, the contraction kernel's included, is a restricted span
    tree = ast.parse((ROOT / "src" / "nplectic" / "engine.py").read_text())
    callers = {func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
               for node in ast.walk(func) if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "null_space"}
    assert callers == {"symplectic_slice"}


def test_each_slice_fact_has_one_owner():
    # d's weight shift is engine.exact_source, and the window every random
    # tensor is drawn in, symplectic or not, is read through identities,
    # not by the cli: no literal wedge cap or coefficient degree there
    shift = re.compile(r"\+ 1 if \w+\.poly_nvars")
    for path in sorted((ROOT / "src" / "nplectic").glob("*.py")):
        assert len(shift.findall(path.read_text())) == (path.name == "engine.py"), path.name
    cli = (ROOT / "src" / "nplectic" / "cli.py").read_text()
    assert "symplectic_vectors" not in cli
    assert not re.search(r"max_degree=\d|min\([^()]*\b\d+\)", cli)
    assert "max_degree=DRAW_DEGREE" in cli and "DRAW_WEDGE)" in cli


def test_only_elements_reads_the_storage_of_an_element():
    # the label vector is read through `label_vector`; a Poly per word
    # through `items()`
    storage = re.compile(r"\.(_vector|terms)\b")
    for path in sorted((ROOT / "src" / "nplectic").glob("*.py")):
        if path.name != "elements.py":
            assert not storage.search(path.read_text()), path.name


def test_slices_the_checked_entry_and_kernel_reduction_build_no_poly(monkeypatch):
    # the engine reads a tensor's stored label vector and builds its results
    # from label vectors; only the contraction tables of omega, built once
    # per structure and word, go through `contract`, so the first pass
    # fills them
    plane = PolyVectorFieldPair(2)
    su2 = ConstantPair.from_brackets(3, {(1, 2): {3: 1}, (2, 3): {1: 1}, (3, 1): {2: 1}})
    structures = [NPlecticStructure(plane, 1, Cotensor(plane, {(1, 2): "2/3"})),
                  NPlecticStructure(PolyVectorFieldPair(3), 1,
                                    Cotensor(PolyVectorFieldPair(3), {(1, 2): 1})),
                  NPlecticStructure(su2, 2, Cotensor(su2, {(1, 2, 3): 1}))]

    def results():
        rng = random.Random(9)
        out = []
        for s in structures:
            for k in range(s.pair.ngens + 1):
                out.append(symplectic_slice(s, k, range(3)))
                image, dim = extension_slice(s, k, 1), extension_differential(s, k, 1)[1]
                out.append((image.labels, image.ranks, image.echelon.rows, dim))
                out.append(kernel_basis(s, k, 2))
                out.append([reduce_mod_kernel(s, random_tensor(rng, s.pair, k, 2))
                            for _ in range(3)])
            for k in range(s.n + 1):
                out.extend(ExtensionElement(s, random_cotensor(rng, s.pair, s.n - k, 2),
                                            random_symplectic(rng, s, k)
                                            + random_symplectic(rng, s, k)) for _ in range(3))
        return out

    expected = results()
    assert sum(not e.x.is_zero() for e in expected if isinstance(e, ExtensionElement)) > 10

    def refused(*args, **kwargs):
        raise AssertionError("a Poly built by a slice, the checked entry or reduce_mod_kernel")

    monkeypatch.setattr(Poly, "_from_nums", refused)
    monkeypatch.setattr(Poly, "__init__", refused)
    assert results() == expected


def test_only_scalars_and_pairs_read_the_variables_of_a_poly():
    # which generators act on a coefficient is the pair's `acting`
    for path in sorted((ROOT / "src" / "nplectic").glob("*.py")):
        if path.name not in ("scalars.py", "pairs.py"):
            assert ".variables(" not in path.read_text(), path.name


def test_higher_brackets_multiply_no_poly(monkeypatch):
    # coefficients are multiplied as int numerators by monomial key
    plane = PolyVectorFieldPair(2)
    su2 = ConstantPair.from_brackets(3, {(1, 2): {3: 1}, (2, 3): {1: 1}, (3, 1): {2: 1}})
    cases = [
        [Tensor(plane, {(1,): "x^2 - 1/2*y", (2,): "x*y"}), Tensor(plane, {(2,): "1/3*y^2"})],
        [Tensor(plane, {(1,): "x*y", (): "y"}), Tensor(plane, {(1, 2): "x"}),
         Tensor(plane, {(2,): "x^2 + y"})],
        [Tensor(su2, {(1,): "1/2", (2, 3): 3}), Tensor(su2, {(2,): 1, (3,): -2})],
        [Tensor(su2, {(1,): 1, (2, 3): 1}), Tensor(su2, {(2,): "2/3"}), Tensor(su2, {(1, 2): 5})],
    ]
    expected = [higher_bracket(xs) for xs in cases]
    assert all(not b.is_zero() for b in expected)

    def refused(self, other):
        raise AssertionError("a Poly product inside higher_bracket")

    monkeypatch.setattr(Poly, "__mul__", refused)
    monkeypatch.setattr(Poly, "__rmul__", refused)
    assert [higher_bracket(xs) for xs in cases] == expected


def test_pairing_adds_and_multiplies_no_poly(monkeypatch):
    # the pairing convolves the two label vectors word by word
    rng = random.Random(3)
    plane = PolyVectorFieldPair(2)
    su2 = ConstantPair.from_brackets(3, {(1, 2): {3: 1}, (2, 3): {1: 1}, (3, 1): {2: 1}})
    cases = [(random_cotensor(rng, pair, k, 2, 3), random_tensor(rng, pair, k, 2, 3))
             for pair in (plane, su2) for k in range(pair.ngens + 1) for _ in range(3)]
    expected = [pairing(f, x) for f, x in cases]
    assert sum(not p.is_zero() for p in expected) > 10

    def refused(self, other):
        raise AssertionError("a Poly sum or product inside pairing")

    for name in ("__add__", "__radd__", "__mul__", "__rmul__"):
        monkeypatch.setattr(Poly, name, refused)
    assert [pairing(f, x) for f, x in cases] == expected


def test_draws_add_no_poly_and_the_checked_entry_multiplies_none(monkeypatch):
    # a draw sums its terms as ints by label, and the checked entry tests and
    # reduces a tensor on its label vector
    plane = PolyVectorFieldPair(2)
    su2 = ConstantPair.from_brackets(3, {(1, 2): {3: 1}, (2, 3): {1: 1}, (3, 1): {2: 1}})
    structures = [NPlecticStructure(plane, 1, Cotensor(plane, {(1, 2): "2/3"})),
                  NPlecticStructure(PolyVectorFieldPair(3), 1,
                                    Cotensor(PolyVectorFieldPair(3), {(1, 2): 1})),
                  NPlecticStructure(su2, 2, Cotensor(su2, {(1, 2, 3): 1}))]

    def draws(seed):
        rng = random.Random(seed)
        for s in structures:
            for grade in range(s.pair.ngens + 1):
                yield random_tensor(rng, s.pair, grade)
                yield random_cotensor(rng, s.pair, grade)
                yield random_symplectic(rng, s, grade)

    def entries():
        rng = random.Random(5)
        return [ExtensionElement(s, random_cotensor(rng, s.pair, s.n - grade, 2),
                                 random_symplectic(rng, s, grade) + random_symplectic(rng, s, grade))
                for s in structures for grade in range(s.n + 1) for _ in range(3)]

    expected_draws = [list(draws(seed)) for seed in range(10)]
    expected_entries = entries()  # also fills each structure's tables and quotients
    assert sum(not e.x.is_zero() for e in expected_entries) > 10

    def refused(self, other):
        raise AssertionError("a Poly operation inside a draw or the checked entry")

    monkeypatch.setattr(Poly, "__add__", refused)
    monkeypatch.setattr(Poly, "__radd__", refused)
    assert [list(draws(seed)) for seed in range(10)] == expected_draws
    monkeypatch.undo()
    monkeypatch.setattr(Poly, "__mul__", refused)
    monkeypatch.setattr(Poly, "__rmul__", refused)
    assert entries() == expected_entries


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_resolves():
    tracer = load_tracer()
    for table in (tracer.COUNTED, tracer.TIMED):
        for metric, (module_name, qualnames) in table.items():
            for qualname in qualnames:
                _, _, original = tracer._resolve(module_name, qualname)
                assert callable(original), (metric, qualname)


# the benchmark's four workload commands, on small inputs
WORKLOAD_COMMANDS = {
    "jacobi-plane": ["jacobi", "models/symplectic_plane.json", "--max-arity", "3",
                     "--count", "2", "--arity-cap", "6"],
    "jacobi-su2": ["jacobi", "models/su2_cartan.json", "--max-arity", "3", "--arity-cap", "6"],
    "cohomology-4var": ["cohomology", "perfbench/inputs/poly4.json", "--weights=0:3"],
    "momentum-sp2": ["momentum-check", "models/symplectic_plane.json",
                     "perfbench/inputs/sp2_momentum.json", "--max-arity", "2",
                     "--arity-cap", "6"],
}


@pytest.mark.parametrize("argv", WORKLOAD_COMMANDS.values(), ids=WORKLOAD_COMMANDS)
def test_a_traced_workload_command_prints_what_the_plain_one_does(argv, capsys):
    # the tracer binds the arguments of some wrapped calls and sizes the
    # rows handed to rref and rank_fraction_free: a signature it does not
    # expect kills a traced benchmark run, and nothing else shows it
    tracer = load_tracer()
    argv = [str(ROOT / a) if a.endswith(".json") else a for a in argv]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    traced = tracer.Tracer()
    try:
        code = main(argv)
    finally:
        traced.restore()
    assert code == 0
    assert capsys.readouterr().out == plain
    expected = {f"{m}.calls" for m in (*tracer.COUNTED, *tracer.TIMED)}
    assert expected | {f"{m}.s" for m in tracer.TIMED} <= set(traced.metrics())


def test_a_traced_element_command_prints_what_the_plain_one_does(tmp_path, capsys):
    # the element commands read their operation from `nplectic.cli` when the
    # parser is built, so the tracer's wrapper is the one that runs
    tracer = load_tracer()
    contract_input = tmp_path / "contract.json"
    contract_input.write_text(json.dumps({
        "pair": {"family": "poly", "vars": 2},
        "tensor": [[[1], "x"], [[2], "1/2*y^2"]], "cotensor": [[[1, 2], "x*y - 3"]]}))
    cases = {"calculus.contract.calls": ["contract", str(contract_input)],
             "calculus.ce_differential.calls":
                 ["differential", str(ROOT / "tests/golden/inputs/poly4_differential.json")]}
    for metric, argv in cases.items():
        assert main(argv) == 0
        plain = capsys.readouterr().out
        traced = tracer.Tracer()
        try:
            code = main(argv)
        finally:
            traced.restore()
        assert code == 0
        assert capsys.readouterr().out == plain
        assert traced.metrics()[metric] > 0, metric


def test_the_readme_quick_start_prints_what_its_comments_say(capsys):
    block = re.search(r"## Quick start\n\n```python\n(.*?)```", README.read_text(), re.S)[1]
    expected = [line.split("#", 1)[1].strip()
                for line in block.splitlines() if line.startswith("print(")]
    exec(compile(block, str(README), "exec"), {})
    assert len(expected) == 2
    assert capsys.readouterr().out.splitlines() == expected
