"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import copy
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

HELD_OUT_SEED = 1234
EXPECTED = run.read_json(HERE / "expected.json")


def small_argv(workload: str, seed: int) -> list[str]:
    """The workload's command at a lower arity, to keep the tests quick."""
    argv = run.make_inputs(workload, seed)
    argv[argv.index("--max-arity") + 1] = "2" if workload == "momentum-sp2" else "3"
    return argv


@pytest.fixture(scope="module", params=["jacobi-plane", "momentum-sp2"])
def runs(request):
    argv = small_argv(request.param, seed=5)
    return [run.launch(mode, argv) for mode in ("run", "trace", "trace")]


def counts(sample: dict) -> dict:
    return {k: v for k, v in sample["layers"].items() if not run.is_timing(k)}


def test_tracing_leaves_the_report_byte_identical(runs):
    plain, traced, _ = runs
    assert plain["exit_code"] == traced["exit_code"] == 0
    assert plain["stdout"] and plain["stdout"] == traced["stdout"]


def test_traced_counters_repeat_exactly(runs):
    _, first, second = runs
    assert counts(first) == counts(second)
    assert first["layers"]["scalars.poly_mul.calls"] > 0


def test_per_layer_metrics_are_all_reported(runs):
    metrics, problems = run.per_layer(runs)
    assert not problems
    assert list(metrics) == run.PER_LAYER
    assert metrics["trace.overhead_ratio"]["value"] > 0


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_held_out_seed_matches_the_stored_expectation(workload):
    sample = run.launch("run", run.make_inputs(workload, HELD_OUT_SEED))
    assert run.semantic(json.loads(sample["stdout"])) == EXPECTED[workload]
    assert run.failures([sample], EXPECTED[workload]) == 0

    wrong = copy.deepcopy(EXPECTED[workload])
    if wrong["table"]:
        wrong["table"][0]["rank"] += 1
    else:
        wrong["checks"][0][2] = (wrong["checks"][0][2] or 0) + 1
    assert run.failures([sample], wrong) == 1


def test_a_zero_instance_check_fails_the_sample():
    def sample(instances):
        check = {"name": "tensor_jacobi_arity_2", "ok": True, "gating": True,
                 "details": {"instances": instances}}
        return {"child_exit": 0, "exit_code": 0,
                "stdout": json.dumps({"ok": True, "checks": [check]}).encode()}

    assert run.sample_problems(sample(10), {"checks": [["tensor_jacobi_arity_2", True, 10]],
                                            "table": None}, None) == []
    problems = run.sample_problems(sample(0), {"checks": [["tensor_jacobi_arity_2", True, 0]],
                                               "table": None}, None)
    assert problems == ["checks ran zero instances: ['tensor_jacobi_arity_2']"]


def _bindings():
    import nplectic  # noqa: F401

    found = {}
    for name, module in sorted(sys.modules.items()):
        if name == "nplectic" or name.startswith("nplectic."):
            for attr, value in vars(module).items():
                found[(name, attr)] = value
                if isinstance(value, type):
                    for cattr, cvalue in vars(value).items():
                        found[(name, attr, cattr)] = cvalue
    return found


def test_every_patched_binding_is_restored():
    import nplectic.cli

    before = _bindings()
    tracer = Tracer()
    try:
        during = _bindings()
        changed = {k for k in before if during[k] is not before[k]}
        assert ("nplectic.cli", "contract") in changed
        assert ("nplectic.scalars", "Poly", "__rmul__") in changed
        with redirect_stdout(io.StringIO()):
            assert nplectic.cli.main(small_argv("momentum-sp2", seed=5)) == 0
    finally:
        tracer.restore()
    assert tracer.metrics()["cohomology.class_of.calls"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, run.layer_unit(name)) for name in run.PER_LAYER]
