"""Layered benchmark for the ``nplectic`` command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each sample runs ``nplectic.cli.main(argv)`` in a fresh interpreter
(``child.py``), so no module-level cache carries over from one sample to
the next.  Load is closed-loop: one client, samples back to back, no
threads.  Every child gets the same pinned environment: ``PYTHONPATH=src``,
a fixed ``PYTHONHASHSEED``, no ``NPLECTIC_*`` variables and an explicit
``--arity-cap``.

The seed only builds the inputs: rescaled copies of a structure (and of a
momentum candidate), written under ``perfbench/.work/``.  A rescaling by
nonzero rationals is an isomorphism, so the certified verdicts and ranks do
not depend on the seed and ``expected.json`` holds them once per workload.
The ``jacobi`` commands keep one fixed ``--seed``: the random instances it
draws change the work by a factor of two from one CLI seed to the next,
which would swamp any regression the bounds are meant to catch.

``--trace 0`` reports the end-to-end metrics, from medians over the samples
of the run.  The machine is shared and its speed drifts by up to 1.7x over
minutes, so the engine's wall and CPU times are reported as multiples of a
reference sample (``reference.py``) launched before and after every engine
sample: ``wall_ref`` and ``cpu_ref``.  The raw medians are on the
``record`` line.
``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics of ``tracer.py``.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A sample fails when its exit code is not 0, its report is not ``ok``, a
gating check ran zero instances, its checks or table differ from
``expected.json``, or its report is not byte-identical to the first one
of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.py"
WORK = HERE / ".work"

ARITY_CAP = "6"
JACOBI_CLI_SEED = "0"
HASH_SEED = "0"
MIN_SAMPLES = 3          # untraced samples, or traced pairs, per run
SAMPLE_TIMEOUT = 150.0

END_TO_END = {"setup_s": "s", "wall_ref": "ref", "cpu_ref": "ref", "peak_rss_mb": "MB"}

PER_LAYER = [
    "scalars.poly_mul.calls", "scalars.enumerate_shuffles.calls",
    "scalars.koszul_sign.calls",
    "elements.wedge.calls", "pairs.bracket_basis.calls", "pairs.action_basis.calls",
    *(f"calculus.{f}.{m}" for f in ("higher_bracket", "schouten", "contract",
                                    "ce_differential") for m in ("calls", "s")),
    "calculus.self_s",
    *(f"linalg.{f}.{m}" for f in ("rref", "rank_fraction_free") for m in ("calls", "s")),
    "linalg.null_space.calls", "linalg.echelon_reduce.calls", "linalg.echelon_add.calls",
    "linalg.cells", "linalg.nnz", "linalg.density", "linalg.self_s",
    *(f"engine.{f}.{m}" for f in ("kernel_basis", "reduce_mod_kernel", "matrix_of",
                                  "extension_bracket", "symplectic_slice")
      for m in ("calls", "s")),
    "engine.kernel_basis.repeat_ratio", "engine.self_s",
    *(f"cohomology.{f}.{m}" for f in ("extension_slice", "extension_cohomology_rank",
                                      "class_of", "poisson_bracket")
      for m in ("calls", "s")),
    "cohomology.extension_slice.repeat_ratio",
    *(f"linf.{f}.{m}" for f in ("jacobi_residual", "morphism_residual")
      for m in ("calls", "s")),
    "report.canonical_json.s", "trace.overhead_ratio",
]


def layer_unit(name: str) -> str:
    if name.endswith((".s", "self_s")):
        return "s"
    if name.endswith(("ratio", "density")):
        return "ratio"
    return "count"


def is_timing(name: str) -> bool:
    return layer_unit(name) == "s"


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

# Scale factors are +-p/q over distinct primes of one size, so that no two
# seeds differ in how often numerators and denominators cancel: the cost
# of the exact arithmetic, not only its result, stays put from seed to seed.
PRIMES = (11, 13, 17, 19, 23, 29, 31, 37)


def scale_factors(rng: random.Random, count: int) -> list[Fraction]:
    primes = rng.sample(PRIMES, 2 * count)
    return [Fraction(rng.choice((-1, 1)) * p, q) for p, q in zip(primes[::2], primes[1::2])]


def scale_coeff(text: str, c: Fraction) -> str:
    """Multiply a one-term coefficient such as ``-1/2*x^2`` or ``y`` by c."""
    head, _, rest = text.partition("*")
    try:
        q, mono = Fraction(head), rest
    except ValueError:
        q, mono = (-1, text[1:]) if text.startswith("-") else (1, text)
    value = q * c
    return f"{value}*{mono}" if mono else str(value)


def scale_element(terms, c: Fraction):
    return [[word, scale_coeff(coeff, c)] for word, coeff in terms]


def rebase_algebra(pair: dict, cs: list[Fraction]) -> dict:
    """Structure constants in the basis e_i' = c_i e_i."""
    brackets = {}
    for key, entry in pair["brackets"].items():
        i, j = (int(v) for v in key.split(","))
        brackets[key] = {k: str(Fraction(v) * cs[i - 1] * cs[j - 1] / cs[int(k) - 1])
                         for k, v in entry.items()}
    return {**pair, "brackets": brackets}


def read_json(path: Path):
    return json.loads(path.read_text())


def write_input(work: Path, name: str, data) -> str:
    path = work / name
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return str(path.relative_to(ROOT))


def jacobi_plane(rng, work):
    """omega = c dx^dy on the plane."""
    data = read_json(ROOT / "models" / "symplectic_plane.json")
    data["omega"] = scale_element(data["omega"], *scale_factors(rng, 1))
    return ["jacobi", write_input(work, "plane.json", data), "--max-arity", "4",
            "--count", "5", "--seed", JACOBI_CLI_SEED, "--arity-cap", ARITY_CAP]


def jacobi_su2(rng, work):
    """su(2) and its Cartan 3-form in the basis c_i e_i."""
    data = read_json(ROOT / "models" / "su2_cartan.json")
    cs = scale_factors(rng, 3)
    data["pair"] = rebase_algebra(data["pair"], cs)
    data["omega"] = scale_element(data["omega"], cs[0] * cs[1] * cs[2])
    return ["jacobi", write_input(work, "su2.json", data), "--max-arity", "5",
            "--seed", JACOBI_CLI_SEED, "--arity-cap", ARITY_CAP]


def cohomology_4var(rng, work):
    """omega = a dx1^dx2 + b dx3^dx4 on Q[x1..x4]."""
    data = read_json(HERE / "inputs" / "poly4.json")
    data["omega"] = [scale_element([term], c)[0] for term, c in
                     zip(data["omega"], scale_factors(rng, len(data["omega"])))]
    return ["cohomology", write_input(work, "poly4.json", data), "--weights=0:3"]


def momentum_sp2(rng, work):
    """The sp(2) momentum map on the plane in the basis c_i e_i."""
    data = read_json(HERE / "inputs" / "sp2_momentum.json")
    cs = scale_factors(rng, 3)
    data["algebra"] = rebase_algebra(data["algebra"], cs)
    data["fields"] = [scale_element(x, c) for x, c in zip(data["fields"], cs)]
    data["potentials"] = [scale_element(f, c) for f, c in zip(data["potentials"], cs)]
    return ["momentum-check", "models/symplectic_plane.json",
            write_input(work, "sp2.json", data), "--max-arity", "4",
            "--arity-cap", ARITY_CAP]


WORKLOADS = {
    "jacobi-plane": jacobi_plane,
    "jacobi-su2": jacobi_su2,
    "cohomology-4var": cohomology_4var,
    "momentum-sp2": momentum_sp2,
}


def make_inputs(workload: str, seed: int) -> list[str]:
    work = WORK / f"{workload}-seed{seed}"
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[workload](random.Random(seed), work)


# ---------------------------------------------------------------------------
# samples
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("NPLECTIC_", "PYTHON"))}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=HASH_SEED)
    return env


def _interpreter(mode: str, args: list[str]) -> dict:
    """Run a fresh interpreter whose last stderr line is its measurements."""
    try:
        proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                              capture_output=True, timeout=SAMPLE_TIMEOUT)
    except subprocess.TimeoutExpired:
        return {"mode": mode, "error": f"timed out after {SAMPLE_TIMEOUT}s"}
    lines = proc.stderr.decode(errors="replace").strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        out = {"error": f"child exited {proc.returncode}: " + " | ".join(lines[-3:])}
    out.update(mode=mode, stdout=proc.stdout, child_exit=proc.returncode)
    return out


def launch(mode: str, argv: list[str]) -> dict:
    """One engine sample; returns its measurements plus stdout and exit code."""
    return _interpreter(mode, [str(CHILD), repr(time.monotonic()), mode, "--", *argv])


def launch_reference() -> dict:
    return _interpreter("reference", [str(REFERENCE)])


def semantic(report: dict) -> dict:
    """The parts of a report that must not change: checks and table."""
    return {
        "checks": [[c["name"], c["ok"], c.get("details", {}).get("instances")]
                   for c in report.get("checks", [])],
        "table": report.get("table"),
    }


def sample_problems(sample: dict, expected: dict, first_report: bytes | None) -> list[str]:
    if "error" in sample:
        return [sample["error"]]
    problems = []
    if sample["child_exit"] != 0 or sample.get("exit_code") != 0:
        problems.append(f"exit code {sample.get('exit_code')} (child {sample['child_exit']})")
    try:
        report = json.loads(sample["stdout"])
    except json.JSONDecodeError:
        return problems + ["report is not JSON"]
    if report.get("ok") is not True:
        problems.append("report is not ok")
    empty = [c["name"] for c in report.get("checks", [])
             if c.get("gating", True) and c.get("details", {}).get("instances") == 0]
    if empty:
        problems.append(f"checks ran zero instances: {empty}")
    if semantic(report) != expected:
        problems.append("checks or table differ from expected.json")
    if first_report is not None and sample["stdout"] != first_report:
        problems.append("report differs from the first report of this seed")
    return problems


def run_samples(argv: list[str], seconds: float, traced: bool) -> list[dict]:
    """Samples back to back until the next one would overrun ``seconds``."""
    modes = ["run", "trace"] if traced else ["run"]
    samples = [launch_reference()]
    rounds: list[float] = []
    start = time.monotonic()
    while len(rounds) < MIN_SAMPLES or (
            time.monotonic() - start + statistics.median(rounds) <= seconds):
        began = time.monotonic()
        samples.extend(launch(mode, argv) for mode in modes)
        samples += [launch("setup", argv), launch_reference()]
        rounds.append(time.monotonic() - began)
    return samples


def raw_medians(samples: list[dict]) -> dict:
    """Medians of the untraced engine samples and of the reference samples."""
    def median(mode, key):
        return statistics.median(s[key] for s in samples if s["mode"] == mode and key in s)
    return {"wall_s": median("run", "wall_s"), "cpu_s": median("run", "cpu_s"),
            "reference_wall_s": median("reference", "wall_s"),
            "reference_cpu_s": median("reference", "cpu_s")}


def relative(samples: list[dict], key: str) -> float:
    """Median over engine samples of their time over the mean time of the
    reference samples launched just before and just after them."""
    refs = [i for i, s in enumerate(samples) if s["mode"] == "reference"]
    ratios = []
    for i, s in enumerate(samples):
        if s["mode"] == "run" and key in s:
            before = max(r for r in refs if r < i)
            after = min(r for r in refs if r > i)
            ratios.append(2 * s[key] / (samples[before][key] + samples[after][key]))
    return statistics.median(ratios)


def end_to_end(samples: list[dict]) -> dict:
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in samples if "setup_s" in s),
        "wall_ref": relative(samples, "wall_s"),
        "cpu_ref": relative(samples, "cpu_s"),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples
                                         if s["mode"] == "run" and "peak_rss_mb" in s),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def per_layer(samples: list[dict]) -> tuple[dict, list[str]]:
    """Medians of the traced timings; counts must repeat exactly."""
    traced = [s["layers"] for s in samples if s["mode"] == "trace" and "layers" in s]
    untraced = [s["wall_s"] for s in samples if s["mode"] == "run" and "wall_s" in s]
    traced_wall = [s["wall_s"] for s in samples if s["mode"] == "trace" and "wall_s" in s]
    counts = [{k: v for k, v in t.items() if not is_timing(k)} for t in traced]
    problems = ["per-layer counts differ between traced samples"
                for c in counts[1:] if c != counts[0]]
    values = {}
    for name in PER_LAYER:
        if name == "trace.overhead_ratio":
            values[name] = statistics.median(traced_wall) / statistics.median(untraced)
        elif is_timing(name):
            values[name] = statistics.median(t[name] for t in traced)
        else:
            values[name] = traced[0][name]
    metrics = {name: {"value": values[name], "unit": layer_unit(name)} for name in PER_LAYER}
    return metrics, problems


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def failures(cli_samples: list[dict], expected: dict) -> int:
    """Number of failed samples; prints why each one failed."""
    first_report = next((s["stdout"] for s in cli_samples if "error" not in s), None)
    failed = 0
    for i, s in enumerate(cli_samples):
        problems = sample_problems(s, expected, first_report)
        if problems:
            failed += 1
            print(f"sample {i} ({s['mode']}) failed: {'; '.join(problems)}")
    return failed


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        command = make_inputs(args.workload, args.seed)
    except (OSError, KeyError, ValueError) as exc:
        print(f"error: cannot build the inputs: {exc}", file=sys.stderr)
        return 2
    check = launch("check", command)
    if "error" in check or check["child_exit"] != 0:
        print(f"error: inputs do not load or fail nplectic-check: "
              f"{check.get('error', check['child_exit'])}", file=sys.stderr)
        return 2
    expected = read_json(HERE / "expected.json")[args.workload]

    samples = run_samples(command, args.seconds, bool(args.trace))
    cli_samples = [s for s in samples if s["mode"] in ("run", "trace")]
    failed = failures(cli_samples, expected)
    broken = [s["error"] for s in samples
              if "error" in s and s["mode"] in ("setup", "reference")]
    measured = {s["mode"] for s in cli_samples if "wall_s" in s}
    if broken or measured != ({"run", "trace"} if args.trace else {"run"}):
        print(f"error: no usable measurements: {broken[:1]}", file=sys.stderr)
        return 1
    if args.trace:
        metrics, problems = per_layer(samples)
        for p in problems:
            print(p)
        failed += len(problems)
    else:
        metrics = end_to_end(samples)
    attempted = len(cli_samples)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "argv": command, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "git_revision": git_revision(),
        "samples": attempted,
        "setup_samples": sum(1 for s in samples if "setup_s" in s),
        "error_rate": failed / attempted, **raw_medians(samples),
    }
    print("record " + json.dumps(record, sort_keys=True))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
