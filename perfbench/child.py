"""One benchmark sample, run in a fresh interpreter.

    python3 perfbench/child.py LAUNCH_STAMP MODE -- NPLECTIC_ARGV...

MODE is ``run`` (time ``nplectic.cli.main``), ``trace`` (the same with the
per-layer tracer installed), ``setup`` (stop after set-up) or ``check``
(``nplectic-check`` every structure input, then stop).  LAUNCH_STAMP is
the parent's ``time.monotonic()`` just before it started this process, so
set-up time covers interpreter start, ``import nplectic`` and loading and
validating the inputs.  The CLI report goes to stdout untouched; the
sample's measurements are the last line of stderr, as JSON.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def load_inputs(argv: list[str]) -> list[str]:
    """Parse and validate every JSON input the command names.

    Returns the structure files.  ``structure_from_json`` runs the
    closedness check; a momentum candidate is loaded against its structure.
    """
    from nplectic.engine import structure_from_json
    from nplectic.models import momentum_from_json

    files = [a for a in argv[1:] if a.endswith(".json")]
    datas = [json.loads(Path(f).read_text()) for f in files]
    structure = structure_from_json(datas[0])
    for data in datas[1:]:
        momentum_from_json(structure, data)
    return files[:1]


def main(argv: list[str]) -> int:
    launched = float(argv[0])
    mode = argv[1]
    if argv[2] != "--":
        raise SystemExit("usage: child.py LAUNCH_STAMP MODE -- ARGV...")
    command = argv[3:]
    import nplectic.cli

    structures = load_inputs(command)
    setup_s = time.monotonic() - launched
    out = {"setup_s": setup_s}
    if mode == "check":
        for path in structures:
            code = nplectic.cli.main(["nplectic-check", path])
            if code != 0:
                print(f"{path}: nplectic-check exited {code}", file=sys.stderr)
                return 2
    elif mode in ("run", "trace"):
        tracer = None
        if mode == "trace":
            from tracer import Tracer
            tracer = Tracer()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            code = nplectic.cli.main(command)
        finally:
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            if tracer is not None:
                tracer.restore()
        sys.stdout.flush()
        out.update(exit_code=code, wall_s=wall, cpu_s=cpu)
        if tracer is not None:
            out["layers"] = tracer.metrics()
    elif mode != "setup":
        raise SystemExit(f"unknown mode {mode!r}")
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out), file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
