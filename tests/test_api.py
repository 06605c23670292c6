"""The package's public surface: every exported name exists and is public,
every name the benchmark tracer wraps can still be found, and only
`scalars` reads the storage of a `Poly`."""

import importlib.util
import re
from pathlib import Path

import nplectic

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


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


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for table in (tracer.COUNTED, tracer.TIMED):
        for metric, (module_name, qualnames) in table.items():
            for qualname in qualnames:
                _, _, original = tracer._resolve(module_name, qualname)
                assert callable(original), (metric, qualname)
