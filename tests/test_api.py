"""The package's public surface: every exported name exists and is public,
and every name the benchmark tracer wraps can still be found."""

import importlib.util
from pathlib import Path

import nplectic

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_exported_name_resolves_and_is_public():
    assert len(set(nplectic.__all__)) == len(nplectic.__all__)
    for name in nplectic.__all__:
        assert not name.startswith("_"), name
        assert hasattr(nplectic, name), name



def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for table in (tracer.COUNTED, tracer.TIMED):
        for metric, (module_name, qualnames) in table.items():
            for qualname in qualnames:
                _, _, original = tracer._resolve(module_name, qualname)
                assert callable(original), (metric, qualname)
