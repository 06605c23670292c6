"""The package's public surface: every exported name exists and is public."""

import nplectic


def test_every_exported_name_resolves_and_is_public():
    assert len(set(nplectic.__all__)) == len(nplectic.__all__)
    for name in nplectic.__all__:
        assert not name.startswith("_"), name
        assert hasattr(nplectic, name), name

