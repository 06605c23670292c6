"""The shipped structures are valid and match their JSON files."""

import json
from pathlib import Path

import pytest

from nplectic.engine import structure_from_json
from nplectic.linf import check_momentum_map
from nplectic.models import (
    degenerate_plane,
    heisenberg_pair,
    momentum_from_json,
    rotation_momentum,
    su2_cartan,
    su2_pair,
    symplectic_plane,
)
from nplectic.pairs import pair_from_json, pair_to_json, validate_pair

MODELS = Path(__file__).resolve().parents[1] / "models"


def load(name):
    return json.loads((MODELS / name).read_text())


@pytest.mark.parametrize("builder", [su2_pair, heisenberg_pair])
def test_constant_pairs_satisfy_the_axioms(builder):
    assert validate_pair(builder(), samples=10).ok


@pytest.mark.parametrize(
    ("name", "builder"),
    [
        ("symplectic_plane.json", symplectic_plane),
        ("su2_cartan.json", su2_cartan),
        ("degenerate_plane.json", degenerate_plane),
    ],
)
def test_structure_files_reproduce_the_builders(name, builder):
    assert structure_from_json(load(name)) == builder()


def test_heisenberg_file_reproduces_the_builder():
    assert pair_from_json(load("heisenberg_pair.json")) == heisenberg_pair()


def test_rotation_momentum_is_certified():
    s = symplectic_plane()
    algebra, fields, potentials = rotation_momentum()
    ok, details = check_momentum_map(s, algebra, fields, potentials)
    assert ok, details


def test_rotation_momentum_file_roundtrip():
    s = symplectic_plane()
    algebra, fields, potentials = rotation_momentum()
    data = {"algebra": pair_to_json(algebra),
            "fields": [x.to_json() for x in fields],
            "potentials": [f.to_json() for f in potentials]}
    assert data == load("rotation_momentum.json")
    back = momentum_from_json(s, data)
    assert back[0] == algebra
    assert back[1] == fields
    assert back[2] == potentials


def test_momentum_loader_rejects_polynomial_algebras():
    s = symplectic_plane()
    data = load("rotation_momentum.json")
    data["algebra"] = {"family": "poly", "vars": 1}
    with pytest.raises(ValueError, match="constant pair"):
        momentum_from_json(s, data)
