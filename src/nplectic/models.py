"""Builders for the structures shipped with the package.

Each builder has a JSON twin under models/ at the repository root; the
tests assert that loading the file reproduces the builder exactly, so
the files can be trusted as CLI examples.
"""

from __future__ import annotations

from .elements import Cotensor, Tensor
from .engine import NPlecticStructure
from .pairs import ConstantPair, PolyVectorFieldPair, pair_from_json


def su2_pair() -> ConstantPair:
    """Three generators with the cyclic bracket table of the rotation algebra."""
    return ConstantPair.from_brackets(
        3, {(1, 2): {3: 1}, (2, 3): {1: 1}, (3, 1): {2: 1}})


def heisenberg_pair() -> ConstantPair:
    return ConstantPair.from_brackets(3, {(1, 2): {3: 1}})


def symplectic_plane() -> NPlecticStructure:
    """Two polynomial variables with the area form; 1-plectic and nondegenerate."""
    pair = PolyVectorFieldPair(2)
    return NPlecticStructure(pair, 1, Cotensor(pair, {(1, 2): 1}))


def su2_cartan() -> NPlecticStructure:
    """The volume word on the rotation algebra; 2-plectic, trivially closed."""
    pair = su2_pair()
    return NPlecticStructure(pair, 2, Cotensor(pair, {(1, 2, 3): 1}))


def degenerate_plane() -> NPlecticStructure:
    """The area form in three variables; the third direction spans the kernel."""
    pair = PolyVectorFieldPair(3)
    return NPlecticStructure(pair, 1, Cotensor(pair, {(1, 2): 1}))


def rotation_momentum():
    """The angular field on the plane with its radial potential, as a
    momentum-map candidate for the one-dimensional abelian algebra."""
    pair = PolyVectorFieldPair(2)
    algebra = ConstantPair(1, ())
    fields = [Tensor(pair, {(2,): "x", (1,): "-y"})]
    potentials = [Cotensor(pair, {(): "-1/2*x^2 - 1/2*y^2"})]
    return algebra, fields, potentials


def momentum_from_json(structure: NPlecticStructure, data: dict):
    algebra = pair_from_json(data["algebra"])
    if not isinstance(algebra, ConstantPair):
        raise ValueError("the acting algebra must be a constant pair")
    fields = [Tensor.from_json(structure.pair, x) for x in data["fields"]]
    potentials = [Cotensor.from_json(structure.pair, f) for f in data["potentials"]]
    return algebra, fields, potentials
