"""Pair isomorphisms as an oracle: numbers that depend only on the structure.

An invertible integer matrix A carries a pair to an isomorphic one and
its n-plectic form along.  A constant pair is transported along the new
basis e'_i = sum_j A_ij e_j: the structure constants go through A and
A^-1, and a form through the minors of A.  On Q[x1..x4] the coordinate
change x -> Ax leaves the pair as it is and pulls omega back through the
minors of A.  Every rank table must come out the same on both sides, and
the tensor Jacobi verdict must too.  The transported slice matrices are
denser than the original ones and share no elimination steps with them,
so the two sides are independent computations; a diagonal A would keep
every matrix's pattern and prove much less.
"""

import itertools
import json
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from nplectic.cohomology import ce_cohomology_table, extension_cohomology_table
from nplectic.elements import Cotensor, Tensor, ascending_words
from nplectic.engine import NPlecticStructure
from nplectic.linf import TensorLinf, check_linf
from nplectic.pairs import ConstantPair, PolyVectorFieldPair, pair_from_json

GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"
SU2 = {(1, 2): {3: 1}, (2, 3): {1: 1}, (3, 1): {2: 1}}
HEISENBERG = {(1, 2): {3: 1}}
POLY4 = PolyVectorFieldPair(4)


def det(m):
    """Determinant by expansion along the first row; m is at most 4 x 4 here."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * det([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)) if m[0][j])


def inverse(a):
    d = det(a)
    n = len(a)
    minor = [[det([row[:j] + row[j + 1:] for k, row in enumerate(a) if k != i])
              for j in range(n)] for i in range(n)]
    return [[Fraction((-1) ** (i + j) * minor[j][i], d) for j in range(n)] for i in range(n)]


def invertible(n):
    entries = st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n)
    return entries.map(lambda e: [e[i * n:(i + 1) * n] for i in range(n)]).filter(det)


def transport_form(form: dict, a) -> dict:
    """sum_W form[W] det(a[I, W]) per word I: the form on the basis sum_j a_Ij e_j."""
    n = len(a)
    out = {}
    for length in {len(w) for w in form}:
        for word in ascending_words(n, length):
            c = sum(v * det([[a[i - 1][j - 1] for j in w] for i in word])
                    for w, v in form.items())
            if c:
                out[word] = c
    return out


def transport_pair(pair: ConstantPair, a) -> ConstantPair:
    """The structure constants in the basis e'_i = sum_j a_ij e_j."""
    n, inv = pair.dim, inverse(a)
    c = {}
    for i, j, k, v in pair.brackets:
        c[i, j, k], c[j, i, k] = v, -v
    table = {}
    for i, j in itertools.combinations(range(1, n + 1), 2):
        image = [sum(a[i - 1][p - 1] * a[j - 1][q - 1] * v for (p, q, r), v in c.items()
                     if r == k) for k in range(1, n + 1)]
        table[i, j] = {m: sum(image[k] * inv[k][m - 1] for k in range(n))
                       for m in range(1, n + 1)}
    return ConstantPair.from_brackets(n, table)


def structure(pair, n, form):
    return NPlecticStructure(pair, n, Cotensor(pair, form))


def extension_rows(s, weights):
    return extension_cohomology_table(s, range(-1, s.n + 3), weights)


def tensor_jacobi(pair):
    """check_linf of the tensor brackets on the basis words of length 1-2, arity 3."""
    words = [w for length in (1, 2) for w in ascending_words(pair.ngens, length)]
    return check_linf(TensorLinf(pair), [Tensor(pair, {w: 1}) for w in words], 3)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(a=invertible(3))
def test_constant_pair_tables_are_basis_independent(a):
    for table, n, form in ((SU2, 2, {(1, 2, 3): 1}), (HEISENBERG, 1, {(1, 2): 1})):
        pair = ConstantPair.from_brackets(3, table)
        moved = transport_pair(pair, a)
        assert ce_cohomology_table(moved, range(4)) == ce_cohomology_table(pair, range(4))
        assert (extension_rows(structure(moved, n, transport_form(form, a)), [0])
                == extension_rows(structure(pair, n, form), [0]))


@settings(max_examples=8, deadline=None, derandomize=True)
@given(a=invertible(4))
def test_poly4_table_is_coordinate_independent(a):
    form = {(1, 2): 1, (3, 4): 1}
    # x -> Ax pulls dx_i back to sum_j a_ij dx_j: the minors of the transpose
    pulled = transport_form(form, [list(col) for col in zip(*a)])
    weights = range(3)
    assert (extension_rows(structure(POLY4, 1, pulled), weights)
            == extension_rows(structure(POLY4, 1, form), weights))


@settings(max_examples=8, deadline=None, derandomize=True)
@given(a=invertible(3))
def test_tensor_jacobi_verdict_is_basis_independent(a):
    su2 = ConstantPair.from_brackets(3, SU2)
    broken = pair_from_json(json.loads((GOLDEN_INPUTS / "broken_su2_pair.json").read_text()))
    ok, witness = tensor_jacobi(transport_pair(su2, a))
    assert ok, witness
    ok, witness = tensor_jacobi(transport_pair(broken, a))
    assert not ok and witness["arity"] == 3
