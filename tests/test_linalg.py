import random
from fractions import Fraction

import pytest

from nplectic import linalg
from nplectic.linalg import Echelon, null_space, rank_dense, rank_fraction_free, rref, solve


def rand_matrix(rng, rows, cols, rank=None):
    if rank is None:
        return [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)]
                for _ in range(rows)]
    # build as a product of a rows x rank and a rank x cols matrix
    a = rand_matrix(rng, rows, rank)
    b = rand_matrix(rng, rank, cols)
    return [[sum(a[i][k] * b[k][j] for k in range(rank)) for j in range(cols)]
            for i in range(rows)]


def sparse_matrix(rng, rows, cols, rank=None):
    """About two nonzeros per row, like the slice matrices; optionally of
    bounded rank, by repeating combinations of a few sparse rows."""
    def row():
        out = [Fraction(0)] * cols
        for j in rng.sample(range(cols), min(cols, rng.randint(0, 3))):
            out[j] = Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 3))
        return out
    if rank is None:
        return [row() for _ in range(rows)]
    basis = [row() for _ in range(rank)]
    out = []
    for _ in range(rows):
        picks = rng.sample(basis, rng.randint(0, min(2, rank)))
        coeffs = [Fraction(rng.randint(1, 3)) for _ in picks]
        out.append([sum((c * b[j] for c, b in zip(coeffs, picks)), Fraction(0))
                    for j in range(cols)])
    return out


def sparse(vec):
    return {j: a for j, a in enumerate(vec) if a}


def test_rref_small():
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    red, pivots = rref(m)
    assert pivots == [0]
    assert red[0] == [Fraction(1), Fraction(2)]
    assert red[1] == [Fraction(0), Fraction(0)]


def test_rank_paths_agree():
    rng = random.Random(17)
    for _ in range(120):
        rows, cols = rng.randint(0, 5), rng.randint(1, 5)
        m = rand_matrix(rng, rows, cols)
        assert rank_dense(m) == rank_fraction_free(m)


def test_rank_with_forced_rank():
    rng = random.Random(4)
    for _ in range(60):
        rows, cols = rng.randint(2, 5), rng.randint(2, 5)
        r = rng.randint(0, min(rows, cols))
        m = rand_matrix(rng, rows, cols, rank=r)
        assert rank_fraction_free(m) <= r
        assert rank_dense(m) == rank_fraction_free(m)


def test_solve_and_nullspace():
    rng = random.Random(29)
    for _ in range(80):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, rows, cols)
        x0 = [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
        rhs = [sum(row[j] * x0[j] for j in range(cols)) for row in m]
        x = solve(m, rhs)
        assert x is not None
        assert [sum(row[j] * x[j] for j in range(cols)) for row in m] == rhs
        for vec in null_space(m):
            assert all(sum(row[j] * vec[j] for j in range(cols)) == 0 for row in m)
        assert len(null_space(m)) == cols - rank_dense(m)


def test_solve_detects_inconsistency():
    m = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert solve(m, [Fraction(0), Fraction(1)]) is None


def test_nullspace_of_empty_matrix():
    basis = null_space([], cols=3)
    assert len(basis) == 3


def test_echelon_reduction_is_canonical():
    rng = random.Random(8)
    for _ in range(40):
        dim = rng.randint(1, 6)
        ech = Echelon(dim)
        vecs = [[Fraction(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(rng.randint(0, 4))]
        for v in vecs:
            ech.add(sparse(v))
        for v in vecs:
            assert ech.contains(sparse(v))
        # reduction is idempotent and kills span members
        w = [Fraction(rng.randint(-3, 3)) for _ in range(dim)]
        red = ech.reduce(sparse(w))
        assert ech.reduce(red) == red
        combo = [a + b for a, b in zip(w, vecs[0])] if vecs else w
        assert ech.reduce(sparse(combo)) == red if vecs else True


# ---------------------------------------------------------------------------
# the sparse kernel against the dense oracle
# ---------------------------------------------------------------------------

def test_sparse_ranks_match_the_dense_oracle():
    rng = random.Random(41)
    for _ in range(150):
        rows, cols = rng.randint(0, 12), rng.randint(1, 12)
        rank = rng.choice((None, rng.randint(0, min(rows, cols))))
        m = sparse_matrix(rng, rows, cols, rank)
        assert rank_fraction_free(m) == rank_dense(m)
        if rank is not None:
            assert rank_dense(m) <= rank
    assert rank_fraction_free([]) == rank_dense([]) == 0
    assert rank_fraction_free([[Fraction(0)] * 4] * 3) == rank_dense([[Fraction(0)] * 4] * 3) == 0


def test_sparse_null_spaces_are_annihilated_and_complete():
    rng = random.Random(43)
    for _ in range(100):
        rows, cols = rng.randint(1, 10), rng.randint(1, 10)
        m = sparse_matrix(rng, rows, cols, rng.choice((None, rng.randint(0, min(rows, cols)))))
        basis = null_space(m)
        assert len(basis) == cols - rank_dense(m)
        for vec in basis:
            assert all(sum(row[j] * vec[j] for j in range(cols)) == 0 for row in m)
        # independent: the basis has full rank
        assert rank_dense(basis) == len(basis) if basis else True


def test_echelon_residues_depend_only_on_the_span():
    rng = random.Random(47)
    for _ in range(60):
        dim = rng.randint(1, 10)
        vecs = [sparse(row) for row in sparse_matrix(rng, rng.randint(0, 8), dim)]
        probes = [sparse(row) for row in sparse_matrix(rng, 5, dim)]
        residues = []
        for _ in range(3):
            order = vecs[:]
            rng.shuffle(order)
            ech = Echelon(dim)
            for v in order:
                ech.add(v)
            assert ech.rank == rank_dense([[v.get(j, Fraction(0)) for j in range(dim)]
                                           for v in vecs])
            residues.append([ech.reduce(p) for p in probes])
        assert residues[0] == residues[1] == residues[2]


def test_the_dense_oracle_does_not_use_the_kernel(monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("the sparse kernel was called")

    for name in ("_residue", "_insert", "_axpy"):
        monkeypatch.setattr(linalg, name, broken)
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)], [Fraction(0), Fraction(3)]]
    assert rank_dense(m) == 2
    with pytest.raises(AssertionError, match="sparse kernel"):
        rank_fraction_free(m)
