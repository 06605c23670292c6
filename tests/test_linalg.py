import math
import random
from fractions import Fraction

import pytest

from nplectic import linalg
from nplectic.linalg import (
    Echelon,
    null_space,
    rank_dense,
    rank_fraction_free,
    restricted_span,
    rref,
    solve,
)


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


def int_rows(mat):
    """The kernel's input form: each Fraction row, of A or of [A | b], as a
    sparse int row, the row times the lcm of its denominators.  Scaling a
    row by a nonzero factor changes no rank, null space or solution."""
    out = []
    for row in mat:
        scale = math.lcm(*(a.denominator for a in row))
        out.append({j: int(a * scale) for j, a in enumerate(row) if a})
    return out


def augmented(mat, rhs):
    """The rows of [mat | rhs], for a dense rhs."""
    return [row + [b] for row, b in zip(mat, rhs)]


def dense(rows, cols):
    return [[row.get(j, Fraction(0)) for j in range(cols)] for row in rows]


def apply(mat, vec):
    """mat (dense) times vec (sparse)."""
    return [sum((row[j] * a for j, a in vec.items()), Fraction(0)) for row in mat]


def as_fractions(nums, den):
    return {c: Fraction(a, den) for c, a in nums.items()}


def rational(vec):
    """An answer of null_space or solve, nonzero int numerators over one
    denominator in lowest terms, as a sparse vector of Fractions."""
    nums, den = vec
    assert type(den) is int and den > 0 and math.gcd(den, *nums.values()) == 1
    assert all(type(a) is int and a for a in nums.values())
    return as_fractions(nums, den)


def test_rref_small():
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    ech = rref(int_rows(m))
    pivots = sorted(ech.rows)
    assert pivots == [0]
    assert ech.rows[0] == (1, {1: 2})  # the row [1, 2]: its pivot entry, then the rest
    assert ech.rank == 1  # the second row reduced to zero


def test_rank_paths_agree():
    rng = random.Random(17)
    for _ in range(120):
        rows, cols = rng.randint(0, 5), rng.randint(1, 5)
        m = rand_matrix(rng, rows, cols)
        assert rank_dense(m) == rank_fraction_free(int_rows(m))


def test_rank_with_forced_rank():
    rng = random.Random(4)
    for _ in range(60):
        rows, cols = rng.randint(2, 5), rng.randint(2, 5)
        r = rng.randint(0, min(rows, cols))
        m = rand_matrix(rng, rows, cols, rank=r)
        assert rank_fraction_free(int_rows(m)) <= r
        assert rank_dense(m) == rank_fraction_free(int_rows(m))


def test_solve_and_nullspace():
    rng = random.Random(29)
    for _ in range(80):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, rows, cols)
        x0 = [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
        rhs = [sum(row[j] * x0[j] for j in range(cols)) for row in m]
        x = solve(int_rows(augmented(m, rhs)), cols)
        assert x is not None
        assert apply(m, rational(x)) == rhs
        for vec in null_space(int_rows(m), cols):
            assert all(v == 0 for v in apply(m, rational(vec)))
        assert len(null_space(int_rows(m), cols)) == cols - rank_dense(m)


def test_solve_detects_inconsistency():
    m = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
    assert solve(int_rows(augmented(m, [Fraction(0), Fraction(1)])), 2) is None


def test_nullspace_of_empty_matrix():
    basis = null_space([], cols=3)
    assert len(basis) == 3
    assert basis == [({0: 1}, 1), ({1: 1}, 1), ({2: 1}, 1)]


def test_echelon_reduction_is_canonical():
    rng = random.Random(8)
    for _ in range(40):
        dim = rng.randint(1, 6)
        ech = Echelon()
        vecs = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(rng.randint(0, 4))]
        for v in vecs:
            ech.add(sparse(v))
        for v in vecs:
            assert ech.reduce(sparse(v)) == ({}, 1)
        # reduction is idempotent and kills span members
        w = [rng.randint(-3, 3) for _ in range(dim)]
        red = ech.reduce(sparse(w))
        assert ech.reduce(*red) == red
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
        assert rank_fraction_free(int_rows(m)) == rank_dense(m)
        if rank is not None:
            assert rank_dense(m) <= rank
    assert rank_fraction_free([]) == rank_dense([]) == 0
    zero = [[Fraction(0)] * 4] * 3
    assert rank_fraction_free(int_rows(zero)) == rank_dense(zero) == 0
    # explicit zero entries are dropped on the way in
    assert rank_fraction_free([{0: 0, 3: 0}] * 3) == 0
    ech = Echelon()
    assert not ech.add({0: 0, 3: 0}) and ech.reduce({1: 0, 2: 0}) == ({}, 1)


def test_sparse_null_spaces_are_annihilated_and_complete():
    rng = random.Random(43)
    for _ in range(100):
        rows, cols = rng.randint(1, 10), rng.randint(1, 10)
        m = sparse_matrix(rng, rows, cols, rng.choice((None, rng.randint(0, min(rows, cols)))))
        basis = [rational(vec) for vec in null_space(int_rows(m), cols)]
        assert len(basis) == cols - rank_dense(m)
        for vec in basis:
            assert all(v == 0 for v in apply(m, vec))
        # independent: the basis has full rank
        assert rank_dense(dense(basis, cols)) == len(basis) if basis else True
        # the basis the reports depend on: one vector per free column, in
        # ascending order, with 1 there and 0 at every other free column
        free = [c for c in range(cols) if c not in rref(int_rows(m)).rows]
        assert len(free) == len(basis)
        for fc, vec in zip(free, basis):
            assert [vec.get(c, 0) for c in free] == [int(c == fc) for c in free]


def test_echelon_residues_depend_only_on_the_span():
    rng = random.Random(47)
    for _ in range(60):
        dim = rng.randint(1, 10)
        vecs = int_rows(sparse_matrix(rng, rng.randint(0, 8), dim))
        probes = int_rows(sparse_matrix(rng, 5, dim))
        residues = []
        for _ in range(3):
            order = vecs[:]
            rng.shuffle(order)
            ech = Echelon()
            for v in order:
                ech.add(v)
            assert ech.rank == rank_dense(dense(vecs, dim))
            residues.append([ech.reduce(p) for p in probes])
        assert residues[0] == residues[1] == residues[2]


@pytest.mark.parametrize("make", [rand_matrix, sparse_matrix], ids=["dense", "sparse"])
def test_restricted_span_is_the_part_of_the_span_zero_on_a(make):
    # rows [a_i | b_i], a_i on the negative columns: the part of their span
    # zero on them, {sum y_i b_i : sum y_i a_i = 0}, has rank
    # rank [A | B] - rank A; its rows lie in the span, and a residue is zero
    # on its pivots and differs from the probe by an element of the part
    rng = random.Random(59)
    reached = 0
    for _ in range(80):
        rows, ca, cb = rng.randint(0, 7), rng.randint(0, 4), rng.randint(1, 5)
        m = make(rng, rows, ca + cb, rank=rng.randint(0, min(rows, ca + cb)))
        ech = restricted_span([{j - ca: x for j, x in row.items()} for row in int_rows(m)])
        assert ech.rank == rank_dense(m) - rank_dense([row[:ca] for row in m])
        reached += ech.rank
        assert all(0 <= p < min(rest, default=cb) for p, (_, rest) in ech.rows.items())
        part = [[Fraction(0)] * ca + row
                for row in dense([{p: a, **rest} for p, (a, rest) in ech.rows.items()], cb)]
        assert rank_dense(m + part) == rank_dense(m)
        for probe in int_rows(sparse_matrix(rng, 3, cb)):
            residue, den = ech.reduce(probe)
            assert not residue.keys() & ech.rows.keys()
            moved = [Fraction(0)] * ca + [probe.get(c, 0) - Fraction(residue.get(c, 0), den)
                                          for c in range(cb)]
            assert rank_dense(part + [moved]) == ech.rank
    assert reached


def test_the_dense_oracle_does_not_use_the_kernel(monkeypatch):
    def broken(*args, **kwargs):
        raise AssertionError("the sparse kernel was called")

    for name in ("_clear", "_insert", "_primitive"):
        monkeypatch.setattr(linalg, name, broken)
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)], [Fraction(0), Fraction(3)]]
    assert rank_dense(m) == 2
    with pytest.raises(AssertionError, match="sparse kernel"):
        rank_fraction_free(int_rows(m))


def test_the_kernel_never_densifies():
    # a dense row of 10**9 + 2 cells would not fit in memory
    assert rank_fraction_free([{10**9: 1}, {0: 2, 10**9: 1}]) == 2
    assert solve([{0: 1, 10**9: 1, 10**9 + 1: 3}], 10**9 + 1) == ({0: 3}, 1)


# ---------------------------------------------------------------------------
# integer rows against a dense Fraction reference
# ---------------------------------------------------------------------------

def wide_matrix(rng, rows, cols, rank=None):
    """Sparse rows with entries p/q, q up to 10**6 and |p| up to 10**12;
    optionally of bounded rank, by combining a few such rows."""
    def entry():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**12), rng.randint(1, 10**6))

    def row():
        out = [Fraction(0)] * cols
        for j in rng.sample(range(cols), min(cols, rng.randint(0, 3))):
            out[j] = entry()
        return out
    if rank is None:
        return [row() for _ in range(rows)]
    basis = [row() for _ in range(rank)]
    out = []
    for _ in range(rows):
        picks = rng.sample(basis, rng.randint(0, min(2, rank)))
        coeffs = [entry() for _ in picks]
        out.append([sum((c * b[j] for c, b in zip(coeffs, picks)), Fraction(0))
                    for j in range(cols)])
    return out


def dense_rref(mat, cols):
    """Reduced row echelon form over Fraction, pivots 1: {pivot: dense row}.
    Shares no code with the kernel."""
    m = [list(row) for row in mat]
    out = {}
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    for row in m[:r]:
        out[next(c for c, v in enumerate(row) if v)] = row
    return out


def dense_residue(basis, vec, cols):
    """vec minus its span part against a reduced basis, as a dense row."""
    v = [vec.get(c, Fraction(0)) for c in range(cols)]
    for p, row in basis.items():
        f = v[p]
        if f:
            v = [a - f * b for a, b in zip(v, row)]
    return v


@pytest.mark.parametrize("seed", range(6))
def test_integer_kernel_matches_the_dense_fraction_reference(seed):
    rng = random.Random(1000 + seed)
    for _ in range(25):
        rows, cols = rng.randint(0, 9), rng.randint(1, 9)
        m = wide_matrix(rng, rows, cols, rng.choice((None, rng.randint(0, min(rows, cols)))))
        basis = dense_rref(m, cols)
        assert rank_fraction_free(int_rows(m)) == rank_dense(m) == len(basis)
        ech = Echelon()
        for row in int_rows(m):
            ech.add(row)
        assert ech.rank == len(basis) and sorted(ech.rows) == sorted(basis)
        for probe in int_rows(wide_matrix(rng, 4, cols)):
            nums, den = ech.reduce(probe)
            assert den > 0 and math.gcd(den, *nums.values()) == 1
            assert as_fractions(nums, den) == sparse(dense_residue(basis, probe, cols))
        # the null-space basis and the solve answer of the reduced form
        free = [c for c in range(cols) if c not in basis]
        expected = []
        for fc in free:
            vec = {fc: Fraction(1)}
            for p, row in basis.items():
                if row[fc]:
                    vec[p] = -row[fc]
            expected.append(vec)
        assert [rational(vec) for vec in null_space(int_rows(m), cols)] == expected
        x0 = {c: Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3)) for c in range(cols)}
        rhs = apply(m, x0)
        aug = dense_rref(augmented(m, rhs), cols + 1)
        x = rational(solve(int_rows(augmented(m, rhs)), cols))
        assert x == {p: row[cols] for p, row in aug.items() if row[cols]}


def test_echelon_add_never_rewrites_a_stored_row():
    rng = random.Random(53)
    for _ in range(40):
        cols = rng.randint(1, 10)
        ech = Echelon()
        for row in int_rows(wide_matrix(rng, rng.randint(1, 12), cols)):
            before = {p: (a, rest, dict(rest)) for p, (a, rest) in ech.rows.items()}
            ech.add(row)
            for p, (a, rest, copy) in before.items():
                assert ech.rows[p][0] == a and ech.rows[p][1] is rest and rest == copy
        for a, rest in ech.rows.values():
            assert a > 0 and math.gcd(a, *rest.values()) == 1
            assert all(type(x) is int and x for x in rest.values())
