"""Exact linear algebra over Q.

One elimination kernel does all the work: `Echelon`, the reduced row
echelon basis of a span, held sparsely.  Each row is a dict
{column: Fraction} whose pivot is its lowest column, with coefficient 1
and zero in every other row.  The reduced echelon form of a span is
unique, so ranks, null-space bases, `solve` answers and residues depend
only on the span, never on the order the vectors came in.

`rank_fraction_free`, `rref`, `null_space` and `solve` take dense matrices
(lists of Fraction rows) and are thin wrappers over the kernel.
`rank_dense` is a plain dense Gauss-Jordan loop that shares no code with
it; it is the independent oracle the tests check the kernel against.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]
Vector = dict[int, Fraction]  # sparse: column -> nonzero entry


def _axpy(v: Vector, f: Fraction, row: Vector) -> None:
    """v += f * row in place, dropping entries that cancel."""
    for c, a in row.items():
        x = v.get(c, 0) + f * a
        if x:
            v[c] = x
        else:
            del v[c]


def _residue(rows: dict[int, Vector], v: Vector) -> Vector:
    """v minus its span part, in place; rows maps pivot -> row without its pivot."""
    # rows are zero on every other pivot, so only v's own pivots need clearing
    for p in [c for c in v if c in rows]:
        _axpy(v, -v.pop(p), rows[p])
    return v


def _insert(rows: dict[int, Vector], v: Vector) -> bool:
    """Add a residue (zero on every pivot) as a new row; False if it is zero."""
    if not v:
        return False
    p = min(v)
    inv = 1 / v.pop(p)
    new = {c: a * inv for c, a in v.items()}
    for row in rows.values():
        if p in row:
            _axpy(row, -row.pop(p), new)
    rows[p] = new
    return True


class Echelon:
    """Growing reduced echelon basis of a subspace of Q^dim.

    Vectors are sparse dicts {column: Fraction}.  `reduce` gives the
    residue modulo the span, a canonical representative of the coset;
    `add` enlarges the span.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.rows: dict[int, Vector] = {}  # pivot column -> row without its pivot

    @classmethod
    def of_rows(cls, mat: Matrix) -> "Echelon":
        """The row space of a dense matrix."""
        ech = cls(len(mat[0]) if mat else 0)
        for row in mat:
            _insert(ech.rows, _residue(ech.rows, {c: a for c, a in enumerate(row) if a}))
        return ech

    def reduce(self, vec: Vector) -> Vector:
        return _residue(self.rows, {c: a for c, a in vec.items() if a})

    def add(self, vec: Vector) -> bool:
        """Insert vec's residue; returns True if it enlarged the span."""
        return _insert(self.rows, self.reduce(vec))

    def contains(self, vec: Vector) -> bool:
        return not self.reduce(vec)

    @property
    def pivots(self) -> list[int]:
        return sorted(self.rows)

    @property
    def rank(self) -> int:
        return len(self.rows)


def rref(mat: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form (zero rows last) and pivot column indices."""
    ech = Echelon.of_rows(mat)
    pivots = ech.pivots
    red = []
    for p in pivots:
        dense = [Fraction(0)] * ech.dim
        dense[p] = Fraction(1)
        for c, a in ech.rows[p].items():
            dense[c] = a
        red.append(dense)
    red += [[Fraction(0)] * ech.dim for _ in range(len(mat) - len(pivots))]
    return red, pivots


def rank_fraction_free(mat: Matrix) -> int:
    """Rank of a dense matrix, by the sparse kernel."""
    return Echelon.of_rows(mat).rank


def rank_dense(mat: Matrix) -> int:
    """Rank by plain dense Gauss-Jordan over Fraction: the test oracle."""
    m = [list(row) for row in mat]
    cols = len(m[0]) if m else 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def solve(mat: Matrix, rhs: list[Fraction]) -> list[Fraction] | None:
    """One exact solution of mat * x = rhs (free variables 0), or None."""
    if not mat:
        return [] if not any(rhs) else None
    cols = len(mat[0])
    aug = [list(row) + [b] for row, b in zip(mat, rhs)]
    red, pivots = rref(aug)
    if cols in pivots:
        return None  # a pivot in the augmented column: inconsistent
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return x


def null_space(mat: Matrix, cols: int | None = None) -> list[list[Fraction]]:
    """Basis of the kernel, one vector per free column, deterministic order."""
    if not mat:
        assert cols is not None, "need the column count for an empty matrix"
        zero, one = Fraction(0), Fraction(1)
        return [[one if j == i else zero for j in range(cols)] for i in range(cols)]
    cols = len(mat[0])
    red, pivots = rref(mat)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * cols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return basis
