"""Exact linear algebra over Q.

One elimination kernel does all the work: `Echelon`, the reduced row
echelon basis of a span, held sparsely.  Each row is a dict
{column: Fraction} whose pivot is its lowest column, with coefficient 1
and zero in every other row.  The reduced echelon form of a span is
unique, so ranks, null-space bases, `solve` answers and residues depend
only on the span, never on the order the vectors came in.

Every vector and matrix row has this one sparse form, from the slice
matrices to the answers.  Columns stay integers (the engine maps slice
labels to them; integers hash faster than label tuples).  `rref` builds
the basis of a list of rows, and `rank_fraction_free`, `null_space` and
`solve` read their answers straight off it.  (`rank_fraction_free` keeps
its old name, under which the benchmark tracer finds it; nothing in it is
fraction-free.)  `rank_dense`
is a plain dense Gauss-Jordan loop over lists of Fraction rows that shares
no code with the kernel; it is the independent oracle the tests check the
kernel against.
"""

from __future__ import annotations

from fractions import Fraction

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
    """Growing reduced echelon basis of a subspace.

    `reduce` gives the residue of a vector modulo the span, a canonical
    representative of its coset; `add` enlarges the span.
    """

    def __init__(self):
        self.rows: dict[int, Vector] = {}  # pivot column -> row without its pivot

    def reduce(self, vec: Vector) -> Vector:
        return _residue(self.rows, {c: a for c, a in vec.items() if a})

    def add(self, vec: Vector) -> bool:
        """Insert vec's residue; returns True if it enlarged the span."""
        return _insert(self.rows, self.reduce(vec))

    @property
    def rank(self) -> int:
        return len(self.rows)


def rref(rows: list[Vector]) -> Echelon:
    """The reduced echelon basis of the span of sparse rows."""
    ech = Echelon()
    for row in rows:
        _insert(ech.rows, _residue(ech.rows, {c: a for c, a in row.items() if a}))
    return ech


def rank_fraction_free(rows: list[Vector]) -> int:
    """Rank of the span of sparse rows."""
    return rref(rows).rank


def rank_dense(mat: list[list[Fraction]]) -> int:
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


def solve(rows: list[Vector], rhs: Vector, cols: int) -> Vector | None:
    """One exact solution x of rows * x = rhs (free variables 0), or None.

    rows have their entries in columns 0..cols-1; rhs is keyed by row index.
    """
    ech = rref([{**row, cols: rhs.get(i, 0)} for i, row in enumerate(rows)])
    if cols in ech.rows:
        return None  # a pivot in the augmented column: inconsistent
    return {p: row[cols] for p, row in ech.rows.items() if cols in row}


def null_space(rows: list[Vector], cols: int) -> list[Vector]:
    """Basis of the kernel: for each free column fc in ascending order, the
    vector with 1 at fc, 0 at every other free column."""
    ech = rref(rows)
    basis = {fc: {fc: Fraction(1)} for fc in range(cols) if fc not in ech.rows}
    for p, row in ech.rows.items():
        for fc, a in row.items():  # rows are zero on every other pivot
            basis[fc][p] = -a
    return list(basis.values())
