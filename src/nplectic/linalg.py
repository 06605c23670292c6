"""Exact linear algebra over Q, on integer rows.

One elimination kernel does all the work: `Echelon`, a row echelon basis
of a span, held sparsely.  A row is primitive (its ints share no factor)
with a positive entry at its pivot, its lowest column, and is kept as
(pivot entry, {column: int} for the rest).  Vectors come in as sparse int
rows, as the engine hands them over: a rational vector is its numerators
over one denominator, and a span does not see the denominator, so no
Fraction is made.  A step is fraction-free, w <- a w - b row for the
pivot entry a, after dividing a and b by their gcd (Bareiss, Math. Comp.
22, 1968).

`Echelon.add` stores what is left of a vector as a new row and never
rewrites a stored row.  `Echelon.reduce` clears pivots in ascending column
order (a row reaches only columns above its pivot).  Its residue is the
one vector that differs from the input by a span element and is zero on
every pivot, so it depends only on the span.  `rref` back-substitutes
once, at the end, so that `null_space` and `solve` read their answers off
rows zero on every other pivot, FLINT's `fmpz_mat_rref` form, and return
them as int numerators over one denominator too.  `solve` takes the rows
of [A | b], its right side b in the last column.  `restricted_span` keeps
the rows of one echelon basis that pivot on a column >= 0: the part of a
span that is zero on every negative column, read off the same elimination
(Zassenhaus).  Columns stay integers (the engine maps slice labels to
them, negative ones included).  `rank_dense` is a plain dense Gauss-Jordan
loop over Fraction rows that shares no code with the kernel: the oracle
the tests check it against.
"""

from __future__ import annotations

from bisect import insort
from fractions import Fraction
from math import gcd, lcm

from .scalars import lowest_terms

Vector = dict[int, int]  # sparse: column -> nonzero int numerator


def _clear(rows: dict[int, tuple], w: Vector) -> int:
    """Clear w on every pivot of rows, lowest first, in place.

    Returns s > 0 with w / s = (the w given) - (a span element): the steps
    scale w by the pivot entries they divide by.
    """
    s = 1
    todo = [-c for c in w if c in rows]  # sorted, pop() gives the lowest column
    todo.sort()
    while todo:
        p = -todo.pop()
        b = w.pop(p, 0)
        if not b:
            continue  # cancelled by an earlier step
        a, rest = rows[p]
        if a != 1:
            g = gcd(a, b)
            a, b = a // g, b // g
            if a != 1:
                s *= a
                for c in w:
                    w[c] *= a
        for c, x in rest.items():
            y = w.get(c)
            if y is None:
                w[c] = -b * x
                if c in rows:
                    insort(todo, -c)
            else:
                y -= b * x
                if y:
                    w[c] = y
                else:
                    del w[c]
    return s


def _primitive(a: int, rest: Vector) -> tuple:
    """The row (a, rest) divided by its content, with a positive pivot entry."""
    g = gcd(a, *rest.values())
    if a < 0:
        g = -g
    if g == 1:
        return a, rest
    return a // g, {c: x // g for c, x in rest.items()}


def _insert(rows: dict[int, tuple], vec: dict) -> bool:
    """Eliminate vec and store what is left as a new row; False if nothing is left."""
    w = {c: a for c, a in vec.items() if a}
    _clear(rows, w)
    if not w:
        return False
    p = min(w)
    rows[p] = _primitive(w.pop(p), w)
    return True


class Echelon:
    """Growing row echelon basis of a subspace.

    `reduce` gives the residue of a vector modulo the span, a canonical
    representative of its coset; `add` enlarges the span.
    """

    def __init__(self):
        self.rows: dict[int, tuple] = {}  # pivot column -> (pivot entry, rest of the row)

    def reduce(self, vec: dict, den: int = 1) -> tuple[Vector, int]:
        """The residue of vec / den, for an int vector vec, as (int
        numerators, denominator) in lowest terms."""
        w = {c: a for c, a in vec.items() if a}
        return lowest_terms(w, den * _clear(self.rows, w))

    def add(self, vec: dict) -> bool:
        """Insert the residue of an int vector; returns True if it enlarged the span."""
        return _insert(self.rows, vec)

    @property
    def rank(self) -> int:
        return len(self.rows)


def _echelon(rows: list[dict]) -> Echelon:
    """The row echelon basis of the span of sparse int rows."""
    ech = Echelon()
    for row in rows:
        _insert(ech.rows, row)
    return ech


def rref(rows: list[dict]) -> Echelon:
    """The reduced row echelon basis of the span of sparse int rows: each row
    zero on every other pivot.  The rows of the echelon basis are cleared
    from the highest pivot down, each against the rows already reduced."""
    ech = _echelon(rows)
    reduced: dict[int, tuple] = {}
    for p in sorted(ech.rows, reverse=True):
        a, rest = ech.rows[p]
        rest = dict(rest)
        reduced[p] = _primitive(a * _clear(reduced, rest), rest)
    ech.rows = reduced
    return ech


def restricted_span(rows: list[dict]) -> Echelon:
    """The echelon basis of the vectors in the span of sparse int rows that
    are zero on every negative column.

    A pivot is a row's lowest column, so the negative columns are cleared
    first, and the rows whose pivot is not negative span exactly that part
    (Zassenhaus): for rows [a_i | b_i], the a_i on the negative columns, it
    is {sum y_i b_i : sum y_i a_i = 0}, of rank rank [A | B] - rank A.
    """
    ech = _echelon(rows)
    ech.rows = {p: row for p, row in ech.rows.items() if p >= 0}
    return ech


def rank_fraction_free(rows: list[dict]) -> int:
    """Rank of the span of sparse int rows."""
    return _echelon(rows).rank


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


def _over_lcm(entries) -> tuple[Vector, int]:
    """The vector with x / a at column c for each (c, a, x), as (int
    numerators, denominator) in lowest terms."""
    den = lcm(*[a for _, a, _ in entries])
    return lowest_terms({c: x * (den // a) for c, a, x in entries}, den)


def solve(rows: list[dict], cols: int) -> tuple[Vector, int] | None:
    """One exact solution x of A x = b (free variables 0), or None.

    rows are the rows of [A | b]: A in columns 0..cols-1, b in column
    cols.  x comes as (int numerators, denominator) in lowest terms.
    """
    ech = rref(rows)
    if cols in ech.rows:
        return None  # a pivot in the last column: inconsistent
    return _over_lcm([(p, a, rest[cols]) for p, (a, rest) in ech.rows.items() if cols in rest])


def null_space(rows: list[dict], cols: int) -> list[tuple[Vector, int]]:
    """Basis of the kernel, as (int numerators, denominator) in lowest
    terms: for each free column fc in ascending order, the vector with 1 at
    fc, 0 at every other free column."""
    ech = rref(rows)
    entries = {fc: [(fc, 1, 1)] for fc in range(cols) if fc not in ech.rows}
    for p, (a, rest) in ech.rows.items():
        for fc, x in rest.items():  # rows are zero on every other pivot
            entries[fc].append((p, a, -x))
    return [_over_lcm(column) for column in entries.values()]
