"""Exact linear algebra over the rationals.

Scalars cross the API as ``fractions.Fraction``; elimination runs on Python ints in one
loop, ``_eliminate``, with two callers: ``SubspaceBasis``, which scales the eliminated rows to
the reduced echelon rows as integers over one denominator, and ``kernel_basis``.  ``rref`` and
``solve`` read their answers off a ``SubspaceBasis``, and every ``Fraction`` view is built only
when it is read.  There is no floating point anywhere.  Matrices and subspace bases are
immutable once built, so safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

__all__ = [
    "Fraction",
    "Matrix",
    "SubspaceBasis",
    "RrefResult",
    "rref",
    "kernel_basis",
    "solve",
    "vec",
]

Vector = tuple[Fraction, ...]


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floating point is not allowed; use Fraction or int")
    return Fraction(x)


def vec(entries: Iterable) -> Vector:
    """Coerce an iterable of numbers to an exact coordinate vector."""
    return tuple(_frac(x) for x in entries)


class Matrix:
    """Immutable dense matrix of exact rationals; ``apply`` is its only arithmetic."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, entries: Sequence[Sequence]):
        rows = tuple(vec(row) for row in entries)
        if rows:
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise ValueError("ragged matrix")
        else:
            cols = 0
        self.rows = len(rows)
        self.cols = cols
        self._e = rows

    @classmethod
    def _from_rows(cls, rows: tuple[Vector, ...], cols: int) -> "Matrix":
        """Wrap rows already known to be equal-length tuples of Fractions or ints."""
        m = cls.__new__(cls)
        m.rows, m.cols, m._e = len(rows), cols, rows
        return m

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self._e[i][j]

    def entries(self) -> tuple[Vector, ...]:
        return self._e

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self._e == other._e

    def __hash__(self):
        return hash(self._e)

    def apply(self, v: Sequence) -> Vector:
        """Matrix-vector product."""
        v = vec(v)
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return tuple(sum(a * b for a, b in zip(r, v)) for r in self._e)

    def __repr__(self):
        body = "; ".join(" ".join(str(a) for a in r) for r in self._e)
        return f"Matrix[{self.rows}x{self.cols}: {body}]"


class RrefResult:
    __slots__ = ("reduced", "pivot_columns", "rank")

    def __init__(self, reduced: Matrix, pivot_columns: list[int]):
        self.reduced = reduced
        self.pivot_columns = pivot_columns
        self.rank = len(pivot_columns)


def _integral(row: Sequence) -> tuple[int, list[int]]:
    """(d, d * row), d the lcm of the row's denominators; entries other than int and
    Fraction go through ``vec``, so strings parse and floats raise TypeError."""
    if all(type(a) is int for a in row):
        return 1, list(row)
    try:
        d = lcm(*(a.denominator for a in row))
    except AttributeError:
        return _integral(vec(row))
    return d, [a.numerator * (d // a.denominator) for a in row]


def _eliminate(entries: Sequence[Sequence], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination of the rows scaled to integers: each step
    combines a row with the pivot row using cofactors reduced by their gcd and divides out
    the row's content, so entries stay small.  Returns the rows and the pivot columns: row
    r has its pivot at pivots[r], every other row is 0 there, rows past the rank are 0."""
    rows = [_integral(r)[1] for r in entries]
    if any(len(row) != ncols for row in rows):
        raise ValueError("vector length != ambient dimension")
    nrows = len(rows)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        p = prow[c]
        for i in range(nrows):
            a = rows[i][c]
            if a and i != r:
                g = gcd(a, p)
                pg, ag = p // g, a // g
                row = [pg * x - ag * y for x, y in zip(rows[i], prow)]
                h = gcd(*row)
                rows[i] = [x // h for x in row] if h > 1 else row
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rref(m: Matrix) -> RrefResult:
    """Unique reduced row echelon form with pivot columns and rank: the rows of
    ``SubspaceBasis(m.cols, m.entries())`` as ``Fraction``s, padded with zero rows."""
    basis = SubspaceBasis(m.cols, m.entries())
    reduced = basis.vectors + ((Fraction(0),) * m.cols,) * (m.rows - basis.dim)
    return RrefResult(Matrix._from_rows(reduced, m.cols), list(basis.pivots))


def _combine(coeffs: Sequence[int], rows: Sequence[Sequence[int]], n: int) -> list[int]:
    """The integer vector sum_i coeffs[i] rows[i] of length n."""
    out = [0] * n
    for c, row in zip(coeffs, rows):
        if c:
            out = [x + c * a for x, a in zip(out, row)]
    return out


class SubspaceBasis:
    """A subspace of Q^n, canonicalized to its reduced row echelon basis.

    ``rows`` are those basis rows times ``den``, the lcm of their denominators, as tuples of
    ints: row i holds ``den`` at column ``pivots[i]``, where every other row is 0.  Two equal
    subspaces have identical rows, so ``==`` is subspace equality.  ``vectors``, the basis
    rows as ``Fraction``s, is built on first read and kept.
    """

    __slots__ = ("ambient_dim", "rows", "den", "pivots", "_vectors")

    def __init__(self, ambient_dim: int, vectors: Sequence[Sequence]):
        self.ambient_dim = ambient_dim
        rows, pivots = _eliminate(vectors, ambient_dim)
        # row r over its pivot has the denominator |pivot| / content, and den their lcm
        self.den = den = lcm(*(row[c] // gcd(*row) for row, c in zip(rows, pivots)))
        self.rows = tuple(tuple(x * den // row[c] for x in row) for row, c in zip(rows, pivots))
        self.pivots = tuple(pivots)

    @classmethod
    def zero(cls, ambient_dim: int) -> "SubspaceBasis":
        return cls(ambient_dim, [])

    @property
    def vectors(self) -> tuple[Vector, ...]:
        """The reduced echelon basis rows, rows / den, built on first read."""
        if not hasattr(self, "_vectors"):
            self._vectors = tuple(tuple(Fraction(x, self.den) for x in row) for row in self.rows)
        return self._vectors

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def contains(self, v: Sequence) -> bool:
        """Whether v lies in the span: with w = q v integral, whether den w is the
        combination of the rows weighted by w's entries at the pivots."""
        _, w = _integral(v)
        if len(w) != self.ambient_dim:
            raise ValueError("vector length != ambient dimension")
        return _combine([w[p] for p in self.pivots], self.rows, len(w)) == [self.den * x for x in w]

    def coords_of(self, v: Sequence) -> Optional[Vector]:
        """Coordinates of v in this basis, or None if v is outside: v's entries at the
        pivot columns, once ``contains`` holds."""
        return tuple(_frac(v[p]) for p in self.pivots) if self.contains(v) else None

    def lift(self, coords: Sequence) -> Vector:
        """The ambient vector with the given coordinates in this basis."""
        q, c = _integral(coords)
        if len(c) != self.dim:
            raise ValueError("coordinate length != subspace dimension")
        q *= self.den
        return tuple(Fraction(x, q) for x in _combine(c, self.rows, self.ambient_dim))

    def intersection(self, other: "SubspaceBasis") -> "SubspaceBasis":
        """Exact intersection: the combinations of self's rows that the integer kernel of
        the stacked rows gives."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if self.is_zero() or other.is_zero():
            return SubspaceBasis.zero(self.ambient_dim)
        # columns: coefficients on self.rows then on other.rows
        stacked = tuple(zip(*self.rows, *([-a for a in row] for row in other.rows)))
        kernel = kernel_basis(Matrix._from_rows(stacked, self.dim + other.dim))
        return SubspaceBasis(self.ambient_dim, [_combine(k[:self.dim], self.rows, self.ambient_dim)
                                                for k in kernel.rows])

    def __eq__(self, other) -> bool:
        return (isinstance(other, SubspaceBasis)
                and self.ambient_dim == other.ambient_dim
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ambient_dim, self.rows))

    def __repr__(self):
        return f"SubspaceBasis(dim {self.dim} in Q^{self.ambient_dim})"


def kernel_basis(m: Matrix) -> SubspaceBasis:
    """Basis of the right null space of m, in integers until ``SubspaceBasis``: with row r
    of the eliminated m pivoting at column c_r, each free column f gives the kernel
    vector v[f] = L, v[c_r] = -row_r[f] L / row_r[c_r], L the lcm of the pivots."""
    rows, pivots = _eliminate(m.entries(), m.cols)
    scale = lcm(*(row[c] for row, c in zip(rows, pivots)))
    free = sorted(set(range(m.cols)).difference(pivots))
    out = [[scale * (k == f) for k in range(m.cols)] for f in free]
    for v, f in zip(out, free):
        for row, c in zip(rows, pivots):
            v[c] = -row[f] * scale // row[c]
    return SubspaceBasis(m.cols, out)


def solve(m: Matrix, rhs: Sequence) -> tuple[Optional[Vector], int]:
    """Some x with m x = rhs (None when inconsistent) and the nullity of m.

    The augmented rows [m | rhs] are eliminated as a ``SubspaceBasis``: the system is
    inconsistent iff the last pivot is the rhs column, and otherwise x[p] is the rhs
    entry of the row pivoting at p, over ``den``.  The free variables are set to zero,
    so the result is deterministic.
    """
    if len(rhs) != m.rows:
        raise ValueError("rhs length != number of rows")
    aug = SubspaceBasis(m.cols + 1, [r + (b,) for r, b in zip(m.entries(), rhs)])
    if aug.pivots and aug.pivots[-1] == m.cols:
        return None, m.cols - aug.dim + 1  # pivot in the rhs column: inconsistent
    x = [Fraction(0)] * m.cols
    for row, p in zip(aug.rows, aug.pivots):
        x[p] = Fraction(row[-1], aug.den)
    return tuple(x), m.cols - aug.dim
