"""Exact linear algebra over the rationals.

Scalars cross the API as ``fractions.Fraction``; below it a system is a stream of sparse
integer rows {column: int}, scaled to integers once at the public boundary, or built so by the
callers with large systems.  ``_eliminate``, the one elimination loop, reduces each row against
the pivot rows found so far as it arrives, and stops reading once every column pivots; ``solve``
solves that prefix and checks each row left with one exact dot product.  No floating point
anywhere; matrices and subspace bases are immutable, so safe to share between threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Iterator, Optional, Sequence

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


def _sparse(rows: Iterable[Sequence], n: int) -> Iterator[dict[int, int]]:
    """Rows scaled to sparse integer rows {column: nonzero int} of length n; a dict is one."""
    for row in rows:
        if not isinstance(row, dict):
            _, w = _integral(row)
            if len(w) != n:
                raise ValueError("vector length != ambient dimension")
            row = {k: x for k, x in enumerate(w) if x}
        yield row


def _reduce(row: dict[int, int], prow: dict[int, int], c: int) -> dict[int, int]:
    """p row - a prow over gcd(a, p), a = row[c] and p = prow[c], over its content: 0 at c."""
    g = gcd(row[c], prow[c])
    pg, ag = prow[c] // g, row[c] // g
    out = {k: pg * x for k, x in row.items()}
    for k, y in prow.items():
        out[k] = out.get(k, 0) - ag * y
    h = gcd(*out.values()) or 1
    return {k: x // h for k, x in out.items() if x}


def _eliminate(rows: Iterable[dict[int, int]], ncols: int) -> dict[int, dict[int, int]]:
    """Streaming fraction-free Gauss-Jordan elimination: {pivot column: pivot row}.  A row is
    reduced by the pivot rows so far as it arrives, and dropped if it reduces to zero; else it
    pivots at its first column, which is cleared from the earlier pivot rows, so they stay the
    reduced echelon form, each up to scale.  An entry at column ncols (a right-hand side)
    counts toward no rank; once columns < ncols all pivot, the rest of ``rows`` is unread."""
    pivots = {}
    for row in rows:
        for c in [c for c in row if c in pivots]:
            row = _reduce(row, pivots[c], c)
        if row:
            c = min(row)
            pivots = {q: _reduce(prow, row, c) if c in prow else prow for q, prow in pivots.items()}
            pivots[c] = row
            if len(pivots) - (ncols in pivots) == ncols:
                break
    return pivots


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
        self.ambient_dim = n = ambient_dim
        pivots = _eliminate(list(_sparse(vectors, n)), n)  # list: every row is checked
        self.pivots = tuple(sorted(pivots))
        # row c over its pivot has the denominator |pivot| / content, and den their lcm
        self.den = den = lcm(*(pivots[c][c] // gcd(*pivots[c].values()) for c in self.pivots))
        self.rows = tuple(tuple(pivots[c].get(k, 0) * den // pivots[c][c] for k in range(n))
                          for c in self.pivots)

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
    """Basis of the right null space of m: with the eliminated row pivoting at c, each free
    column f gives the kernel vector v[f] = L, v[c] = -row[f] L / row[c], L the pivots' lcm."""
    pivots = _eliminate(_sparse(m.entries(), m.cols), m.cols)
    scale = lcm(*(row[c] for c, row in pivots.items()))
    return SubspaceBasis(m.cols, [{f: scale, **{c: -row[f] * scale // row[c]
                                               for c, row in pivots.items() if f in row}}
                                  for f in range(m.cols) if f not in pivots])


def _solve(rows: Iterator[dict[int, int]], n: int) -> tuple[Optional[Vector], int]:
    """``solve`` on sparse integer rows, the right-hand side at column n: once the n unknowns
    all pivot, each row left is one exact dot product with the then unique candidate x."""
    pivots = _eliminate(rows, n)
    den = lcm(*(row[c] for c, row in pivots.items()))
    x = {c: row.get(n, 0) * den // row[c] for c, row in pivots.items()}  # den x
    ok = n not in pivots
    for row in rows:
        ok = ok and sum(x.get(k, 0) * v for k, v in row.items()) == den * row.get(n, 0)
    return (tuple(Fraction(x.get(k, 0), den) for k in range(n)) if ok else None,
            n - len(pivots) + (n in pivots))


def solve(m: Matrix, rhs: Sequence) -> tuple[Optional[Vector], int]:
    """Some x with m x = rhs (None when inconsistent) and the nullity of m: x[p] is read off
    the row of [m | rhs] pivoting at p, and the free variables are 0, so x is deterministic."""
    if len(rhs) != m.rows:
        raise ValueError("rhs length != number of rows")
    return _solve(_sparse((r + (b,) for r, b in zip(m.entries(), rhs)), m.cols + 1), m.cols)
