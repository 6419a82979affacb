"""Commutative algebras given by structure constants.

An algebra is a dimension, a named basis, and exact rational structure constants
c[i][j][k], kept once as the integer table (d, T) that every product reads: basis
elements i and j multiply to c[i][j][k] on basis element k.  ``Algebra`` takes only the
nonzero constants, as cells {(i, j): [(k, c[i][j][k]), ...]} for i <= j, each mirrored to
(j, i); a pair without a cell multiplies to 0.  ``make_algebra`` also takes the dense grid
structure[i][j][k], whose two halves must agree.  A list of designated axes (idempotents
of interest) may ride along.

An ``Element`` is the integer vector ``num`` over the integer ``den`` > 0, gcd(den, *num) = 1,
so equal elements have equal (num, den); arithmetic runs on that pair, and ``coords``, the
``Fraction`` vector num / den for reports and files, is built on first read and kept.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Sequence

from .errors import AlgebraMismatch, CommutativityViolation, InvariantViolation, NotIdempotent
from .exactla import SubspaceBasis, _frac, _integral, _solve, vec

__all__ = [
    "Algebra",
    "Element",
    "Word",
    "make_algebra",
    "multiply",
    "subalgebra_closure",
    "ideal_closure",
    "find_unit",
    "jordan_identity_check",
    "restrict_to_subspace",
]


class Algebra:
    """Finite-dimensional commutative algebra over Q."""

    __slots__ = ("dim", "basis_names", "table", "decompositions", "designated_axes")

    def __init__(self, dim: int, basis_names: Sequence[str], cells: dict):
        """``cells[i, j]``, i <= j, lists the (k, c[i][j][k]) of (basis i) * (basis j), with
        distinct k; ``table`` is (d, T), d the lcm of the denominators and T[i][j] = T[j][i]
        the nonzero (k, d c[i][j][k]) in order of k."""
        self.dim = n = dim
        self.basis_names = tuple(basis_names)
        d, flat = _integral([c for cell in cells.values() for _, c in cell])
        flat, table = iter(flat), [[()] * n for _ in range(n)]
        for (i, j), cell in cells.items():
            ks = [k for k, _ in cell]
            if not (0 <= i <= j < n and all(0 <= k < n for k in ks) and len(set(ks)) == len(ks)):
                raise ValueError(f"cell ({i}, {j}) needs i <= j < dim and distinct k < dim")
            table[i][j] = table[j][i] = tuple(sorted((k, c) for k, c in zip(ks, flat) if c))
        self.table = d, tuple(map(tuple, table))
        # an axis's (num, den) -> its Peirce decomposition, built by axial.eigendecompose
        self.decompositions = {}
        self.designated_axes: tuple[Element, ...] = ()

    def element(self, coords) -> "Element":
        return Element(self, coords)

    def basis_element(self, i: int) -> "Element":
        num = [0] * self.dim
        num[i] = 1
        return _element(self, num, 1)

    def zero(self) -> "Element":
        return _element(self, [0] * self.dim, 1)

    def basis_elements(self) -> list["Element"]:
        return [self.basis_element(i) for i in range(self.dim)]

    def __repr__(self):
        return f"Algebra(dim {self.dim}, basis {list(self.basis_names)})"


class Element:
    """Element of an algebra: num / den in lowest terms, as ``_integral``'s lcm scaling gives."""

    __slots__ = ("algebra", "num", "den", "_coords")

    def __init__(self, algebra: Algebra, coords):
        self.den, num = _integral(tuple(coords))
        if len(num) != algebra.dim:
            raise ValueError("coordinate length != algebra dimension")
        self.algebra, self.num = algebra, tuple(num)

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The exact coordinate vector num / den, built on first read."""
        if not hasattr(self, "_coords"):
            self._coords = tuple(Fraction(a, self.den) for a in self.num)
        return self._coords

    def _same(self, other: "Element"):
        if self.algebra is not other.algebra:
            raise AlgebraMismatch("elements live in different algebras")

    def _combine(self, other: "Element", sign: int) -> "Element":
        self._same(other)
        den = lcm(self.den, other.den)
        p, q = den // self.den, sign * (den // other.den)
        return _element(self.algebra, [p * a + q * b for a, b in zip(self.num, other.num)], den)

    def __add__(self, other: "Element") -> "Element":
        return self._combine(other, 1)

    def __sub__(self, other: "Element") -> "Element":
        return self._combine(other, -1)

    def __neg__(self) -> "Element":
        return _element(self.algebra, [-a for a in self.num], self.den)

    def __mul__(self, other):
        if isinstance(other, Element):
            return multiply(self, other)
        return self.scale(other)

    def __truediv__(self, c):
        return self.scale(1 / _frac(c))

    def scale(self, c) -> "Element":
        """c times self; c is an int, a Fraction or a string, never a float."""
        c = _frac(c)
        return _element(self.algebra, [c.numerator * a for a in self.num],
                        c.denominator * self.den)

    __rmul__ = scale

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_idempotent(self) -> bool:
        return multiply(self, self) == self

    def __eq__(self, other) -> bool:
        return (isinstance(other, Element) and self.algebra is other.algebra
                and self.den == other.den and self.num == other.num)

    def __hash__(self):
        return hash((id(self.algebra), self.num, self.den))

    def __repr__(self):
        terms = [f"{c}*{n}" for c, n in zip(self.coords, self.algebra.basis_names) if c != 0]
        return " + ".join(terms) if terms else "0"


def _element(algebra: Algebra, num, den: int) -> Element:
    """The element num / den of the algebra, for integers num and den > 0, in lowest terms."""
    g, e = gcd(den, *num), Element.__new__(Element)
    e.algebra, e.num, e.den = algebra, tuple(a // g for a in num) if g > 1 else tuple(num), den // g
    return e


class Word:
    """Binary product tree over indices into a list of generators.

    ``tree`` is either an int (a generator index) or a pair of trees.
    """

    __slots__ = ("tree",)

    def __init__(self, tree):
        self.tree = self._check(tree)

    @staticmethod
    def _check(tree):
        if isinstance(tree, int):
            if tree < 0:
                raise ValueError("negative generator index")
            return tree
        left, right = tree
        return (Word._check(left), Word._check(right))

    def __eq__(self, other):
        return isinstance(other, Word) and self.tree == other.tree

    def __repr__(self):
        def fmt(t):
            if isinstance(t, int):
                return str(t)
            return f"({fmt(t[0])}*{fmt(t[1])})"

        return f"Word{fmt(self.tree)}"


def make_algebra(dim: int, names: Sequence[str], structure, axes=()) -> Algebra:
    """Validate and build an algebra from its cells, as ``Algebra`` takes them, or from a
    dense structure-constant grid, whose two halves must agree."""
    if len(names) != dim:
        raise ValueError("basis name count != dimension")
    if not isinstance(structure, dict):
        if len(structure) != dim or any(len(p) != dim for p in structure) \
                or any(len(row) != dim for p in structure for row in p):
            raise ValueError("structure grid dimensions must all equal dim")
        structure = _upper(names, [[_nonzero(vec(row)) for row in p] for p in structure])
    alg = Algebra(dim, names, structure)
    designated = []
    for a in axes:
        e = Element(alg, a.coords if isinstance(a, Element) else a)
        if not e.is_idempotent():
            raise NotIdempotent(f"designated axis {e!r} is not idempotent")
        designated.append(e)
    alg.designated_axes = tuple(designated)
    return alg


def _upper(names: Sequence[str], grid) -> dict:
    """The cells (i, j), i <= j, of the square grid of nonzero (k, c) lists, once each
    agrees with its cell (j, i)."""
    cells = {}
    for i, row in enumerate(grid):
        for j in range(i, len(row)):
            if row[j] != grid[j][i]:
                raise CommutativityViolation(
                    f"c[{i}][{j}] != c[{j}][{i}] ({names[i]}, {names[j]})")
            if row[j]:
                cells[i, j] = row[j]
    return cells


def _nonzero(v) -> list[tuple[int, object]]:
    """The nonzero (i, v[i]) of a dense vector: an operand of ``_product``."""
    return [(i, x) for i, x in enumerate(v) if x]


def _product(table, u, w) -> dict:
    """d times the product of the sparse integer vectors u and w, given as (i, x) pairs,
    through the T of ``Algebra.table``: {k: c}, where a c may be 0 after cancellation."""
    p = {}
    for a, ua in u:
        row = table[a]
        for b, wb in w:
            c = ua * wb
            for k, ck in row[b]:
                p[k] = p.get(k, 0) + c * ck
    return p


def multiply(x: Element, y: Element) -> Element:
    """Bilinear product through the integer table: xy is the product of x.num and y.num
    through T over d x.den y.den."""
    x._same(y)
    d, table = x.algebra.table
    p = _product(table, _nonzero(x.num), _nonzero(y.num))
    return _element(x.algebra, [p.get(k, 0) for k in range(x.algebra.dim)], d * x.den * y.den)


def _closure(A: Algebra, seed: Sequence[Element], pairs) -> SubspaceBasis:
    """Grow the span of the seed by the products of pairs(sparse basis rows) until none
    leaves it.  The canonical rows make the order immaterial, and membership does not
    depend on scale, so the integer rows multiply through T as they are."""
    _, table = A.table
    span = SubspaceBasis(A.dim, [s.num for s in seed])
    while True:
        new_rows = list(span.rows)
        for u, v in pairs([_nonzero(row) for row in span.rows]):
            p = _product(table, u, v)
            num = [p.get(k, 0) for k in range(A.dim)]
            if not span.contains(num):
                new_rows.append(num)
        if len(new_rows) == span.dim:
            return span
        span = SubspaceBasis(A.dim, new_rows)


def subalgebra_closure(A: Algebra, seed: Sequence[Element]) -> SubspaceBasis:
    """Smallest subspace containing the seed and closed under the product."""
    if not seed:
        raise ValueError("seed must be nonempty")
    return _closure(A, seed, lambda basis: itertools.combinations_with_replacement(basis, 2))


def ideal_closure(A: Algebra, seed: Sequence[Element]) -> SubspaceBasis:
    """Smallest subspace containing the seed and absorbing under the product."""
    units = [[(j, 1)] for j in range(A.dim)]
    return _closure(A, seed, lambda basis: itertools.product(basis, units))


def find_unit(A: Algebra) -> Optional[Element]:
    """The two-sided unit of A, or None.

    Solves e * basis_j = basis_j for all j in integers, sum_i e_i T[i][j][k] = d delta_jk
    with (d, T) = ``A.table``, without the equations 0 = 0.  A positive-dimensional
    solution space cannot happen for a commutative unital algebra and is reported as an
    invariant failure.
    """
    n = A.dim
    if n == 0:
        return None
    d, table = A.table

    def rows():  # row (j, k) is {i: T[i][j][k]}, with d at column n when j = k
        for j in range(n):
            eqs = {j: {n: d}}
            for i in range(n):
                for k, c in table[i][j]:
                    eqs.setdefault(k, {})[i] = c
            yield from eqs.values()

    x, nullity = _solve(rows(), n)
    if x is None:
        return None
    if nullity:
        raise InvariantViolation("unit equation has a positive-dimensional solution space")
    return Element(A, x)


def restrict_to_subspace(A: Algebra, span: SubspaceBasis,
                         axes: Sequence[Element] = ()) -> tuple[Algebra, list["Element"]]:
    """Re-express A on a product-closed subspace as a first-class algebra.

    Structure constants are taken in the canonical basis rows / den of ``span``: a vector
    of the span has its coordinates at the pivots, and rows i and j multiply through T to
    d den^2 times basis vectors i and j.  Returns the restricted algebra together with the
    images of ``axes`` (which must lie in the subspace).  Raises ValueError if the subspace
    is not closed under the product.
    """
    (d, table), pivots = A.table, span.pivots
    rows, q = [_nonzero(row) for row in span.rows], d * span.den * span.den
    cells = {}
    for i, j in itertools.combinations_with_replacement(range(span.dim), 2):
        p = _product(table, rows[i], rows[j])
        if not span.contains([p.get(k, 0) for k in range(A.dim)]):
            raise ValueError("subspace is not closed under the product")
        cells[i, j] = [(k, Fraction(p.get(c, 0), q)) for k, c in enumerate(pivots)]
    sub = Algebra(span.dim, [f"s{i}" for i in range(span.dim)], cells)
    images = []
    for a in axes:
        if not span.contains(a.num):
            raise ValueError("axis does not lie in the subspace")
        images.append(_element(sub, [a.num[c] for c in pivots], a.den))
    sub.designated_axes = tuple(images)
    return sub, images


def jordan_identity_check(A: Algebra) -> bool:
    """True iff the full linearization of (x^2 y)x = x^2 (yx) vanishes.

    The plain Jordan identity is cubic in x, so it cannot be tested on a
    basis alone; over an infinite field it holds iff its multilinear form
    vanishes on all basis tuples.  With L_x the multiplication by x,
    ((e_p e_q) y) e_r - (e_p e_q)(y e_r) = [L_r, L_pq] y, and by bilinearity
    L_pq = sum_m c[p][q][m] L_m; so the identity holds iff

        sum over (p, q, r) in ((i, j, k), (i, k, j), (j, k, i)) of
            sum_m c[p][q][m] [L_r, L_m]  =  0

    for every i <= j <= k (McCrimmon, A Taste of Jordan Algebras, II.1).
    Commutativity collapses the six permutations of a triple to these three
    pairings; when i = j the pairing (i, k, i) counts twice.  Each
    commutator is built from the T of ``A.table`` the first time a triple
    reads it, so a non-Jordan algebra stops at its first failing triple
    having built only the commutators it read; every term scales by d**3,
    which keeps zero-ness.
    """
    n = A.dim
    _, table = A.table
    # comm[r, m], r < m: the nonzero (y * n + t, coordinate t of [L_r, L_m] e_y),
    # scaled by d**2; [L_m, L_r] = -[L_r, L_m]
    comm = {}

    def commutator(r: int, m: int) -> list:
        left, right, acc = table[r], table[m], {}
        for y in range(n):
            col = y * n
            for k, c in right[y]:
                for t, v in left[k]:
                    acc[col + t] = acc.get(col + t, 0) + c * v
            for k, c in left[y]:
                for t, v in right[k]:
                    acc[col + t] = acc.get(col + t, 0) - c * v
        return [(yt, v) for yt, v in acc.items() if v]

    for i, j, k in itertools.combinations_with_replacement(range(n), 3):
        acc = {}
        for p, q, r in ((i, j, k), (i, k, j), (j, k, i)):
            for m, c in table[p][q]:
                if m != r:
                    key, c = ((r, m), c) if r < m else ((m, r), -c)
                    entries = comm.get(key)
                    if entries is None:
                        entries = comm[key] = commutator(*key)
                    for yt, v in entries:
                        acc[yt] = acc.get(yt, 0) + c * v
        if any(acc.values()):
            return False
    return True
