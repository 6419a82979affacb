"""Factories for the example algebras: spin factors, matrix Jordan algebras
with their quasi-definite axis bases, symmetric-matrix algebras, Matsuo
algebras of 3-transposition sets, and the parametric two-generated algebra.

H_n and H_n' are subalgebras of M_n^+: their products are formed by
``multiply`` in M_n^+ on the flattened basis matrices.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .algcore import Algebra, find_unit, make_algebra, multiply
from .axial import HALF
from .errors import (
    BadProductOrder,
    ConjugacyClosureError,
    DegenerateForm,
    InvariantViolation,
    NotInvolution,
)
from .exactla import Matrix, SubspaceBasis, _integral, vec

__all__ = [
    "Permutation",
    "MatsuoInput",
    "spin_factor",
    "matrix_jordan",
    "sym_jordan",
    "sym_jordan_prime",
    "matsuo",
    "sn_transpositions",
    "two_gen_algebra",
]


class Permutation:
    """Permutation of {1..m} in one-line notation (stored 0-based)."""

    __slots__ = ("mapping",)

    def __init__(self, mapping: Sequence[int]):
        self.mapping = tuple(mapping)
        if sorted(self.mapping) != list(range(len(self.mapping))):
            raise ValueError("mapping is not a bijection on the points")

    @classmethod
    def transposition(cls, m: int, i: int, j: int) -> "Permutation":
        """Swap of the (1-based) points i and j."""
        mapping = list(range(m))
        mapping[i - 1], mapping[j - 1] = mapping[j - 1], mapping[i - 1]
        return cls(mapping)

    @property
    def degree(self) -> int:
        return len(self.mapping)

    @classmethod
    def _of(cls, mapping: tuple[int, ...]) -> "Permutation":  # a known bijection: unchecked
        p = object.__new__(cls)
        p.mapping = mapping
        return p

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (p * q)(x) = p(q(x))."""
        if other.degree != self.degree:
            raise ValueError("permutations of different degrees")
        return Permutation._of(tuple(map(self.mapping.__getitem__, other.mapping)))

    def cycle_string(self) -> str:
        seen = [False] * self.degree
        parts = []
        for i in range(self.degree):
            if seen[i] or self.mapping[i] == i:
                seen[i] = True
                continue
            cyc = [i]
            seen[i] = True
            j = self.mapping[i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = self.mapping[j]
            parts.append("(" + " ".join(str(k + 1) for k in cyc) + ")")
        return "".join(parts) if parts else "()"

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.mapping == other.mapping

    def __hash__(self):
        return hash(self.mapping)

    def __repr__(self):
        return f"Permutation{self.cycle_string()}"


def _conjugate(c: tuple[int, ...], d: tuple[int, ...]) -> tuple[int, ...]:
    """The mapping of c^d = d c d for an involution d (d^-1 = d) of c's degree, in one pass:
    x -> d(c(d(x)))."""
    return tuple([d[c[x]] for x in d])


class MatsuoInput(NamedTuple):
    """A set D of distinct involutions with pairwise product orders in {2, 3}."""

    degree: int
    involutions: tuple[Permutation, ...]

    def validate(self) -> dict[tuple[int, int], Permutation]:
        """Check D and return c^d = d c d for every pair c = D[i], d = D[j], i < j, with |cd| = 3.

        Distinct involutions commute iff c^d = c; otherwise |cd| = 3 iff c^d = d^c (the
        braid relation cdc = dcd).  So a pair costs at most two conjugations, whatever
        its order, and an involution one product."""
        identity = tuple(range(self.degree))
        for p in self.involutions:
            if p.degree != self.degree:
                raise ValueError("permutation degree mismatch")
            if p.mapping == identity or (p * p).mapping != identity:
                raise NotInvolution(f"{p!r} does not have order 2")
        D, conjugates = self.involutions, {}
        for i, c in enumerate(D):
            for j in range(i + 1, len(D)):
                d = D[j]
                if c == d:
                    raise BadProductOrder(f"|{c!r} {d!r}| = 1")
                conj = _conjugate(c.mapping, d.mapping)
                if conj == c.mapping:
                    continue
                if conj != _conjugate(d.mapping, c.mapping):
                    raise BadProductOrder(f"|{c!r} {d!r}| > 3")
                conjugates[i, j] = Permutation._of(conj)
        return conjugates


def _is_square(q: Fraction) -> Optional[Fraction]:
    """The positive rational square root of q, or None."""
    if q <= 0:
        return None
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def spin_factor(diag: Sequence) -> Algebra:
    """Jordan algebra Q1 + V of a diagonal symmetric form.

    The product is (a1 + x)(b1 + y) = (ab + f(x, y))1 + ay + bx.  For each
    diagonal entry that is a rational square d = s^2, the idempotent
    (1 + v/s)/2 is designated as an axis; non-square entries get no axis.
    """
    d = vec(diag)
    if any(x == 0 for x in d):
        raise DegenerateForm("zero diagonal entry")
    n = len(d)
    dim = n + 1
    cells = {(0, i): [(i, 1)] for i in range(dim)}  # 1 v_i = v_i
    cells.update({(i, i): [(0, d[i - 1])] for i in range(1, dim)})  # v_i v_i = f(v_i, v_i) 1
    names = ["1"] + [f"v{i}" for i in range(1, dim)]
    axes = []
    for i in range(1, dim):
        s = _is_square(d[i - 1])
        if s is not None:
            axes.append([HALF] + [1 / (2 * s) if k == i else 0 for k in range(1, dim)])
    return make_algebra(dim, names, cells, axes)


def _matrix_jordan_raw(n: int) -> tuple[list[str], dict]:
    """Basis names e_ij and the cells of M_n under A o B = (AB + BA)/2: each nonzero matrix
    product e_ij e_jl = e_il is half of its pair's cell, and e_ii e_ii = e_ii all of it."""
    cells = {}
    for i, j, l in itertools.product(range(n), repeat=3):
        a, b = i * n + j, j * n + l
        cells.setdefault((min(a, b), max(a, b)), []).append((i * n + l, 1 if a == b else HALF))
    return [f"e{i + 1}{j + 1}" for i in range(n) for j in range(n)], cells


def _qd_basis_pairs(n: int) -> list[tuple[tuple[Fraction, ...], tuple[Fraction, ...]]]:
    """Rank-1 factor pairs (l, r) of the inductive quasi-definite basis.

    Parameters are picked by a deterministic smallest-candidate scan: at
    every extension step b = 1, c = 2, and each d is the first integer
    from 2, 3, ... avoiding 1/(1 - d) in the excluded trace set.
    """
    pairs = [((Fraction(1),), (Fraction(1),))]
    for m in range(1, n):
        # embed the size-m basis into size m + 1
        ext = [(l + (Fraction(0),), r + (Fraction(0),)) for l, r in pairs]
        new_unit = tuple(Fraction(1) if k == m else Fraction(0) for k in range(m + 1))
        b, c = Fraction(1), Fraction(2)
        chosen: list[Fraction] = []
        fresh = []
        for i in range(m):
            excluded = {l[i] * r[i] for l, r in ext}
            t = 2
            while True:
                di = Fraction(t)
                if 1 / (1 - di) not in excluded and all(di * dj != 1 for dj in chosen):
                    break
                t += 1
            chosen.append(di)
            for x in (b, c):
                l = tuple(Fraction(1) if k == i else (di / x if k == m else Fraction(0))
                          for k in range(m + 1))
                r = tuple((1 - di) if k == i else (x if k == m else Fraction(0))
                          for k in range(m + 1))
                fresh.append((l, r))
        pairs = ext + fresh + [(new_unit, new_unit)]
    return pairs


def matrix_jordan(n: int) -> Algebra:
    """M_n^(+) with its quasi-definite basis of rank-1 axes designated."""
    if n < 1:
        raise ValueError("n must be >= 1")
    names, structure = _matrix_jordan_raw(n)
    pairs = _qd_basis_pairs(n)
    if len(pairs) != n * n:
        raise InvariantViolation("wrong quasi-definite basis size")
    # l = L / p and r = R / q with L and R integral: <l, r> = <L, R> / (p q)
    scaled = [(*_integral(l), *_integral(r)) for l, r in pairs]
    if any(sum(a * b for a, b in zip(L, R)) != p * q for p, L, q, R in scaled):
        raise InvariantViolation("rank-1 factor pair is not normalized")
    axes = [[l[i] * r[j] for i in range(n) for j in range(n)] for l, r in pairs]
    if SubspaceBasis(n * n, axes).dim != n * n:
        raise InvariantViolation("quasi-definite basis is not linearly independent")
    # pairwise trace-form values: tr(l1^T r1 l2^T r2) = <r1, l2><r2, l1>
    for i, (p1, L1, q1, R1) in enumerate(scaled):
        for p2, L2, q2, R2 in scaled[i + 1:]:
            val = sum(a * b for a, b in zip(R1, L2)) * sum(a * b for a, b in zip(R2, L1))
            if val == p1 * q1 * p2 * q2:
                raise InvariantViolation("quasi-definite basis has a pair of form value 1")
    return make_algebra(n * n, names, structure, axes)


def _sym_names(n: int) -> tuple[list[tuple[int, int]], list[str]]:
    index = [(i, i) for i in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)]
    names = [f"e{i + 1}{i + 1}" if i == j else f"s{i + 1}{j + 1}" for i, j in index]
    return index, names


def _sym_table(n: int, basis: Sequence[Sequence[Fraction]], coords_of) -> dict:
    """The cells on the flattened n x n matrices of basis: each product, for i <= j, is
    formed once in M_n^+, from the cells of ``_matrix_jordan_raw``, and read off its
    (num, den): coords_of maps num, linearly, to integer coordinates over den."""
    M = Algebra(n * n, *_matrix_jordan_raw(n))
    elements = [M.element(b) for b in basis]
    cells = {}
    for i, j in itertools.combinations_with_replacement(range(len(basis)), 2):
        p = multiply(elements[i], elements[j])
        cells[i, j] = [(k, Fraction(c, p.den)) for k, c in enumerate(coords_of(p.num)) if c]
    return cells


def sym_jordan(n: int) -> Algebra:
    """Symmetric n x n matrices under A o B = (AB + BA)/2.

    Basis: the diagonal units e_ii followed by e_ij + e_ji for i < j; the
    diagonal units are designated as axes.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    index, names = _sym_names(n)
    basis = [[int(k in (i * n + j, j * n + i)) for k in range(n * n)] for i, j in index]
    cells = _sym_table(n, basis, lambda p: [p[i * n + j] for i, j in index])
    dim = len(index)
    return make_algebra(dim, names, cells, [[int(i == j) for j in range(dim)] for i in range(n)])


def sym_jordan_prime(n: int) -> Algebra:
    """Zero-row-sum symmetric matrices under the symmetrized product.

    Basis and designated axes: a_ij = (e_i - e_j)(e_i - e_j)^T / 2 for
    i < j.  Only a_ij has a nonzero (i, j) entry, -1/2, so a zero-row-sum
    symmetric p has coefficient -2 p[i, j] on a_ij.  Closure under the
    product is asserted during construction.
    """
    if n < 2:
        raise ValueError("n must be >= 2")

    pairs = list(itertools.combinations(range(n), 2))

    def coords_of(p: Sequence[int]) -> list[int]:
        if any(sum(p[i * n:(i + 1) * n]) for i in range(n)):
            raise InvariantViolation("product left the zero-row-sum subspace")
        return [-2 * p[i * n + j] for i, j in pairs]

    # the flattened a_ij: entry (r, c) is (e_i - e_j)[r] (e_i - e_j)[c] / 2
    basis = [[Fraction(((r == i) - (r == j)) * ((c == i) - (c == j)), 2)
              for r in range(n) for c in range(n)] for i, j in pairs]
    names = [f"a{i + 1}{j + 1}" for i, j in pairs]
    cells = _sym_table(n, basis, coords_of)
    dim = len(pairs)
    return make_algebra(dim, names, cells, [[int(i == j) for j in range(dim)] for i in range(dim)])


def matsuo(inp: MatsuoInput) -> tuple[Algebra, Matrix]:
    """Matsuo algebra on the involution set D, plus its predicted Gram matrix.

    The product of distinct c, d is 0 when |cd| = 2 and
    (c + d - c^d)/4 when |cd| = 3, with c^d = d c d: the Matsuo algebra
    of Jordan type 1/2, whose form value on such a pair is 1/4.
    """
    conjugates = inp.validate()
    D = list(inp.involutions)
    dim = len(D)
    pos = {p: k for k, p in enumerate(D)}
    quarter = Fraction(1, 4)
    cells = {(i, i): [(i, 1)] for i in range(dim)}
    gram = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
    for (i, j), conj in conjugates.items():  # |cd| = 2 leaves product 0, form 0
        if conj not in pos:
            raise ConjugacyClosureError(f"{conj!r} = c^d is not in the involution set")
        cells[i, j] = [(i, quarter), (j, quarter), (pos[conj], -quarter)]
        gram[i][j] = gram[j][i] = quarter
    names = [p.cycle_string() for p in D]
    axes = [[int(i == j) for j in range(dim)] for i in range(dim)]
    return make_algebra(dim, names, cells, axes), Matrix(gram)


def sn_transpositions(n: int) -> MatsuoInput:
    """All transpositions of S_n in lexicographic order."""
    if n < 2:
        raise ValueError("n must be >= 2")
    invs = [Permutation.transposition(n, i, j)
            for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return MatsuoInput(degree=n, involutions=tuple(invs))


def two_gen_algebra(alpha) -> Algebra:
    """The 3-dimensional algebra generated by two axes a, b with (a, b) = alpha.

    Basis {a, b, s} where s = ab - (a + b)/2 and s acts as the scalar
    pi = (alpha - 1)/2 on a, b, s.  Unital iff alpha != 1, with unit s/pi.
    """
    alpha = Fraction(alpha)
    pi = (alpha - 1) / 2
    cells = {(0, 0): [(0, 1)], (0, 1): [(0, HALF), (1, HALF), (2, 1)], (0, 2): [(0, pi)],
             (1, 1): [(1, 1)], (1, 2): [(1, pi)], (2, 2): [(2, pi)]}
    A = make_algebra(3, ["a", "b", "s"], cells, [[1, 0, 0], [0, 1, 0]])
    unit = find_unit(A)
    if alpha != 1:
        expected = A.element([0, 0, 1]) / pi
        if unit != expected:
            raise InvariantViolation("unit is not s/pi")
    elif unit is not None:
        raise InvariantViolation("alpha = 1 should give a non-unital algebra")
    return A
