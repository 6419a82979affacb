"""Axis analysis: Peirce decomposition, fusion rules, Frobenius form, radical.

Everything is exact; a "check" either returns booleans or raises one of the errors in
:mod:`axialq.errors` when a precondition is violated.  ``eigendecompose`` alone builds
Peirce data, once per axis for the lifetime of its algebra.  The eigenspaces are the kernels
of the integer ad matrix M = s * ad_axis, read off ``Algebra.table`` and kept by columns,
but A1 = <axis> with no elimination when the trace of its projector gives dim A1 = 1.
Products and M are applied as sparse {k: c} dicts, M by adding up only its columns at a
vector's keys.  The spectrum witness packs each column into one int, and an axis's projection
coefficients are one row vector times M.  ``fusion_verdicts`` searches one axis per Miyamoto
orbit and carries its verdict along the involutions.  Invariance is decided once per form, as
the symmetry of the n products T_j G, and ``radical`` runs no closure on its kernel.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product
from math import gcd
from operator import add
from typing import NamedTuple, Optional, Sequence

from .algcore import Algebra, Element, _element, _nonzero, _product
from .errors import (
    AlgebraMismatch,
    Inconsistent,
    InvariantViolation,
    NotBasisOfAxes,
    NotIdempotent,
    NotPrimitiveAxis,
    NotSemisimple,
    NotSpanning,
)
from .exactla import Matrix, SubspaceBasis, _integral, _solve, kernel_basis

__all__ = [
    "EigDecomposition",
    "AxisReport",
    "FusionReport",
    "GramForm",
    "eigendecompose",
    "primitive_decomposition",
    "check_axis",
    "fusion_verdicts",
    "check_fusion",
    "frobenius_projection",
    "frobenius_solve",
    "radical",
    "quasi_definite_basis_check",
    "peirce_components",
]

HALF = Fraction(1, 2)


class EigDecomposition(NamedTuple):
    """Eigenspaces of ad_axis for the candidate eigenvalues 0, 1/2, 1, and M = s * ad_axis in
    integers by columns, s the lcm of its denominators: cols[j] lists the nonzero (i, M[i][j]).

    ``semisimple`` is the spectrum witness L(2L - 1)(L - 1) = 0, L = ad_axis: it holds iff L
    is diagonalizable with eigenvalues in {0, 1/2, 1}, iff the three kernels sum to A.
    """

    axis: Element
    v0: SubspaceBasis
    v_half: SubspaceBasis
    v1: SubspaceBasis
    s: int
    cols: tuple[tuple[tuple[int, int], ...], ...]
    semisimple: bool

    def __repr__(self):  # s, cols and semisimple are left out
        return (f"EigDecomposition(axis={self.axis!r}, v0={self.v0!r}, "
                f"v_half={self.v_half!r}, v1={self.v1!r})")


class AxisReport(NamedTuple):
    is_idempotent: bool
    spectrum_ok: bool
    semisimple: bool
    primitive: bool
    fusion_ok: bool
    decomposition: Optional[EigDecomposition]

    @property
    def is_primitive_axis(self) -> bool:
        return self.is_idempotent and self.semisimple and self.primitive


class FusionReport(NamedTuple):
    """One boolean per fusion rule of a Jordan-type 1/2 axis."""

    zero_square: bool        # A0 * A0 in A0
    half_square: bool        # A1/2 * A1/2 in A0 + A1
    even_times_half: bool    # (A0 + A1) * A1/2 in A1/2
    zero_times_one: bool     # A0 * A1 = 0

    @property
    def all_ok(self) -> bool:
        return (self.zero_square and self.half_square
                and self.even_times_half and self.zero_times_one)


def eigendecompose(e: Element) -> EigDecomposition:
    """Exact kernels of (ad_e - lambda I) for lambda in {0, 1/2, 1}.

    With (d, T) = ``Algebra.table`` and u = q e integral, column j of d q ad_e is u e_j
    through T; M = s ad_e for s = d q / gcd(d q, its entries), e is idempotent iff
    M u = s u (u u = d q u), and the kernels are those of M, 2M - s and M - s, but A1 = <e>
    if e is semisimple and tr P1 = 1 for P1 = L(2L - 1) = (2M^2 - sM) / s^2, its projector.
    Built, spectrum witness included, once per idempotent and kept in
    ``Algebra.decompositions`` for the lifetime of its algebra.
    """
    A, key = e.algebra, (e.num, e.den)
    dec = A.decompositions.get(key)
    if dec is None:
        (d, table), n, q, u = A.table, A.dim, e.den, e.num
        us = _nonzero(u)
        square = _product(table, us, us)
        if any(square.get(i, 0) != d * q * x for i, x in enumerate(u)):
            raise NotIdempotent(f"{e!r} is not idempotent")
        cols = [_product(table, us, ((j, 1),)) for j in range(n)]
        g = gcd(d * q, *(x for col in cols for x in col.values()))
        rows = [[col.get(i, 0) // g for col in cols] for i in range(n)]
        s = d * q // g
        m = tuple(tuple(sorted((i, x // g) for i, x in col.items() if x)) for col in cols)
        semisimple = _spectrum_witness(s, m)
        trace = sum(x * (2 * rows[j][i] - s * (i == j)) for j, col in enumerate(m) for i, x in col)
        v1 = [SubspaceBasis(n, [u])] if semisimple and trace == s * s else []  # s^2 tr P1 = s^2
        spaces = [kernel_basis(Matrix._from_rows(tuple(
                      tuple(c * x - t * (i == j) for j, x in enumerate(row))
                      for i, row in enumerate(rows)), n))
                  for c, t in ((1, 0), (2, s), (1, s))[:3 - len(v1)]]  # M, 2M - s, M - s
        dec = A.decompositions[key] = EigDecomposition(e, *spaces, *v1, s, m, semisimple)
    return dec


def _apply(dec: EigDecomposition, v: dict[int, int], c: int = 1, t: int = 0) -> dict[int, int]:
    """(cM - t) v on {j: v_j}, M = s * ad_axis: -t v plus c v_j times column j of M, v_j != 0."""
    out, cols = {i: -t * x for i, x in v.items()} if t else {}, dec.cols
    for j, x in v.items():
        if x:
            x *= c
            for i, y in cols[j]:
                out[i] = out.get(i, 0) + x * y
    return out


def _spectrum_witness(s: int, cols: Sequence[Sequence[tuple[int, int]]]) -> bool:
    """L(2L - 1)(L - 1) = 0 for L = ad_axis, as 2M^3 - 3sM^2 + s^2 M = 0 on packed columns.

    Column j of M packs into one int with entry i at bit w*i.  Packing is linear, and column
    j of M^(k+1) is the sum of M[i][j] times column i of M^k.  With c1 the largest absolute
    column sum of M, an entry of M^k is at most c1^k, so one of the polynomial is at most
    B = 2c1^3 + 3s c1^2 + s^2 c1 < 2^(w-1).  If field h is the highest nonzero one, it is at
    least 2^(wh) and the fields below sum to at most B(2^(wh) - 1)/(2^w - 1) < 2^(wh): a
    packed column is 0 exactly when the column is.
    """
    c1 = max((sum(abs(x) for _, x in col) for col in cols), default=0)
    w = (2 * c1 ** 3 + 3 * s * c1 ** 2 + s * s * c1).bit_length() + 1
    m1 = [sum(x << w * i for i, x in col) for col in cols]
    m2 = [sum(x * m1[i] for i, x in col) for col in cols]
    return not any(2 * sum(x * m2[i] for i, x in col) - 3 * s * b + s * s * a
                   for col, a, b in zip(cols, m1, m2))


def primitive_decomposition(a: Element) -> EigDecomposition:
    """The Peirce decomposition of the primitive axis a: the primitivity test.

    Raises NotIdempotent or, for an idempotent that is not, NotPrimitiveAxis.
    """
    dec = eigendecompose(a)
    if not dec.semisimple or dec.v1.dim != 1:
        raise NotPrimitiveAxis(f"{a!r} is not a primitive axis")
    return dec


def check_axis(e: Element, *, fusion: Optional[bool] = None) -> AxisReport:
    """Full axis report: idempotency, spectrum, semisimplicity, primitivity, fusion.

    Spectrum and semisimplicity are one fact, the decomposition's witness.  Fusion is
    ``check_fusion``'s pair-product search, unless the caller supplies the verdict
    (``fusion``) for a semisimple e: from ``fusion_verdicts``, or true when e's algebra
    satisfies the Jordan identity, where every idempotent's Peirce decomposition obeys the
    four fusion rules (Jacobson, Structure and Representations of Jordan Algebras, 1968,
    ch. III; McCrimmon, A Taste of Jordan Algebras, 2004, ch. 8).
    """
    try:
        dec = eigendecompose(e)
    except NotIdempotent:
        return AxisReport(False, False, False, False, False, None)

    fusion_ok = dec.semisimple and (check_fusion(dec).all_ok if fusion is None else fusion)
    return AxisReport(True, dec.semisimple, dec.semisimple, dec.v1.dim == 1, fusion_ok, dec)


def fusion_verdicts(axes: Sequence[Element]) -> list[bool]:
    """The fusion verdict of each axis of one algebra, as ``check_axis`` gives it: for a
    primitive axis p that passes, tau_p(x) = x - 2 x_half = x + 8(M - s)Mx / s^2 is an
    automorphism (Miyamoto, J. Algebra 179, 1996; Hall, Rehren and Shpectorov, J. Algebra
    421, 2015), so tau_p(b) has b's verdict, and tau_(tau_p(b)) = tau_p tau_b tau_p: the tau_p
    of the searched axes generate those of the rest.  Each of them maps each axis with a
    verdict once, and an axis is searched only when none of them maps onto it.
    """
    index = {(a.num, a.den): k for k, a in enumerate(axes)}
    verdicts, taus, pairs = [None] * len(axes), [], []  # pairs: (tau_p's dec, an axis)
    for k, a in enumerate(axes):
        if verdicts[k] is None:
            report = check_axis(a)
            if report.fusion_ok and report.primitive:
                taus.append(report.decomposition)
                pairs += [(taus[-1], b) for b, v in enumerate(verdicts) if v is not None]
            verdicts[k] = report.fusion_ok
            pairs += [(dec, k) for dec in taus]
        while pairs and None in verdicts:
            dec, b = pairs.pop()
            x, s2 = axes[b], dec.s ** 2
            y = _apply(dec, _apply(dec, dict(_nonzero(x.num)), 8), 1, dec.s)  # 8(M - s)Mx
            y = _element(x.algebra, [s2 * v + y.get(i, 0) for i, v in enumerate(x.num)], s2 * x.den)
            if (c := index.get((y.num, y.den))) is not None and verdicts[c] is None:
                verdicts[c] = verdicts[b]
                pairs += [(dec, c) for dec in taus]
    return verdicts


def check_fusion(dec: EigDecomposition) -> FusionReport:
    """Verify the four fusion inclusions by exhaustive pair products.

    The eigenspaces' integer rows are multiplied through ``Algebra.table``; with
    M = s * ad_axis p lies in A0 iff Mp = 0, in A1/2 iff (2M - s)p = 0 and in A0 + A1 iff
    M(M - s)p = 0 (x and x - 1 are coprime).  By linearity, pairs of basis vectors suffice.
    """
    if not dec.semisimple:
        raise NotSemisimple("fusion check needs a semisimple decomposition")
    _, table = dec.axis.algebra.table
    v0, vh, v1 = ([_nonzero(row) for row in sp.rows] for sp in (dec.v0, dec.v_half, dec.v1))

    def within(left, right, image) -> bool:
        # the product commutes (Algebra mirrors each cell): a square needs w from u on
        return not any(any(image(_product(table, u, w)).values()) for i, u in enumerate(left)
                       for w in (right[i:] if left is right else right))

    return FusionReport(
        zero_square=within(v0, v0, lambda p: _apply(dec, p)),
        half_square=within(vh, vh, lambda p: _apply(dec, _apply(dec, p, 1, dec.s))),
        even_times_half=within(v0 + v1, vh, lambda p: _apply(dec, p, 2, dec.s)),
        zero_times_one=within(v0, v1, lambda p: p),
    )


def peirce_components(dec: EigDecomposition, x: Element) -> tuple[Element, Element, Fraction]:
    """Split x = x0 + x_half + alpha * axis for a primitive semisimple axis.

    The spectral projectors of L = ad_axis = M/s give alpha * axis = L(2L - 1) x
    = (2M - s)M x / s^2 and x_half = 4L(1 - L) x = -4(M - s)M x / s^2; alpha is
    read at the pivot of v1.
    """
    if not dec.semisimple or dec.v1.dim != 1:
        raise NotPrimitiveAxis("decomposition is not that of a primitive axis")
    dec.axis._same(x)
    A, s2, axis = x.algebra, dec.s * dec.s, dec.axis
    mv, den = _apply(dec, dict(_nonzero(x.num))), s2 * x.den
    x1, xh = _apply(dec, mv, 2, dec.s), _apply(dec, mv, 1, dec.s)
    x1, xh = [x1.get(i, 0) for i in range(A.dim)], [-4 * xh.get(i, 0) for i in range(A.dim)]
    p = dec.v1.pivots[0]
    return (_element(A, [s2 * c - a - b for c, a, b in zip(x.num, x1, xh)], den),
            _element(A, xh, den), Fraction(x1[p] * axis.den, den * axis.num[p]))


class GramForm:
    """Exact symmetric Gram matrix of a form on the algebra basis; invariance is kept once known."""

    __slots__ = ("algebra", "gram", "_invariant")

    def __init__(self, algebra: Algebra, gram: Matrix):
        if gram.rows != algebra.dim or gram.cols != algebra.dim:
            raise ValueError("Gram matrix shape != algebra dimension")
        if gram.entries() != tuple(zip(*gram.entries())):
            raise InvariantViolation("Gram matrix is not symmetric")
        self.algebra, self.gram, self._invariant = algebra, gram, None

    def value(self, x: Element, y: Element) -> Fraction:
        if x.algebra is not self.algebra or y.algebra is not self.algebra:
            raise AlgebraMismatch("elements live in another algebra than the form")
        gv = [sum(a * b for a, b in zip(row, y.num)) for row in self.gram.entries()]
        return sum((a * b for a, b in zip(x.num, gv) if a), Fraction(0)) / (x.den * y.den)

    def is_invariant(self) -> bool:
        """(xy, z) = (x, yz) on basis triples, decided once and kept.  Row i of F_j = T_j G sums
        c G[l] over (l, c) in T[i][j]: F_j[i][k], F_j[k][i] are (e_i e_j, e_k), (e_i, e_j e_k)."""
        if self._invariant is None:
            (_, table), n = self.algebra.table, self.algebra.dim
            _, g = _integral([v for r in self.gram.entries() for v in r])  # G in integers
            g = [g[k:k + n] for k in range(0, n * n, n)]

            def rows(j):  # F_j: row i is the sum of c G[l] over (l, c) in T[i][j]
                for t in table:
                    r = (0,) * n
                    for l, c in t[j]:
                        r = map(add, r, g[l] if c == 1 else [c * a for a in g[l]])
                    yield tuple(r)
            self._invariant = all(fj == list(zip(*fj)) for fj in (list(rows(j)) for j in range(n)))
        return self._invariant

    def __eq__(self, other):
        return (isinstance(other, GramForm) and self.algebra is other.algebra
                and self.gram == other.gram)

    def __repr__(self):
        return f"GramForm({self.gram!r})"


def frobenius_projection(A: Algebra, spanning_axes: Sequence[Element]) -> GramForm:
    """Frobenius form via projection coefficients on a spanning set of axes.

    For a primitive axis a, the form value (a, y) is the coefficient of a
    in the Peirce decomposition of y relative to a.  With enough axes to
    span A, the Gram matrix G is the unique solution of P G = F, where P
    stacks the axis coordinate rows; one elimination of [P | F] reads it off.
    Row a of F is row p of (2M - s)M / (s^2 a_p), p the pivot of v1 = <a>: the row
    vector r = (2 M[p, :] - s e_p) times M, read off the columns of M.  With a = num / den,
    row a of [P | F] times s^2 num[p] den is the integer row [s^2 num[p] num | den^2 rM],
    and G is read off the rows of their ``SubspaceBasis`` over its ``den``.

    After the two rank checks P G = F holds exactly, so a^T G = F_a and (a, a) = F_a a =
    (P1 a)_p / a_p = 1 for P1 = (2M - s)M / s^2, the projector onto <a> (M a = s a).
    """
    decs = []
    for a in spanning_axes:
        try:
            decs.append(primitive_decomposition(a))
        except NotIdempotent:
            raise NotPrimitiveAxis(f"{a!r} is not a primitive axis") from None
    n = A.dim
    rows = []
    for dec in decs:
        p, a = dec.v1.pivots[0], dec.axis
        r = [2 * sum(x for i, x in col if i == p) for col in dec.cols]
        r[p] -= dec.s
        c, d2 = dec.s * dec.s * a.num[p], a.den * a.den
        rows.append([c * x for x in a.num] + [d2 * sum(r[i] * x for i, x in col)
                                              for col in dec.cols])
    basis = SubspaceBasis(2 * n, rows)
    if sum(c < n for c in basis.pivots) != n:
        raise NotSpanning("the given axes do not span the algebra")
    if basis.dim != n:
        raise InvariantViolation("projection values are not consistent with any form")
    form = GramForm(A, Matrix._from_rows(tuple(tuple(Fraction(x, basis.den) for x in row[n:])
                                               for row in basis.rows), n))
    if not form.is_invariant():
        raise InvariantViolation("projection form is not invariant")
    return form


def frobenius_solve(A: Algebra, axes: Sequence[Element]) -> tuple[GramForm, int]:
    """Frobenius form as the solution of the invariance + normalization system.

    The unknowns are the Gram entries g(p, q) = g(q, p), numbered along the upper triangle.
    Each d((e_i e_j, e_k) - (e_i, e_j e_k)) = 0, d the denominator of ``A.table``, is read
    off T for every j and i < k: the product commutes and the form is symmetric, so the
    other triples repeat these, and the canonical elimination, and the solution read off
    it, is that of the full system of n^3 rows.  Each axis adds the row (a, a) = 1, in
    integers as (a.num, a.num) = a.den^2, so the system stays integral and the form is
    normalized on every axis given, exactly.  The rows stream in sparse, and once every
    unknown pivots the rest are only checked.  Returns a solution, with free unknowns set
    to 0, together with the dimension of the homogeneous solution space (0 means the form
    is unique).
    """
    if not axes:
        raise ValueError("at least one axis is required for normalization")
    n, (_, table) = A.dim, A.table
    nun = n * (n + 1) // 2
    index = [[0] * n for _ in range(n)]
    for u, (p, q) in enumerate((p, q) for p in range(n) for q in range(p, n)):
        index[p][q] = index[q][p] = u

    def rows():  # sparse integer rows, the right-hand side at column nun
        for j, i in product(range(n), repeat=2):
            for k in range(i + 1, n):
                row = {}
                for u, c in chain(((index[l][k], c) for l, c in table[i][j]),
                                  ((index[i][l], -c) for l, c in table[j][k])):
                    row[u] = row.get(u, 0) + c
                yield {u: c for u, c in row.items() if c}
        for a in axes:
            row = {nun: a.den * a.den}
            for i, ai in _nonzero(a.num):
                for j, aj in _nonzero(a.num):
                    row[index[i][j]] = row.get(index[i][j], 0) + ai * aj
            yield row

    x, free_dim = _solve(rows(), nun)
    if x is None:
        raise Inconsistent("no invariant normalized form exists for these axes")
    form = GramForm(A, Matrix([[x[u] for u in row] for row in index]))
    form._invariant = True  # its entries solve the invariance equations
    return form, free_dim


def radical(A: Algebra, g: GramForm) -> SubspaceBasis:
    """Kernel of the invariant form g on A, free of axes: an ideal, as (xy, z) = (x, yz) = 0."""
    if g.algebra is not A or not g.is_invariant():
        raise InvariantViolation("the form is not an invariant form on A")
    ker = kernel_basis(g.gram)
    if any(ker.contains(a.num) for a in A.designated_axes):
        raise InvariantViolation("a designated axis lies in the radical")
    return ker


def quasi_definite_basis_check(
    X: Sequence[Element], g: GramForm
) -> tuple[bool, Optional[tuple[Element, Element, Fraction]]]:
    """All distinct pairs must have form value != 1; returns a witness on failure."""
    if not X:
        raise NotBasisOfAxes("empty axis list")
    if SubspaceBasis(X[0].algebra.dim, [x.num for x in X]).dim != len(X):
        raise NotBasisOfAxes("axes are linearly dependent")
    for x in X:
        try:
            if eigendecompose(x).semisimple:
                continue
        except NotIdempotent:
            pass
        raise NotBasisOfAxes(f"{x!r} is not an axis")
    for i in range(len(X)):
        for j in range(i + 1, len(X)):
            val = g.value(X[i], X[j])
            if val == 1:
                return False, (X[i], X[j], val)
    return True, None
