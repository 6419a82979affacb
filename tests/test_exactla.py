"""Exact rational linear algebra: worked examples plus property tests."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from axialq.exactla import (
    Matrix,
    SubspaceBasis,
    kernel_basis,
    rref,
    solve,
    vec,
)

from conftest import combination, matvec

F = Fraction


def M(rows):
    return Matrix([[F(x) for x in row] for row in rows])


# --- concrete examples -----------------------------------------------------

def test_rref_example():
    r = rref(M([[1, 2, 3], [2, 4, 6], [1, 1, 1]]))
    assert r.rank == 2
    assert r.pivot_columns == [0, 1]
    assert r.reduced.entries() == ((F(1), F(0), F(-1)), (F(0), F(1), F(2)), (F(0),) * 3)


def test_kernel_example():
    k = kernel_basis(M([[1, 2, 3], [2, 4, 6]]))
    assert k.dim == 2
    m = M([[1, 2, 3], [2, 4, 6]])
    for v in k.vectors:
        assert all(x == 0 for x in matvec(m, v))


def test_solve_consistent_and_inconsistent():
    m = M([[1, 1], [0, 1], [1, 2]])
    assert solve(m, [F(3), F(1), F(4)]) == ((F(2), F(1)), 0)
    assert solve(m, [F(3), F(1), F(5)]) == (None, 0)


def test_solve_zeroes_free_variables():
    m = M([[1, 1, 0]])
    assert solve(m, [F(2)]) == ((F(2), F(0), F(0)), 2)


def test_solve_checks_each_row_past_full_rank():
    """The first two rows fix x = (1/3, -2), so elimination stops there and each later row
    is only checked against x, by an exact dot product over its Fractions or strings."""
    m = M([[1, 2], [3, 4], [F(1, 3), F(1, 2)], [0, F(5, 7)]])
    x, rhs = (F(1, 3), F(-2)), [F(-11, 3), F(-7), F(-8, 9), F(-10, 7)]
    assert solve(m, rhs) == (x, 0)
    assert solve(m, rhs[:3] + [F(-10, 7) + F(1, 63)]) == (None, 0)
    assert solve(m, rhs[:2] + ["-8/9", "-10/7"]) == (x, 0)
    assert solve(m, rhs[:2] + ["-8/9", "-10/7001"]) == (None, 0)
    assert solve(m, rhs[:2] + [F(-8, 9) - F(1, 10 ** 30), "-10/7"]) == (None, 0)
    with pytest.raises(TypeError):
        solve(m, rhs[:3] + [-1.5])
    with pytest.raises(ValueError):
        solve(m, rhs + [F(0)])


def test_rows_past_full_rank_are_still_checked():
    """Q^2 is spanned after two rows: a later row of the wrong length or with a float
    still raises, and later Fraction and string rows lie in the span."""
    full = [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        SubspaceBasis(2, full + [[1, 2, 3]])
    with pytest.raises(TypeError):
        SubspaceBasis(2, full + [[F(1, 2), 0.5]])
    assert SubspaceBasis(2, full + [[F(1, 3), "-2/7"], ["5", 0]]) == SubspaceBasis(2, full)
    assert kernel_basis(M(full + [[F(1, 3), F(-2, 7)]])).is_zero()


def test_det_and_inverse():
    """det [[2,1],[1,1]] = 1: solve gives its inverse column by column;
    det [[1,2],[2,4]] = 0: rank 1, and e_0 is not in its image."""
    m = M([[2, 1], [1, 1]])
    cols = [solve(m, [F(i == j) for i in range(2)]) for j in range(2)]
    assert all(nullity == 0 for _, nullity in cols)
    inv = Matrix([[cols[j][0][i] for j in range(2)] for i in range(2)])
    assert inv == M([[1, -1], [-1, 2]])
    assert [matvec(m, x) for x, _ in cols] == [(F(1), F(0)), (F(0), F(1))]
    singular = M([[1, 2], [2, 4]])
    assert rref(singular).rank == 1
    assert solve(singular, [F(1), F(0)]) == (None, 1)


def test_matrix_rejects_floats():
    with pytest.raises(TypeError):
        Matrix([[0.5]])
    with pytest.raises(TypeError):
        vec([1.5])


def test_subspace_canonical_equality():
    s1 = SubspaceBasis(3, [[F(1), F(0), F(1)], [F(0), F(1), F(1)]])
    s2 = SubspaceBasis(3, [[F(1), F(1), F(2)], [F(2), F(1), F(3)]])
    assert s1 == s2
    assert s1.contains([F(3), F(-1), F(2)])
    assert not s1.contains([F(1), F(0), F(0)])


def test_subspace_sum_and_intersection():
    e1 = SubspaceBasis(3, [[F(1), F(0), F(0)]])
    e12 = SubspaceBasis(3, [[F(1), F(0), F(0)], [F(0), F(1), F(0)]])
    e23 = SubspaceBasis(3, [[F(0), F(1), F(0)], [F(0), F(0), F(1)]])
    assert SubspaceBasis(3, e12.vectors + e23.vectors).dim == 3
    inter = e12.intersection(e23)
    assert inter.dim == 1
    assert inter.contains([F(0), F(1), F(0)])
    assert e1.intersection(e23).dim == 0


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_intersection_matches_dimension_formula(data):
    """U and W spanned by small integer rows, W partly by combinations of U's rows so
    that U and W often meet: dim(U n W) = dim U + dim W - dim(U + W), and U n W lies
    in both."""
    n = data.draw(st.integers(1, 5))
    entry = st.integers(-3, 3)
    row = st.lists(entry, min_size=n, max_size=n)
    u_rows = data.draw(st.lists(row, max_size=n))
    w_rows = data.draw(st.lists(row, max_size=n))
    for _ in range(data.draw(st.integers(0, 3)) if u_rows else 0):
        coeffs = data.draw(st.lists(entry, min_size=len(u_rows), max_size=len(u_rows)))
        w_rows.append([sum(c * r[k] for c, r in zip(coeffs, u_rows)) for k in range(n)])
    U, W = SubspaceBasis(n, u_rows), SubspaceBasis(n, w_rows)
    meet = U.intersection(W)
    assert meet.dim == U.dim + W.dim - SubspaceBasis(n, U.vectors + W.vectors).dim
    for v in meet.vectors:
        assert U.contains(v) and W.contains(v)
    assert W.intersection(U) == meet


def test_lift_and_coords_roundtrip():
    s = SubspaceBasis(3, [[F(1), F(2), F(0)], [F(0), F(0), F(1)]])
    v = [F(3), F(6), F(-2)]
    assert list(combination(s, s.coords_of(v))) == v


# --- property tests --------------------------------------------------------

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=8)


def matrices(max_n=4):
    return st.integers(1, max_n).flatmap(
        lambda n: st.integers(1, max_n).flatmap(
            lambda m: st.lists(
                st.lists(rationals, min_size=m, max_size=m),
                min_size=n, max_size=n).map(Matrix)))


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    assert rref(m).rank + kernel_basis(m).dim == m.cols


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rref_idempotent(m):
    r = rref(m).reduced
    assert rref(r).reduced == r


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_solve_recovers_consistent_rhs(m, data):
    x = data.draw(st.lists(rationals, min_size=m.cols, max_size=m.cols))
    rhs = matvec(m, x)
    y, _ = solve(m, rhs)
    assert y is not None
    assert matvec(m, y) == rhs


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_kernel_vectors_annihilated(m):
    for v in kernel_basis(m).vectors:
        assert all(c == 0 for c in matvec(m, v))


# --- differential tests against sympy ------------------------------------------

@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


mixed = st.fractions(min_value=-30, max_value=30, max_denominator=12)


@st.composite
def oracle_matrices(draw, max_n=5, tall=False, low_rank=False):
    """Matrices with mixed denominators and zero, sparse (1 or 2 nonzeros) and dependent rows.

    Shapes include 0 x 0 and r x 0 (a matrix without rows has no columns); a tall matrix
    has 1 to max_n columns and up to 3 times as many rows.  A low-rank matrix is tall too,
    and every row after its first two is zero or a combination of earlier rows: its rank is
    at most 2, so most of its rows reduce to zero.
    """
    tall = tall or low_rank
    ncols = draw(st.integers(1 if tall else 0, max_n))
    nrows = draw(st.integers(ncols, 3 * ncols) if tall else st.integers(0, max_n))
    rows: list[list[Fraction]] = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["zero", "combination"] if low_rank and len(rows) >= 2
                                    else ["fresh", "fresh", "sparse", "zero", "combination"]))
        if kind == "fresh":
            rows.append(draw(st.lists(mixed, min_size=ncols, max_size=ncols)))
        elif kind == "sparse" and ncols:
            row = [F(0)] * ncols
            for k in draw(st.lists(st.integers(0, ncols - 1), min_size=1, max_size=2)):
                row[k] = draw(mixed.filter(bool))
            rows.append(row)
        elif kind == "combination" and rows:
            u, w = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(mixed), draw(mixed)
            rows.append([s * a + t * b for a, b in zip(u, w)])
        else:
            rows.append([F(0)] * ncols)
    return Matrix(rows)


def to_sympy(sympy, m):
    return sympy.Matrix(m.rows, m.cols,
                        [sympy.Rational(a.numerator, a.denominator)
                         for row in m.entries() for a in row])


def from_sympy(s):
    return [[F(int(x.p), int(x.q)) for x in s.row(i)] for i in range(s.rows)]


@settings(max_examples=150, deadline=None)
@given(st.one_of(oracle_matrices(), oracle_matrices(low_rank=True)))
def test_rref_and_kernel_match_sympy(sympy, m):
    s = to_sympy(sympy, m)
    reduced, pivots = s.rref()
    ours = rref(m)
    assert [list(r) for r in ours.reduced.entries()] == from_sympy(reduced)
    assert ours.pivot_columns == list(pivots)
    ker = kernel_basis(m)
    assert ker.dim == len(s.nullspace())
    for v in ker.vectors:
        assert (s * to_sympy(sympy, Matrix([[a] for a in v]))).is_zero_matrix


@settings(max_examples=150, deadline=None)
@given(st.one_of(oracle_matrices(), oracle_matrices(tall=True), oracle_matrices(low_rank=True)),
       st.data())
def test_solve_matches_sympy(sympy, m, data):
    """On tall matrices most free right-hand sides are inconsistent; a tall matrix of full
    column rank stops eliminating early and checks its other rows.  A solution is 0 at
    every non-pivot column of the rref: frobenius_solve reports that x as the Gram matrix."""
    s = to_sympy(sympy, m)
    _, pivots = s.rref()
    x0 = data.draw(st.lists(mixed, min_size=m.cols, max_size=m.cols))
    free = data.draw(st.lists(mixed, min_size=m.rows, max_size=m.rows))
    for rhs in (matvec(m, x0), free):
        b = to_sympy(sympy, Matrix([[a] for a in rhs])) if m.rows \
            else sympy.Matrix(0, 1, [])
        consistent = s.rank() == s.row_join(b).rank()
        x, nullity = solve(m, rhs)
        assert (x is not None) == consistent
        assert nullity == m.cols - s.rank()
        if x is not None:
            xs = to_sympy(sympy, Matrix([[a] for a in x])) if m.cols \
                else sympy.Matrix(0, 1, [])
            assert s * xs == b
            assert all(not x[k] for k in range(m.cols) if k not in pivots)


# --- coords_of against the transpose-and-solve oracle -----------------------

@settings(max_examples=150, deadline=None)
@given(oracle_matrices(), st.data())
def test_coords_of_matches_solve(m, data):
    """Spanning sets with zero and dependent rows, the zero subspace included."""
    n = m.cols
    s = SubspaceBasis(n, m.entries())
    coeffs = data.draw(st.lists(mixed, min_size=m.rows, max_size=m.rows))
    inside = [sum((c * row[k] for c, row in zip(coeffs, m.entries())), F(0))
              for k in range(n)]
    outside = data.draw(st.lists(mixed, min_size=n, max_size=n))
    for v in (inside, outside, [F(0)] * n):
        if s.dim:
            expected = solve(Matrix(list(zip(*s.vectors))), v)[0]
        else:  # solve has no 0-column oracle here: only 0 lies in the zero subspace
            expected = None if any(v) else ()
        assert s.coords_of(v) == expected
    assert s.coords_of(inside) is not None
    for wrong in {n + 1, max(n - 1, 0)} - {n}:
        with pytest.raises(ValueError):
            s.coords_of([F(0)] * wrong)


# --- integer kernels and subspaces against sympy -----------------------------

@st.composite
def tall_integer_matrices(draw, max_cols=6):
    """Tall integer matrices of low rank: B C with B (rows x r) and C (r x cols),
    entries in [-6, 6], so pivots are negative or other than 1 and rows repeat
    up to multiples, as in the shifted ad matrices that eigendecompose eliminates."""
    ncols = draw(st.integers(1, max_cols))
    nrows = draw(st.integers(ncols, 2 * ncols + 2))
    rank = draw(st.integers(0, ncols))
    entry = st.integers(-6, 6)
    b = draw(st.lists(st.lists(entry, min_size=rank, max_size=rank),
                      min_size=nrows, max_size=nrows))
    c = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                      min_size=rank, max_size=rank))
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*c)] if rank
             else [0] * ncols for row in b]


def _sympy_rref_rows(sympy, rows):
    """The nonzero rows of sympy's RREF of the given rows, as Fractions, and the pivots."""
    if not rows:
        return [], ()
    reduced, pivots = sympy.Matrix(rows).rref()
    return from_sympy(reduced)[:len(pivots)], pivots


def _as_int_fraction_and_string(v, q):
    """v itself, q v as Fractions and q v as strings: one vector up to scale."""
    return v, [q * x for x in v], [str(q * x) for x in v]


@settings(max_examples=150, deadline=None)
@given(tall_integer_matrices(), st.data())
def test_integer_kernel_and_subspace_match_sympy(sympy, rows, data):
    ncols = len(rows[0])
    m = Matrix._from_rows(tuple(tuple(r) for r in rows), ncols)
    null = [list(v) for v in sympy.Matrix(rows).nullspace()]
    ker = kernel_basis(m)
    assert [list(v) for v in ker.vectors] == _sympy_rref_rows(sympy, null)[0]
    span = SubspaceBasis(ncols, rows)
    reduced, pivots = _sympy_rref_rows(sympy, rows)
    assert [list(v) for v in span.vectors] == reduced
    assert span.pivots == tuple(pivots)
    assert span.vectors == rref(m).reduced.entries()[:len(pivots)]
    assert ker.dim + span.dim == ncols
    # the same span from negated (negative pivots), Fraction and string rows
    q = F(data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5)))
    for form in zip(*(_as_int_fraction_and_string([-x for x in r], q) for r in rows)):
        assert SubspaceBasis(ncols, form) == span
    # membership and coordinates: v lies in the span iff it adds nothing to the rank
    entry = st.integers(-6, 6)
    coeffs = data.draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))
    inside = [sum(c * r[k] for c, r in zip(coeffs, rows)) for k in range(ncols)]
    outside = data.draw(st.lists(entry, min_size=ncols, max_size=ncols))
    for v in (inside, outside):
        expected = sympy.Matrix(rows + [v]).rank() == len(pivots)
        for form in _as_int_fraction_and_string(v, q):
            assert span.contains(form) == expected
            coords = span.coords_of(form)
            assert (coords is not None) == expected
            if expected:
                scaled = [F(x) for x in form]
                assert coords == tuple(scaled[p] for p in pivots)
    # intersection: sympy's kernel of [U^T | -W^T] gives the combinations of U's rows
    other = data.draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=3))
    other += [[sum(c * r[k] for c, r in zip(cs, rows)) for k in range(ncols)]
              for cs in data.draw(st.lists(st.lists(entry, min_size=len(rows),
                                                    max_size=len(rows)), max_size=2))]
    meet = span.intersection(SubspaceBasis(ncols, other))
    w_reduced = _sympy_rref_rows(sympy, other)[0]
    expected = []
    if reduced and w_reduced:
        u_t = sympy.Matrix(reduced).T
        stacked = u_t.row_join(-sympy.Matrix(w_reduced).T)
        expected = [list(u_t * k[:len(reduced), :]) for k in stacked.nullspace()]
    assert [list(v) for v in meet.vectors] == _sympy_rref_rows(sympy, expected)[0]
    assert SubspaceBasis(ncols, other).intersection(span) == meet


@settings(max_examples=60, deadline=None)
@given(tall_integer_matrices())
def test_subspace_takes_int_fraction_and_string_rows(rows):
    ncols = len(rows[0])
    halves = [[F(x, 2) for x in r] for r in rows]
    as_ints = SubspaceBasis(ncols, rows)
    assert SubspaceBasis(ncols, [[F(x) for x in r] for r in rows]) == as_ints
    assert SubspaceBasis(ncols, [[str(x) for x in r] for r in rows]) == as_ints
    assert SubspaceBasis(ncols, halves) == as_ints
    assert SubspaceBasis(ncols, [[str(x) for x in r] for r in halves]) == as_ints
    assert all(type(a) is F for v in as_ints.vectors for a in v)


def test_subspace_rejects_floats_and_wrong_lengths():
    for row in ([0.5, 1], [1, 0.5], [F(1), 0.5], ["1/2", 0.5]):
        with pytest.raises(TypeError):
            SubspaceBasis(2, [row])
    for rows in ([[1, 2, 3]], [[1, 2], [3]], ([1] * k for k in (2, 3))):
        with pytest.raises(ValueError):
            SubspaceBasis(2, rows)
    # a generator of rows is read once
    assert SubspaceBasis(2, ([x, 1] for x in (1, 2))).dim == 2
