"""Algebra core: construction, products, closures, units, restriction."""

import functools
import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from axialq import (
    Element,
    eigendecompose,
    find_unit,
    ideal_closure,
    jordan_identity_check,
    make_algebra,
    multiply,
    restrict_to_subspace,
    subalgebra_closure,
)
from axialq.algcore import _nonzero, _product
from axialq.constructions import matsuo, spin_factor, two_gen_algebra
from axialq.errors import (
    AlgebraMismatch,
    CommutativityViolation,
    InvariantViolation,
    NotIdempotent,
)
from axialq.exactla import Matrix, SubspaceBasis, solve
from axialq.fileio import AlgebraFile

from conftest import (by_name, combination, direct_sum, dynkin_cartan, fusion_break,
                      random_element, registry, source_grid, weyl_reflections)

F = Fraction


def _pair_algebra():
    """Q x Q with componentwise product: a small associative testbed."""
    z = F(0)
    structure = [
        [[F(1), z], [z, z]],
        [[z, z], [z, F(1)]],
    ]
    return make_algebra(2, ["p", "q"], structure, axes=[[F(1), z], [z, F(1)]])


def test_make_algebra_validates_commutativity():
    z = F(0)
    bad = [
        [[F(1), z], [F(1), z]],
        [[z, z], [z, F(1)]],
    ]
    with pytest.raises(CommutativityViolation):
        make_algebra(2, ["p", "q"], bad)


def test_cells_for_i_le_j_build_the_mirrored_table():
    """Cells given for i <= j only are mirrored to (j, i) and their zero coefficients dropped;
    a repeated k in one cell, or a cell (i, j) with i > j, raises ValueError."""
    A = make_algebra(2, ["p", "q"], {(0, 0): [(0, F(1))], (0, 1): [(1, F(1, 2)), (0, 0)]})
    assert A.table == (2, ((((0, 2),), ((1, 1),)), (((1, 1),), ())))
    p, q = A.basis_elements()
    assert multiply(q, p) == multiply(p, q) == q / 2 and multiply(q, q).is_zero()
    for cells in ({(0, 1): [(1, F(1, 2)), (1, F(1, 4))]}, {(0, 1): [(1, 0), (1, F(1, 2))]},
                  {(1, 0): [(1, F(1))]}):
        with pytest.raises(ValueError):
            make_algebra(2, ["p", "q"], cells)


def test_make_algebra_validates_axes():
    A = _pair_algebra()
    with pytest.raises(NotIdempotent):
        make_algebra(2, list(A.basis_names), source_grid(A), axes=[[F(2), F(0)]])


def test_element_arithmetic_and_mismatch():
    A = _pair_algebra()
    B = _pair_algebra()
    p, q = A.basis_element(0), A.basis_element(1)
    assert (p + q) * (p - q) == p - q
    assert (3 * p) / 3 == p
    assert (-p).coords == (F(-1), F(0))
    with pytest.raises(AlgebraMismatch):
        multiply(p, B.basis_element(0))


def test_scaling_refuses_floats():
    p = _pair_algebra().basis_element(0)
    for scaled in (lambda: p.scale(0.5), lambda: p * 0.1, lambda: 0.1 * p, lambda: p / 0.5):
        with pytest.raises(TypeError, match="floating point is not allowed"):
            scaled()
    half = p.algebra.element([F(1, 2), F(0)])
    assert p.scale(F(1, 2)) == p * "1/2" == F(1, 2) * p == p / 2 == p / "2" == half
    assert (3 * p).coords == (F(3), F(0))


def test_multiply_is_bilinear_spot_check():
    info = by_name("matsuo_s4")
    A = info.A
    import random
    rng = random.Random(7)
    for _ in range(10):
        x, y, zz = (random_element(A, rng) for _ in range(3))
        c = F(rng.randint(-3, 3), rng.randint(1, 3))
        assert multiply(x + c * y, zz) == multiply(x, zz) + c * multiply(y, zz)


def test_subalgebra_and_ideal_closure():
    A = by_name("matsuo_s3").A
    a, b, c = A.designated_axes
    # two distinct transposition-axes of S_3 already generate everything
    assert subalgebra_closure(A, [a, b]).dim == 3
    assert subalgebra_closure(A, [a]).dim == 1
    # any single axis generates the whole algebra as an ideal (simple algebra)
    assert ideal_closure(A, [a]).dim == 3


def test_ideal_closure_in_radical_case():
    info = by_name("twogen_0")
    from axialq import radical
    rad = radical(info.A, info.g)
    assert rad.dim == 1
    v = info.A.element(rad.vectors[0])
    assert ideal_closure(info.A, [v]) == rad


def test_find_unit_examples():
    A = by_name("matsuo_s3").A
    e = find_unit(A)
    assert e is not None
    assert e.coords == (F(2, 3), F(2, 3), F(2, 3))
    # the span of a single Matsuo axis is unital with that axis as unit
    sub, (img,) = restrict_to_subspace(
        A, SubspaceBasis(3, [A.designated_axes[0].coords]), [A.designated_axes[0]])
    assert find_unit(sub) == img


def test_find_unit_absent():
    # the 1-dim algebra with zero product has no unit
    A = make_algebra(1, ["n"], [[[F(0)]]])
    assert find_unit(A) is None


def test_find_unit_on_matsuo_w_e7():
    """Matsuo(W(E7)), dimension 63: the solve reaches full rank on a prefix of its rows and
    checks the rest, and the unit it returns acts as the unit on every basis element."""
    A, _ = matsuo(weyl_reflections(dynkin_cartan("E", 7)))
    e = find_unit(A)
    assert A.dim == 63 and e is not None
    assert all(multiply(e, b) == b for b in A.basis_elements())


def test_restrict_to_subspace_roundtrip():
    info = by_name("h3")
    A = info.A
    dec = eigendecompose(A.designated_axes[0])
    sub, _ = restrict_to_subspace(A, dec.v0)
    assert sub.dim == dec.v0.dim
    # products in the restriction match products upstairs
    for i in range(sub.dim):
        for j in range(sub.dim):
            up_i = A.element(dec.v0.vectors[i])
            up_j = A.element(dec.v0.vectors[j])
            down = multiply(sub.basis_element(i), sub.basis_element(j))
            assert combination(dec.v0, down.coords) == multiply(up_i, up_j).coords


def test_restrict_rejects_unclosed_subspace():
    A = by_name("spin_11").A
    span = SubspaceBasis(3, [[F(0), F(1), F(0)]])  # u alone: u*u = 1 escapes
    with pytest.raises(ValueError):
        restrict_to_subspace(A, span)


def test_jordan_identity_positive_and_negative():
    assert jordan_identity_check(by_name("m2").A)
    # Matsuo algebra of S_4 at eta=1/2 is a Jordan algebra too
    assert jordan_identity_check(by_name("matsuo_s4").A)
    # a commutative algebra that is *not* Jordan: x*x = y, y*y = x, x*y = 0
    z = F(0)
    bad = make_algebra(2, ["x", "y"], [
        [[z, F(1)], [z, z]],
        [[z, z], [F(1), z]],
    ])
    assert not jordan_identity_check(bad)
    # the same shape with denominators: x*x = y/2, y*y = x/3
    bad = make_algebra(2, ["x", "y"], [
        [[z, F(1, 2)], [z, z]],
        [[z, z], [F(1, 3), z]],
    ])
    assert not jordan_identity_check(bad)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4),
                min_size=3, max_size=3),
       st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4),
                min_size=3, max_size=3))
def test_spin_product_commutes(xc, yc):
    A = by_name("spin_11").A
    x, y = A.element(xc), A.element(yc)
    assert multiply(x, y) == multiply(y, x)


@functools.cache
def _product_algebras():
    """The conftest algebras, B(1/3) (constants with denominators 2 and 3), one restriction
    to a Peirce 0-space, and a direct sum."""
    out = {info.name: info.A for info in registry()}
    out["twogen_13"] = two_gen_algebra(F(1, 3))
    h3 = by_name("h3").A
    out["h3_v0"], _ = restrict_to_subspace(h3, eigendecompose(h3.designated_axes[0]).v0)
    out["matsuo_s3+twogen_14"] = direct_sum(by_name("matsuo_s3").A, by_name("twogen_14").A)
    return out


# coordinates: zero, small denominators, and denominators coprime to every table's d
_COORD = st.one_of(st.just(F(0)), st.fractions(min_value=-5, max_value=5, max_denominator=4),
                   st.builds(F, st.integers(-9, 9), st.sampled_from([5, 7, 25, 35])))
# the leading coordinates of an operand, zero after them: the empty list is the zero element
_OPERAND = st.lists(_COORD, max_size=max(A.dim for A in _product_algebras().values()))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(_product_algebras())), _OPERAND, _OPERAND)
@example("twogen_13", [F(1, 5), F(-3, 7), F(2, 35)], [F(-1, 25), F(4, 7), F(1)])
@example("twogen_13", [], [F(1, 5), F(1, 2), F(-1, 3)])
@example("twogen_13", [F(3, 7)], [])
def test_multiply_matches_dense_sum(name, xc, yc):
    A = _product_algebras()[name]
    n, c = A.dim, source_grid(A)
    x, y = (A.element((list(v) + [F(0)] * n)[:n]) for v in (xc, yc))
    dense = [sum((x.coords[i] * y.coords[j] * c[i][j][k]
                  for i in range(n) for j in range(n)), F(0)) for k in range(n)]
    assert multiply(x, y).coords == tuple(dense)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(_product_algebras())), _OPERAND, _OPERAND)
@example("matsuo_s3", [F(1)], [F(0), F(1), F(-1)])  # cancels at (1 2)
def test_product_read_densely_is_multiply(name, xc, yc):
    """_product on the nonzero (i, x) of x.num and y.num is {k: c}, c an int, and over
    d x.den y.den its dense reading is multiply(x, y)."""
    A = _product_algebras()[name]
    n, (d, table) = A.dim, A.table
    x, y = (A.element((list(v) + [F(0)] * n)[:n]) for v in (xc, yc))
    p = _product(table, _nonzero(x.num), _nonzero(y.num))
    assert set(p) <= set(range(n)) and all(type(c) is int for c in p.values())
    assert A.element([F(p.get(k, 0), d * x.den * y.den) for k in range(n)]) == multiply(x, y)


def test_product_keeps_a_cancelled_coordinate():
    """In Matsuo(S3), (1 2)(1 3) - (1 2)(2 3) cancels at (1 2): the key stays, valued 0."""
    A = by_name("matsuo_s3").A
    d, table = A.table
    p = _product(table, [(0, 1)], [(1, 1), (2, -1)])
    assert p == {0: 0, 1: 2, 2: -2}
    x, y = A.basis_element(0), A.basis_element(1) - A.basis_element(2)
    assert multiply(x, y) == A.element([F(p.get(k, 0), d) for k in range(3)])


def _assert_canonical(e):
    """num a tuple of ints over den >= 1 in lowest terms, and rebuilt from coords unchanged."""
    assert type(e.num) is tuple and all(type(a) is int for a in e.num)
    assert type(e.den) is int and e.den >= 1 and gcd(e.den, *e.num) == 1
    assert Element(e.algebra, e.coords) == e


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(info.name for info in registry())), _OPERAND, _OPERAND, _COORD)
@example("matsuo_s4", [F(1, 5)], [F(1, 5)], F(0))
@example("h3", [F(1, 2), F(-1, 3)], [F(1, 2), F(-1, 3), F(0), F(1, 7)], F(-7, 2))
def test_element_matches_fraction_oracle(name, xc, yc, c):
    """Element arithmetic against plain Fraction arithmetic on the source grid and the Gram
    matrix: sums, differences, negation, scaling, products, the form, ==, hash, is_zero."""
    info = by_name(name)
    A, n, grid, gram = info.A, info.A.dim, source_grid(info.A), info.g.gram.entries()
    xs, ys = ([F(a) for a in (list(v) + [F(0)] * n)[:n]] for v in (xc, yc))
    x, y = A.element(xs), A.element(ys)
    dense = [sum((xs[i] * ys[j] * grid[i][j][k] for i in range(n) for j in range(n)), F(0))
             for k in range(n)]
    cases = [(x, xs), (y, ys),
             (x + y, [a + b for a, b in zip(xs, ys)]), (x - y, [a - b for a, b in zip(xs, ys)]),
             (-x, [-a for a in xs]), (x.scale(c), [c * a for a in xs]),
             (c * y, [c * a for a in ys]), (multiply(x, y), dense)]
    for e, v in cases:
        assert e.coords == tuple(v)
        assert e.is_zero() == (not any(v))
        _assert_canonical(e)
    value = info.g.value(x, y)
    assert type(value) is F
    assert value == sum((xs[i] * gram[i][j] * ys[j] for i in range(n) for j in range(n)), F(0))
    assert (x == y) == (xs == ys)
    for e, f in ((x, A.element(xs)), (x, x + A.zero()), (x, 2 * x / 2), (y - y, A.zero())):
        assert e == f and hash(e) == hash(f)


def _assert_table_is_scaled_grid(A):
    """T[i][j] lists the nonzero (k, d c[i][j][k]) in order of k, as ints, with d the lcm
    of the denominators of the grid c that A was built from."""
    c = source_grid(A)
    d, table = A.table
    assert d == lcm(*(x.denominator for plane in c for row in plane for x in row))
    for i in range(A.dim):
        for j in range(A.dim):
            ks = [k for k, _ in table[i][j]]
            assert ks == sorted(set(ks)) and all(type(x) is int and x for _, x in table[i][j])
            assert [F(dict(table[i][j]).get(k, 0), d) for k in range(A.dim)] == list(c[i][j])


def test_terms_list_the_nonzero_structure_constants():
    A = by_name("matsuo_s4").A
    sub, _ = restrict_to_subspace(A, eigendecompose(A.designated_axes[0]).v0)
    loaded = AlgebraFile.from_json(AlgebraFile.from_algebra("s4", A).to_json()).algebra
    for X in (_pair_algebra(), A, sub, loaded, _product_algebras()["twogen_13"]):
        _assert_table_is_scaled_grid(X)
    assert source_grid(loaded) == source_grid(A)
    assert loaded.table == A.table


def _scaled_grid(A) -> tuple[int, list]:
    """The grid A was built from, times the lcm d of its denominators, as sparse integer
    rows: the oracles' own (d, T), made without reading A.table."""
    c = source_grid(A)
    d = lcm(*(x.denominator for plane in c for row in plane for x in row))
    return d, [[[(k, int(x * d)) for k, x in enumerate(row) if x] for row in plane] for plane in c]


def _jordan_oracle(A) -> bool:
    """The linearized Jordan identity as triple products of basis elements: for each
    basis triple i <= j <= k and each e_y, the sum over the three pairings (p, q, r)
    of ((e_p e_q) e_y) e_r - (e_p e_q)(e_y e_r), on integer vectors scaled by d**3."""
    n = A.dim
    _, table = _scaled_grid(A)

    def times_basis(x, b):
        out = [0] * n
        for a, xa in enumerate(x):
            if xa:
                for k, c in table[a][b]:
                    out[k] += xa * c
        return out

    # pqy[p][q][y] = (e_p e_q) e_y, scaled by d**2, for p <= q
    pqy = [[None] * n for _ in range(n)]
    for p, q in itertools.combinations_with_replacement(range(n), 2):
        pq = [0] * n
        for k, c in table[p][q]:
            pq[k] = c
        pqy[p][q] = [times_basis(pq, y) for y in range(n)]
    for (i, j, k) in itertools.combinations_with_replacement(range(n), 3):
        for y in range(n):
            acc = [0] * n
            for (p, q, r) in ((i, j, k), (i, k, j), (j, k, i)):
                for t, c in enumerate(times_basis(pqy[p][q][y], r)):
                    acc[t] += c
                for b, c in table[y][r]:
                    for t, v in enumerate(pqy[p][q][b]):
                        acc[t] -= c * v
            if any(acc):
                return False
    return True


def _table_algebra(table):
    n = len(table)
    return make_algebra(n, [f"e{i}" for i in range(n)], table)


def test_jordan_check_matches_oracle_on_constructions():
    # Matsuo(W(D4)): not Jordan, so the check stops early among its 66 commutator pairs
    algebras = [*_product_algebras().values(), fusion_break(),
                matsuo(weyl_reflections(dynkin_cartan("D", 4)))[0]]
    verdicts = [jordan_identity_check(A) for A in algebras]
    assert verdicts == [_jordan_oracle(A) for A in algebras]
    assert set(verdicts) == {True, False}


@st.composite
def _commutative_tables(draw):
    """Commutative structure tables of dimension 1-5 with denominators 1-3."""
    n = draw(st.integers(1, 5))
    coeff = st.one_of(st.just(F(0)), st.builds(F, st.integers(-2, 2), st.integers(1, 3)))
    table = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        table[i][j] = table[j][i] = draw(st.lists(coeff, min_size=n, max_size=n))
    return table


@settings(max_examples=150, deadline=None)
@given(_commutative_tables())
# H_2, the symmetric 2 x 2 matrices (e11, e22, s12): Jordan
@example([[[F(1), F(0), F(0)], [F(0), F(0), F(0)], [F(0), F(0), F(1, 2)]],
          [[F(0), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1, 2)]],
          [[F(0), F(0), F(1, 2)], [F(0), F(0), F(1, 2)], [F(1), F(1), F(0)]]])
# x x = y, y y = x: not Jordan
@example([[[F(0), F(1)], [F(0), F(0)]],
          [[F(0), F(0)], [F(1), F(0)]]])
def test_jordan_check_matches_oracle_on_random_tables(table):
    A = _table_algebra(table)
    assert jordan_identity_check(A) == _jordan_oracle(A)


def test_jordan_check_matches_oracle_on_perturbed_constants():
    rng = random.Random(13)
    algebras = [by_name("m3").A, by_name("h4p").A, by_name("matsuo_s4").A,
                spin_factor([1, 4, 9]), by_name("twogen_14").A]
    verdicts = []
    for A in algebras:
        n = A.dim
        for _ in range(30):
            i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            table = [[list(row) for row in plane] for plane in source_grid(A)]
            table[i][j][k] += rng.choice([F(1), F(-1), F(1, 2), F(-2, 3)])
            table[j][i][k] = table[i][j][k]
            B = _table_algebra(table)
            verdicts.append(jordan_identity_check(B))
            assert verdicts[-1] == _jordan_oracle(B), (A, i, j, k)
    assert set(verdicts) == {True, False}


def test_jordan_check_builds_no_element(monkeypatch):
    from axialq import algcore
    algebras = [by_name("matsuo_s4").A, by_name("m3").A]

    def fraction_path(*args):
        raise AssertionError("a Fraction product in the Jordan check")

    monkeypatch.setattr(algcore, "multiply", fraction_path)
    monkeypatch.setattr(algcore.Element, "__init__", fraction_path)
    assert all(jordan_identity_check(A) for A in algebras)


def _unit_oracle(A):
    """find_unit as a dense Fraction system: sum_i e_i c[i][j][k] = delta_jk, one row
    per (j, k), solved as it stands; the outcome or the error type."""
    n, c = A.dim, source_grid(A)
    if n == 0:
        return None
    rows = [[c[i][j][k] for i in range(n)] for j in range(n) for k in range(n)]
    rhs = [F(j == k) for j in range(n) for k in range(n)]
    x, nullity = solve(Matrix(rows), rhs)
    if x is None:
        return None
    return InvariantViolation if nullity else A.element(x)


def _unit_outcome(A):
    try:
        return find_unit(A)
    except InvariantViolation:
        return InvariantViolation


def test_find_unit_matches_dense_oracle_on_constructions():
    algebras = [*_product_algebras().values(), fusion_break(), _pair_algebra(),
                make_algebra(1, ["n"], [[[F(0)]]]), spin_factor([1, 4, 9])]
    units = [_unit_outcome(A) for A in algebras]
    assert units == [_unit_oracle(A) for A in algebras]
    assert None in units and any(isinstance(e, Element) for e in units)
    for A, e in zip(algebras, units):
        if e is not None:
            assert all(multiply(e, b) == b for b in A.basis_elements())


def _unitization(table):
    """A + Q 1 for the algebra A of the table: the unit is the last basis vector."""
    n = len(table)
    out = [[list(table[i][j]) + [F(0)] if i < n and j < n else
            [F(k == (i if j == n else j)) for k in range(n + 1)]
            for j in range(n + 1)] for i in range(n + 1)]
    return _table_algebra(out)


@settings(max_examples=100, deadline=None)
@given(_commutative_tables())
# the zero product, a nilpotent x x = y, and Q x Q: no unit, no unit, unit
@example([[[F(0)] * 2, [F(0)] * 2], [[F(0)] * 2, [F(0)] * 2]])
@example([[[F(0), F(1)], [F(0), F(0)]], [[F(0), F(0)], [F(0), F(0)]]])
@example([[[F(1), F(0)], [F(0), F(0)]], [[F(0), F(0)], [F(0), F(1)]]])
def test_find_unit_matches_dense_oracle_on_random_tables(table):
    A, U = _table_algebra(table), _unitization(table)
    assert _unit_outcome(A) == _unit_oracle(A)
    assert find_unit(U) == _unit_oracle(U) == U.basis_element(len(table))
