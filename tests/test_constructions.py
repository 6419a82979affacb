"""Example-algebra factories: spin factors, matrix Jordan algebras, symmetric
matrices, Matsuo algebras, the two-generated family, and H_n' = Matsuo(S_n)."""

from fractions import Fraction

import pytest

from axialq import check_axis, find_unit, frobenius_solve, jordan_identity_check, multiply
from axialq.constructions import (
    MatsuoInput,
    Permutation,
    matrix_jordan,
    matsuo,
    sn_transpositions,
    spin_factor,
    sym_jordan,
    sym_jordan_prime,
    two_gen_algebra,
)
from axialq.errors import (
    BadProductOrder,
    ConjugacyClosureError,
    DegenerateForm,
    NotInvolution,
)
from axialq.exactla import Matrix

from conftest import by_name, isomorphic_by, source_grid

F = Fraction
HALF = F(1, 2)


# --- permutations ------------------------------------------------------------

def test_permutation_basics():
    t12 = Permutation.transposition(3, 1, 2)
    t23 = Permutation.transposition(3, 2, 3)
    assert t12.order() == 2
    assert (t12 * t23).order() == 3
    assert t12.inverse() == t12
    assert t12.conjugate_by(t23) == Permutation.transposition(3, 1, 3)
    assert t12.cycle_string() == "(1 2)"
    assert Permutation(range(3)).cycle_string() == "()"
    assert (t12 * t12).is_identity()
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])


def test_matsuo_input_validation():
    t = Permutation.transposition(4, 1, 2)
    not_inv = Permutation([1, 2, 0, 3])  # 3-cycle
    with pytest.raises(NotInvolution):
        MatsuoInput(4, (t, not_inv)).validate()
    # (1 2)(3 4) and (1 3) have product of order 4
    c = Permutation([1, 0, 3, 2])
    d = Permutation.transposition(4, 1, 3)
    with pytest.raises(BadProductOrder):
        MatsuoInput(4, (c, d)).validate()


def test_matsuo_conjugacy_closure_error():
    # {(1 2), (2 3)} is not closed: (1 2)^(2 3) = (1 3) is missing
    t12 = Permutation.transposition(3, 1, 2)
    t23 = Permutation.transposition(3, 2, 3)
    with pytest.raises(ConjugacyClosureError):
        matsuo(MatsuoInput(3, (t12, t23)))


# --- spin factors ------------------------------------------------------------

def test_spin_factor_table():
    A = spin_factor([1, 1])
    one, u, v = A.basis_elements()
    assert multiply(u, u) == one
    assert multiply(v, v) == one
    assert multiply(u, v).is_zero()
    assert multiply(one, u) == u
    assert find_unit(A) == one


def test_spin_factor_axes_only_for_squares():
    A = spin_factor([4, 3])
    assert len(A.designated_axes) == 1
    # sqrt(4) = 2, so the axis is (1 + v1/2)/2
    assert A.designated_axes[0].coords == (HALF, F(1, 4), F(0))


def test_spin_factor_rejects_degenerate_form():
    with pytest.raises(DegenerateForm):
        spin_factor([1, 0])


def test_spin_factor_nonsquare_diag_product():
    A = spin_factor([2])
    one, u = A.basis_elements()
    assert multiply(u, u) == 2 * one
    assert A.designated_axes == ()


# --- matrix Jordan and its quasi-definite basis --------------------------------

def test_matrix_jordan_product():
    A = matrix_jordan(2)
    e11, e12, e21, e22 = A.basis_elements()
    assert multiply(e11, e11) == e11
    assert multiply(e11, e22).is_zero()
    assert multiply(e12, e21) == HALF * (e11 + e22)
    assert multiply(e11, e12) == HALF * e12


def test_qd_basis_matrix_n2_reproduction():
    # the deterministic parameter scan yields these four rank-1 idempotents
    axes = matrix_jordan(2).designated_axes
    coords = [a.coords for a in axes]
    assert coords[0] == (F(1), F(0), F(0), F(0))                 # e11
    assert (F(0), F(0), F(0), F(1)) in coords                    # e22
    assert (F(-1), F(1), F(-2), F(2)) in coords
    assert (F(-1), F(2), F(-1), F(2)) in coords


def test_qd_basis_matrix_sizes_and_axis_quality():
    for n in (2, 3, 4):
        axes = matrix_jordan(n).designated_axes
        assert len(axes) == n * n
        for a in axes:
            assert a.is_idempotent()
        # independence is certified inside the factory; spot-check n = 2 axes
    for a in matrix_jordan(2).designated_axes:
        assert check_axis(a).is_primitive_axis


def test_matrix_jordan_unit():
    A = matrix_jordan(3)
    e = find_unit(A)
    expected = [F(1) if i % 4 == 0 else F(0) for i in range(9)]
    assert e.coords == tuple(expected)


# --- symmetric-matrix algebras --------------------------------------------------

def test_sym_jordan_products():
    A = sym_jordan(2)
    e11, e22, s12 = A.basis_elements()
    assert multiply(s12, s12) == e11 + e22
    assert multiply(e11, s12) == HALF * s12
    assert find_unit(A) == e11 + e22


def test_sym_jordan_prime_axes_and_products():
    A = sym_jordan_prime(3)
    a12, a13, a23 = A.basis_elements()
    for a in A.basis_elements():
        assert a.is_idempotent()
        assert check_axis(a).is_primitive_axis
    # a12 a13 = (a12 + a13 - a23)/4 -- exactly the Matsuo product at eta = 1/2
    assert multiply(a12, a13) == F(1, 4) * (a12 + a13 - a23)


def test_sym_jordan_prime_has_no_unit_entry_level():
    # H_3' is 3-dimensional and unital (it is the Matsuo algebra of S_3)
    A = sym_jordan_prime(3)
    assert find_unit(A) is not None


def _dense_jordan(a, b):
    """(ab + ba)/2 of square matrices given as lists of rows of Fractions."""
    n = len(a)
    return [[HALF * sum(a[i][k] * b[k][j] + b[i][k] * a[k][j] for k in range(n))
             for j in range(n)] for i in range(n)]


def _dense_grid(basis, coords_of):
    """Structure constants of (ab + ba)/2 on the basis matrices, each product read by
    coords_of and checked to be the combination of the basis it names."""
    grid = []
    for a in basis:
        plane = []
        for b in basis:
            p = _dense_jordan(a, b)
            coords = coords_of(p)
            assert [[sum(c * m[i][j] for c, m in zip(coords, basis)) for j in range(len(p))]
                    for i in range(len(p))] == p
            plane.append(tuple(coords))
        grid.append(tuple(plane))
    return tuple(grid)


def _matrix(n, entries):
    """The n x n matrix of Fractions with the given {(i, j): value} entries."""
    return [[F(entries.get((i, j), 0)) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sym_jordan_tables_match_dense_products(n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # H_n: e_ii, then e_ij + e_ji for i < j
    index = [(i, i) for i in range(n)] + pairs
    basis = [_matrix(n, {(i, j): 1, (j, i): 1}) for i, j in index]
    assert source_grid(sym_jordan(n)) == _dense_grid(basis, lambda p: [p[i][j] for i, j in index])
    # H_n': a_ij = (e_i - e_j)(e_i - e_j)^T / 2 for i < j
    basis = [_matrix(n, {(i, i): HALF, (j, j): HALF, (i, j): -HALF, (j, i): -HALF})
             for i, j in pairs]
    grid = _dense_grid(basis, lambda p: [-2 * p[i][j] for i, j in pairs])
    assert source_grid(sym_jordan_prime(n)) == grid
    # the trace form of H_n' is the Gram matrix predicted for Matsuo(S_n)
    _, gram = matsuo(sn_transpositions(n))
    assert [[sum(_dense_jordan(a, b)[k][k] for k in range(n)) for b in basis]
            for a in basis] == [list(r) for r in gram.entries()]


# --- Matsuo algebras -------------------------------------------------------------

def test_matsuo_s3_table_and_gram():
    A, gram = matsuo(sn_transpositions(3))
    a, b, c = A.basis_elements()
    assert multiply(a, b) == F(1, 4) * (a + b - c)
    assert gram == Matrix([[1, F(1, 4), F(1, 4)],
                           [F(1, 4), 1, F(1, 4)],
                           [F(1, 4), F(1, 4), 1]])
    g, _ = frobenius_solve(A, list(A.designated_axes))
    assert g.gram == gram


def test_matsuo_s4_gram_prediction():
    info = by_name("matsuo_s4")
    _, predicted = matsuo(sn_transpositions(4))
    assert info.g.gram == predicted
    # diagonal 1; off-diagonal 0 (commuting) or 1/4 (non-commuting)
    for i in range(6):
        for j in range(6):
            if i == j:
                assert predicted[i, j] == 1
            else:
                assert predicted[i, j] in (F(0), F(1, 4))


def test_matsuo_commuting_pair_product_zero():
    A, _ = matsuo(sn_transpositions(4))
    names = list(A.basis_names)
    i, j = names.index("(1 2)"), names.index("(3 4)")
    assert multiply(A.basis_element(i), A.basis_element(j)).is_zero()


# --- two-generated family ----------------------------------------------------------

def test_two_gen_structure_and_unit():
    A = two_gen_algebra(F(1, 4))
    a, b, s = A.basis_elements()
    assert multiply(a, b) == HALF * a + HALF * b + s
    pi = (F(1, 4) - 1) / 2
    assert multiply(s, a) == pi * a
    assert find_unit(A) == s / pi
    g, _ = frobenius_solve(A, list(A.designated_axes))
    assert g.value(a, b) == F(1, 4)
    assert g.value(a, s) == g.value(b, s) == F(-3, 8)


def test_two_gen_alpha_one_not_unital():
    A = two_gen_algebra(1)
    assert find_unit(A) is None


def test_two_gen_half_unit():
    A = two_gen_algebra(HALF)
    s = A.basis_element(2)
    assert find_unit(A) == -4 * s


# --- Jordan identity and H_n' = Matsuo(S_n) -------------------------------------

def test_all_factories_are_jordan(algebras):
    for info in algebras:
        assert jordan_identity_check(info.A), info.name


def _hn_prime_onto_matsuo(n, perm=None):
    """Whether a_ij -> (i j), or the basis permutation perm, carries H_n' onto Matsuo(S_n)."""
    H = sym_jordan_prime(n)
    M, _ = matsuo(sn_transpositions(n))
    return isomorphic_by(H, M, range(H.dim) if perm is None else perm)


def test_hn_prime_matsuo_isomorphism():
    assert _hn_prime_onto_matsuo(3)
    assert _hn_prime_onto_matsuo(4)
    assert _hn_prime_onto_matsuo(7)


def test_hn_prime_matsuo_negative_control():
    # at n = 3 every basis permutation is an automorphism (the product is
    # fully symmetric), so the negative control needs n = 4
    assert _hn_prime_onto_matsuo(3, [1, 0, 2])
    assert not _hn_prime_onto_matsuo(4, [1, 0, 2, 3, 4, 5])


def test_isomorphism_check_rejects_bad_correspondence():
    with pytest.raises(ValueError):
        _hn_prime_onto_matsuo(3, [0, 0, 1])
