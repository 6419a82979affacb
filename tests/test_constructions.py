"""Example-algebra factories: spin factors, matrix Jordan algebras, symmetric
matrices, Matsuo algebras, the two-generated family, and H_n' = Matsuo(S_n)."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from axialq import check_axis, find_unit, frobenius_solve, jordan_identity_check, multiply
from axialq import constructions
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

from conftest import by_name, dynkin_cartan, isomorphic_by, source_grid, weyl_reflections

F = Fraction
HALF = F(1, 2)


# --- permutations ------------------------------------------------------------

def test_permutation_basics():
    t12 = Permutation.transposition(3, 1, 2)
    t23 = Permutation.transposition(3, 2, 3)
    t13 = Permutation.transposition(3, 1, 3)
    identity = Permutation(range(3))
    assert t12 * t12 == identity  # t12 is its own inverse
    assert (t12 * t23).mapping == (1, 2, 0)  # (p * q)(x) = p(q(x)): 0 -> 1, 1 -> 2, 2 -> 0
    assert t12 * t23 * t12 * t23 * t12 * t23 == identity  # |t12 t23| = 3
    # t12 is an involution, and t12^t23 = t23 t12 t23 = t13 is the conjugate validate returns
    assert MatsuoInput(3, (t12,)).validate() == {}
    assert MatsuoInput(3, (t12, t23)).validate() == {(0, 1): t13}
    assert t23 * t12 * t23 == t13
    assert t12.cycle_string() == "(1 2)" and repr(t13) == "Permutation(1 3)"
    assert identity.cycle_string() == "()"
    assert len({t12, Permutation([1, 0, 2]), t13}) == 2
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        t12 * Permutation.transposition(4, 1, 2)


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


def _blocks(lengths, point):
    """The permutation of consecutive blocks of the given lengths that sends point i of a
    block of length p to point point(i, p) mod p of the same block."""
    mapping, offset = [], 0
    for p in lengths:
        mapping += [offset + point(i, p) % p for i in range(p)]
        offset += p
    return Permutation(mapping)


@pytest.mark.parametrize("primes", [(3, 5, 7, 11, 13, 17),
                                    (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)])
def test_matsuo_input_validation_is_bounded(monkeypatch, primes):
    """A non-involution, or two involutions whose product has order lcm(primes) (255255, or
    about 3.7e12 with primes up to 37), is rejected after at most one product per
    permutation and two conjugations per pair, whatever the orders."""
    passes = []
    monkeypatch.setattr(Permutation, "__mul__", lambda p, q: passes.append("*") or
                        Permutation([p.mapping[x] for x in q.mapping]))
    conjugate = constructions._conjugate
    monkeypatch.setattr(constructions, "_conjugate", lambda c, d: passes.append("^") or
                        conjugate(c, d))
    degree = sum(primes)
    rotation = _blocks(primes, lambda i, p: i + 1)  # one cycle per block
    with pytest.raises(NotInvolution) as exc:
        MatsuoInput(degree, (rotation,)).validate()
    assert str(exc.value) == f"{rotation!r} does not have order 2" and passes == ["*"]
    # the reflections i -> -i and i -> 1 - i of each p-gon: their product i -> i - 1
    c, d = _blocks(primes, lambda i, p: -i), _blocks(primes, lambda i, p: 1 - i)
    passes.clear()
    with pytest.raises(BadProductOrder) as exc:
        MatsuoInput(degree, (c, d)).validate()
    assert str(exc.value) == f"|{c!r} {d!r}| > 3" and passes == ["*", "*", "^", "^"]


def test_matsuo_conjugacy_closure_error():
    # {(1 2), (2 3)} is not closed: (1 2)^(2 3) = (1 3) is missing
    t12 = Permutation.transposition(3, 1, 2)
    t23 = Permutation.transposition(3, 2, 3)
    with pytest.raises(ConjugacyClosureError):
        matsuo(MatsuoInput(3, (t12, t23)))


# --- Matsuo input against sympy's product orders -----------------------------------

def _oracle_matsuo(inp):
    """What matsuo must do with inp, decided from the orders of the products c d that sympy
    computes: the (exception type, message) it raises, or the dense structure constants and
    the Gram matrix it builds."""
    SymPermutation = pytest.importorskip("sympy.combinatorics").Permutation
    D, n = inp.involutions, inp.degree
    for p in D:
        if p.degree != n:
            return ValueError, "permutation degree mismatch"
        if SymPermutation(list(p.mapping)).order() != 2:
            return NotInvolution, f"{p!r} does not have order 2"
    sym = [SymPermutation(list(p.mapping)) for p in D]
    order3 = []
    for i, j in itertools.combinations(range(len(D)), 2):
        order = (sym[i] * sym[j]).order()
        if order == 1 or order > 3:
            return BadProductOrder, f"|{D[i]!r} {D[j]!r}| {'= 1' if order == 1 else '> 3'}"
        if order == 3:
            order3.append((i, j))
    grid = [[[F(0)] * len(D) for _ in D] for _ in D]
    gram = [[F(int(i == j)) for j in range(len(D))] for i in range(len(D))]
    for i in range(len(D)):
        grid[i][i][i] = F(1)
    for i, j in order3:
        conj = Permutation((sym[j] * sym[i] * sym[j]).array_form)  # d c d in either order
        if conj not in D:
            return ConjugacyClosureError, f"{conj!r} = c^d is not in the involution set"
        for k, c in ((i, F(1, 4)), (j, F(1, 4)), (D.index(conj), F(-1, 4))):
            grid[i][j][k] = grid[j][i][k] = c
        gram[i][j] = gram[j][i] = F(1, 4)
    return tuple(tuple(map(tuple, plane)) for plane in grid), Matrix(gram)


def _matsuo_outcome(inp):
    try:
        A, gram = matsuo(inp)
    except (ValueError, NotInvolution, BadProductOrder, ConjugacyClosureError) as exc:
        return type(exc), str(exc)
    return source_grid(A), gram


@st.composite
def _involution_sets(draw):
    """Up to 6 permutations of 2 to 6 points, drawn from a pool of at most 4, so repeats are
    common: products of disjoint transpositions, with now and then the identity, a
    permutation of any cycle type or one of a point more; or the transpositions within the
    blocks of a partition of the points, which make a 3-transposition set, or some of them."""
    n = draw(st.integers(2, 6))
    if draw(st.booleans()):
        sizes = draw(st.lists(st.integers(1, n), min_size=1, max_size=3))
        points = iter(draw(st.permutations(range(n + sum(sizes)))))
        blocks = [[next(points) for _ in range(k)] for k in sizes]
        invs = [Permutation.transposition(n + sum(sizes), a + 1, b + 1)
                for block in blocks for a, b in itertools.combinations(block, 2)]
        invs = draw(st.permutations(invs))
        if draw(st.booleans()):  # a subset, which need not be closed under conjugation
            invs = invs[:draw(st.integers(0, len(invs)))]
        return MatsuoInput(n + sum(sizes), tuple(invs))

    def permutation():
        kind = draw(st.integers(0, 15))
        if kind == 0:
            return Permutation(draw(st.permutations(range(n))))
        m = n + (kind == 1)
        points = draw(st.permutations(range(m)))
        mapping = list(range(m))
        swaps = 0 if kind == 2 else draw(st.integers(1, m // 2))
        for a, b in itertools.islice(zip(points[::2], points[1::2]), swaps):
            mapping[a], mapping[b] = b, a
        return Permutation(mapping)

    pool = [permutation() for _ in range(draw(st.integers(1, 4)))]
    return MatsuoInput(n, tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))))


@settings(max_examples=300, deadline=None)
@given(_involution_sets())
def test_matsuo_matches_the_product_order_oracle(inp):
    assert _matsuo_outcome(inp) == _oracle_matsuo(inp)


def _t(n, i, j):
    return Permutation.transposition(n, i, j)


@pytest.mark.parametrize("inp, kind", [
    (MatsuoInput(3, (_t(3, 1, 2), _t(3, 2, 3), _t(3, 1, 2))), BadProductOrder),  # = 1
    (MatsuoInput(3, (_t(3, 1, 2), Permutation(range(3)))), NotInvolution),      # identity
    (MatsuoInput(3, (_t(3, 1, 2), _t(4, 1, 2))), ValueError),                    # degree
    (MatsuoInput(4, (Permutation([1, 0, 3, 2]), _t(4, 1, 3))), BadProductOrder),  # order 4
    (MatsuoInput(5, (Permutation([1, 0, 3, 2, 4]), Permutation([0, 2, 1, 4, 3]))),
     BadProductOrder),                                                              # order 5
    (MatsuoInput(5, (_t(5, 1, 2), Permutation([0, 2, 1, 4, 3]))), BadProductOrder),  # order 6
    (MatsuoInput(3, (_t(3, 1, 2), _t(3, 2, 3))), ConjugacyClosureError),
    (sn_transpositions(5), None),
])
def test_matsuo_matches_the_oracle_on_each_outcome(inp, kind):
    expected = _oracle_matsuo(inp)
    assert _matsuo_outcome(inp) == expected
    assert expected[0] is kind if kind else isinstance(expected[1], Matrix)


@pytest.mark.parametrize("family, rank", [("D", 4), ("D", 5), ("E", 6)])
def test_matsuo_of_weyl_reflections_matches_the_oracle(family, rank):
    inp = weyl_reflections(dynkin_cartan(family, rank))
    grid, gram = _oracle_matsuo(inp)
    assert _matsuo_outcome(inp) == (grid, gram)
    # every reflection fails to commute with 2(h - 2) others, h the Coxeter number
    h = {("D", 4): 6, ("D", 5): 8, ("E", 6): 12}[family, rank]
    assert all(sum(1 for x in row if x == F(1, 4)) == 2 * (h - 2) for row in gram.entries())


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
