"""Jordan-type-1/2 machinery: x_a(b), identities, recursion, capacity, chains."""

import collections
import itertools
import tracemalloc
from fractions import Fraction

import pytest

from axialq import (
    Word,
    a0_axis_basis,
    build_unit,
    capacity_decomposition,
    eigendecompose,
    find_unit,
    frobenius_projection,
    multiply,
    pair_decompose,
    pair_identity_suite,
    special_chain,
    triple_form_identity,
    word_to_axis,
    x_of,
)
from axialq.constructions import matsuo, sn_transpositions
from axialq.errors import FormValueOne, NotSpanning, NotUnit, SameAxis

from conftest import by_name, circle_axes

F = Fraction
HALF = F(1, 2)


# --- pair decomposition and x_a(b) -----------------------------------------

def test_pair_decompose_spin_example():
    info = by_name("spin_11")
    A = info.A
    a = A.element([HALF, HALF, F(0)])
    b = A.element([HALF, F(0), HALF])
    pd = pair_decompose(a, b, info.g)
    assert pd.alpha == HALF
    assert pd.a0 + pd.a_half + pd.alpha * a == b
    assert multiply(a, pd.a0).is_zero()
    assert multiply(a, pd.a_half) == HALF * pd.a_half


def test_x_of_spin_example():
    info = by_name("spin_11")
    A = info.A
    a = A.element([HALF, HALF, F(0)])
    b = A.element([HALF, F(0), HALF])
    x = x_of(a, b, info.g)
    # complementary idempotent (1 - u)/2
    assert x == A.element([HALF, -HALF, F(0)])
    assert x.is_idempotent()
    assert info.g.value(x, x) == 1
    assert multiply(a, x).is_zero()


def test_x_of_rejects_same_axis_and_form_value_one():
    info = by_name("spin_11")
    a = circle_axes()[0]
    with pytest.raises(SameAxis):
        x_of(a, a, info.g)
    from axialq.constructions import spin_factor
    from axialq import frobenius_solve
    sp = spin_factor([1, 1, -1])
    g, _ = frobenius_solve(sp, list(sp.designated_axes))
    a1 = sp.element([HALF, HALF, F(0), F(0)])
    b1 = sp.element([HALF, HALF, HALF, HALF])
    with pytest.raises(FormValueOne):
        x_of(a1, b1, g)


def test_x_of_matsuo_collapse():
    # in the Matsuo algebra of S_3 the projections of the other two axes
    # onto A_0(a) coincide: x_a(b) = x_a(c)
    info = by_name("matsuo_s3")
    a, b, c = info.A.designated_axes
    assert x_of(a, b, info.g) == x_of(a, c, info.g)


def test_pair_identity_suite_collects_everything():
    info = by_name("matsuo_s4")
    axes = info.A.designated_axes
    seen_alphas = set()
    for a, b in itertools.combinations(axes, 2):
        rep = pair_identity_suite(a, b, info.g)
        assert rep.all_ok
        assert not rep.vacuous
        seen_alphas.add(rep.alpha)
    # S_4 transpositions: commuting pairs give 0, non-commuting give 1/4
    assert seen_alphas == {F(0), F(1, 4)}


def test_pair_identity_zero_product_zero_form():
    info = by_name("m2")
    e11, e22 = info.A.designated_axes[0], info.qd_basis[3]
    rep = pair_identity_suite(e11, e22, info.g)
    assert rep.alpha == 0
    assert rep.zero_product_zero_form
    assert multiply(e11, e22).is_zero()
    # a non-quasi-definite algebra can have (a, b) = 0 with ab != 0, so only
    # the forward implication is asserted; such a pair still passes
    a = info.A.element([F(-1), F(1), F(-2), F(2)])
    b = info.A.element([F(-1), F(2), F(-1), F(2)])
    rep2 = pair_identity_suite(a, b, info.g)
    assert rep2.alpha == 0 and not multiply(a, b).is_zero()
    assert rep2.all_ok


# --- triple formula ---------------------------------------------------------

def test_triple_form_matsuo_s3_both_sides_one():
    info = by_name("matsuo_s3")
    a, b, c = info.A.designated_axes
    r = triple_form_identity(a, b, c, info.g)
    assert r.lhs == r.rhs == 1


def test_triple_form_on_spin_circle():
    info = by_name("spin_11")
    checked = 0
    for a, b, c in itertools.combinations(circle_axes(10), 3):
        r = triple_form_identity(a, b, c, info.g)
        assert r.equal
        checked += 1
    assert checked >= 20


def test_triple_form_degenerate_denominator():
    # alpha = gamma = 0 gives denominator -1, fine; alpha = 0, gamma = 1 is
    # rejected earlier; engineer denominator 0 with alpha + gamma = 1 + alpha*gamma,
    # i.e. (1 - alpha)(1 - gamma) = 0 ... impossible for alpha, gamma != 1.
    # So the error surface is FormValueOne instead:
    from axialq.constructions import spin_factor
    from axialq import frobenius_solve
    sp = spin_factor([1, 1, -1])
    g, _ = frobenius_solve(sp, list(sp.designated_axes))
    a = sp.element([HALF, HALF, F(0), F(0)])
    b = sp.element([HALF, HALF, HALF, HALF])
    c = sp.element([HALF, -HALF, F(0), F(0)])
    assert c.is_idempotent()
    with pytest.raises(FormValueOne):
        triple_form_identity(a, b, c, g)


# --- axis bases of A_0(a) and word reduction --------------------------------

def test_a0_axis_basis_spans_zero_eigenspace():
    info = by_name("matsuo_s4")
    axes = list(info.A.designated_axes)
    a = axes[0]
    basis = a0_axis_basis(a, axes, info.g)
    dec = eigendecompose(a)
    assert len(basis) >= dec.v0.dim
    for x in basis:
        assert multiply(a, x).is_zero()
        assert x.is_idempotent()


def test_word_to_axis_single_letter_and_pair():
    info = by_name("spin_11")
    A = info.A
    a = A.element([HALF, HALF, F(0)])
    b = A.element([HALF, F(0), HALF])
    axis, scale, corr = word_to_axis(A, [a, b], Word(0), info.g)
    assert (axis, scale) == (a, F(1)) and corr.is_zero()
    # a*a = a: the same axis, rescaled by nothing
    axis, scale, corr = word_to_axis(A, [a, b], Word((0, 0)), info.g)
    assert (axis, scale) == (a, F(1)) and corr.is_zero()
    axis2, scale2, corr2 = word_to_axis(A, [a, b], Word((0, 1)), info.g)
    assert axis2 == x_of(a, b, info.g)
    # alpha = 1/2 so the length-2 scale is 2/(alpha - 1) = -4
    assert scale2 == F(-4)
    assert scale2 * (multiply(a, b) + corr2) == axis2


def test_word_to_axis_longer_words():
    info = by_name("matsuo_s4")
    G = list(info.A.designated_axes[:3])

    def evaluate(tree):
        if isinstance(tree, int):
            return G[tree]
        return multiply(evaluate(tree[0]), evaluate(tree[1]))

    for tree in [((0, 1), 2), ((0, 1), (1, 2)), (((0, 1), 2), 0)]:
        axis, scale, corr = word_to_axis(info.A, G, Word(tree), info.g)
        assert axis.is_idempotent()
        assert info.g.value(axis, axis) == 1
        assert scale * (evaluate(tree) + corr) == axis


def test_word_to_axis_repeated_letter():
    info = by_name("spin_11")
    A = info.A
    a = A.element([HALF, HALF, F(0)])
    b = A.element([HALF, F(0), HALF])
    # ((a*b)*a): the left subword reduces to x_a(b)-type axes, then pairs with a
    axis, scale, corr = word_to_axis(A, [a, b], Word(((0, 1), 0)), info.g)
    assert axis.is_idempotent()
    assert scale * (multiply(multiply(a, b), a) + corr) == axis


def test_retained_elements_stay_small():
    """A product in Matsuo(S5) (dim 10) retains at most 256 B under tracemalloc, averaged
    over 300 products, and word_to_axis hands back elements without a built coords view."""
    A = matsuo(sn_transpositions(5))[0]
    axes = list(A.designated_axes)
    X = axes + [a + b for a, b in itertools.combinations(axes, 2)]
    pairs = list(itertools.combinations(X, 2))[:300]
    out = [None] * len(pairs)
    tracemalloc.start()
    try:
        for i, (x, y) in enumerate(pairs):
            out[i] = multiply(x, y)
        retained = tracemalloc.get_traced_memory()[0] / len(pairs)
    finally:
        tracemalloc.stop()
    assert A.dim == 10 and retained <= 256
    g = frobenius_projection(A, axes)
    for tree in [((0, 1), 2), ((0, 1), (2, 3)), (((0, 1), 2), 4)]:
        axis, _, corr = word_to_axis(A, axes, Word(tree), g)
        assert not hasattr(axis, "_coords") and not hasattr(corr, "_coords")
    assert len(axis.coords) == A.dim and hasattr(axis, "_coords")  # the view, once read


# --- recursive unit ----------------------------------------------------------

def test_build_unit_agrees_with_solver(algebras):
    checked = 0
    for info in algebras:
        if info.qd_basis is None:
            continue
        e = build_unit(info.A, list(info.qd_basis), info.g)
        assert e == info.unit, info.name
        checked += 1
    assert checked >= 8


def test_build_unit_rejects_degenerate_algebra():
    # in two_gen_algebra(0) the radical makes (b, x_a(b)) = 1, so the
    # quasi-definiteness gate trips before the recursion can start
    info = by_name("twogen_0")
    A = info.A
    a, b = A.designated_axes
    x = x_of(a, b, info.g)
    assert info.g.value(b, x) == 1
    with pytest.raises(FormValueOne):
        build_unit(A, [a, b, x], info.g)


def test_build_unit_rejects_wrong_size():
    info = by_name("matsuo_s3")
    with pytest.raises(NotSpanning):
        build_unit(info.A, list(info.A.designated_axes[:2]), info.g)


# --- capacity and chains ------------------------------------------------------

def test_capacity_spin():
    info = by_name("spin_11")
    A = info.A
    a = A.element([HALF, HALF, F(0)])
    b = A.element([HALF, F(0), HALF])
    res = capacity_decomposition(A, [a, b], info.unit, info.g)
    assert res.capacity == 2
    assert list(res.summands) == [a, A.element([HALF, -HALF, F(0)])]
    assert res.summands[0] + res.summands[1] == info.unit


def test_capacity_matsuo_s3():
    info = by_name("matsuo_s3")
    a, b, c = info.A.designated_axes
    res = capacity_decomposition(info.A, [a, b, c], info.unit, info.g)
    assert res.capacity == 2
    assert res.summands[0] == a
    assert res.summands[1] == info.A.element([F(-1, 3), F(2, 3), F(2, 3)])


def test_capacity_matrix_jordan():
    for name, expected in (("m2", 2), ("m3", 3)):
        info = by_name(name)
        res = capacity_decomposition(info.A, list(info.qd_basis), info.unit, info.g)
        assert res.capacity == expected, name
        total = info.A.zero()
        for s in res.summands:
            total = total + s
        assert total == info.unit


def test_capacity_rejects_non_unit():
    info = by_name("matsuo_s3")
    # the unit of a second copy of the algebra has the right coordinates
    twin_unit = find_unit(matsuo(sn_transpositions(3))[0])
    assert twin_unit.coords == info.unit.coords
    for e in (info.A.designated_axes[0], twin_unit):
        with pytest.raises(NotUnit):
            capacity_decomposition(info.A, list(info.A.designated_axes), e, info.g)


def test_capacity_rejects_non_generating():
    info = by_name("matsuo_s3")
    with pytest.raises(NotSpanning):
        capacity_decomposition(info.A, [info.A.designated_axes[0]],
                               info.unit, info.g)


def test_special_chain_matsuo_s3():
    info = by_name("matsuo_s3")
    chain = special_chain(info.A, list(info.A.designated_axes), info.g)
    assert chain.dims == [3, 1, 0]
    assert chain.links[-1].special_axis is None


def test_special_chain_matrix_jordan():
    info = by_name("m2")
    chain = special_chain(info.A, list(info.qd_basis), info.g)
    assert chain.dims[0] == 4 and chain.dims[-1] == 0
    assert len(chain.dims) == len(chain.links)
    # dims strictly decrease
    assert all(x > y for x, y in zip(chain.dims, chain.dims[1:]))


def test_orthogonality_propagation(algebras):
    """qa = 0 and q x_a(b) = 0 imply qb = 0, for axes q, a, b with (a, b) != 1."""
    held = collections.Counter()
    for info in algebras:
        axes = list(dict.fromkeys(info.spanning_axes or info.A.designated_axes))
        for a, b in itertools.permutations(axes, 2):
            if info.g.value(a, b) == 1:
                continue
            x = x_of(a, b, info.g)
            for q in axes:
                if multiply(q, a).is_zero() and multiply(q, x).is_zero():
                    assert multiply(q, b).is_zero(), (info.name, q, a, b)
                    held[info.name] += 1
    # the hypothesis holds 54 times, all of them in M3+ and H3
    assert held == {"m3": 36, "h3": 18}
