"""Algebra core: construction, products, closures, units, restriction."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from axialq import (
    Word,
    ad_matrix,
    find_unit,
    ideal_closure,
    jordan_identity_check,
    make_algebra,
    multiply,
    restrict_to_subspace,
    subalgebra_closure,
)
from axialq.errors import AlgebraMismatch, CommutativityViolation, NotIdempotent
from axialq.exactla import SubspaceBasis

from conftest import by_name, random_element

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


def test_make_algebra_validates_axes():
    A = _pair_algebra()
    with pytest.raises(NotIdempotent):
        make_algebra(2, list(A.basis_names), A.structure, axes=[[F(2), F(0)]])


def test_element_arithmetic_and_mismatch():
    A = _pair_algebra()
    B = _pair_algebra()
    p, q = A.basis_element(0), A.basis_element(1)
    assert (p + q) * (p - q) == p - q
    assert (3 * p) / 3 == p
    assert (-p).coords == (F(-1), F(0))
    with pytest.raises(AlgebraMismatch):
        multiply(p, B.basis_element(0))


def test_multiply_is_bilinear_spot_check():
    info = by_name("matsuo_s4")
    A = info.A
    import random
    rng = random.Random(7)
    for _ in range(10):
        x, y, zz = (random_element(A, rng) for _ in range(3))
        c = F(rng.randint(-3, 3), rng.randint(1, 3))
        assert multiply(x + c * y, zz) == multiply(x, zz) + c * multiply(y, zz)


def test_ad_matrix_matches_products():
    A = by_name("m2").A
    x = A.element([F(1), F(2), F(-1), F(1, 3)])
    m = ad_matrix(x)
    for j in range(A.dim):
        assert m.col(j) == multiply(x, A.basis_element(j)).coords


def test_word_letters_and_length():
    w = Word(((0, 1), 0))
    assert w.letters == [0, 1, 0]
    assert len(w) == 3


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


def test_restrict_to_subspace_roundtrip():
    info = by_name("h3")
    A = info.A
    from axialq import eigendecompose
    dec = eigendecompose(A.designated_axes[0])
    sub, _ = restrict_to_subspace(A, dec.v0)
    assert sub.dim == dec.v0.dim
    # products in the restriction match products upstairs
    for i in range(sub.dim):
        for j in range(sub.dim):
            up_i = A.element(dec.v0.vectors[i])
            up_j = A.element(dec.v0.vectors[j])
            down = multiply(sub.basis_element(i), sub.basis_element(j))
            assert dec.v0.lift(down.coords) == multiply(up_i, up_j).coords


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
