"""Axis analysis: eigenspaces, fusion, Miyamoto involution, Frobenius form, radical."""

import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from axialq import (
    AxisReport,
    FusionReport,
    GramForm,
    check_axis,
    check_fusion,
    eigendecompose,
    frobenius_projection,
    frobenius_solve,
    fusion_verdicts,
    ideal_closure,
    jordan_identity_check,
    make_algebra,
    multiply,
    peirce_components,
    primitive_decomposition,
    quasi_definite_basis_check,
    radical,
    subalgebra_closure,
)
from axialq.errors import (
    AlgebraMismatch,
    Inconsistent,
    InvariantViolation,
    NotBasisOfAxes,
    NotIdempotent,
    NotPrimitiveAxis,
    NotSpanning,
)
from axialq.algcore import _nonzero, _product
from axialq.axial import _apply
from axialq.cli import analyze_findings
from axialq.constructions import (
    matrix_jordan,
    matsuo,
    sn_transpositions,
    spin_factor,
    two_gen_algebra,
)
from axialq.exactla import Matrix, SubspaceBasis, kernel_basis, rref, solve

from conftest import (
    by_name,
    circle_axes,
    combination,
    direct_sum,
    dynkin_cartan,
    fusion_break,
    jordan_block,
    miyamoto_image,
    non_jordan,
    registry,
    source_grid,
    weyl_reflections,
)

F = Fraction
HALF = F(1, 2)


def test_eigendecompose_requires_idempotent():
    A = by_name("spin_11").A
    with pytest.raises(NotIdempotent):
        eigendecompose(A.element([F(1), F(1), F(0)]))


def test_eigendecompose_spin_axis():
    A = by_name("spin_11").A
    a = A.element([HALF, HALF, F(0)])
    dec = eigendecompose(a)
    assert (dec.v0.dim, dec.v_half.dim, dec.v1.dim) == (1, 1, 1)
    assert dec.semisimple
    # A_0(a) is spanned by the complementary idempotent (1-u)/2
    assert dec.v0.contains([HALF, -HALF, F(0)])
    assert dec.v_half.contains([F(0), F(0), F(1)])


def test_unit_eigendecomposition():
    info = by_name("matsuo_s3")
    dec = eigendecompose(info.unit)
    assert (dec.v0.dim, dec.v_half.dim, dec.v1.dim) == (0, 0, 3)


def test_check_axis_on_all_designated(algebras):
    for info in algebras:
        for a in info.A.designated_axes:
            rep = check_axis(a)
            assert rep.is_primitive_axis, (info.name, a)
            assert rep.spectrum_ok
            assert rep.fusion_ok


def test_check_axis_flags_non_primitive():
    info = by_name("matsuo_s3")
    rep = check_axis(info.unit)  # idempotent but 1-eigenspace is everything
    assert rep.is_idempotent and rep.semisimple and not rep.primitive


def test_check_axis_on_zero():
    """0 is idempotent; its 1-eigenspace, ker(M - s) with M = 0 and s = 1, is 0."""
    for info in by_name("matsuo_s3"), by_name("twogen_0"):
        rep = check_axis(info.A.zero())
        assert rep.is_idempotent and not rep.primitive and not rep.is_primitive_axis
        assert rep.decomposition.v1.dim == 0 and rep.decomposition.v0.dim == info.A.dim


def test_check_axis_on_non_idempotent():
    rep = check_axis(2 * by_name("matsuo_s3").A.designated_axes[0])
    assert rep == AxisReport(False, False, False, False, False, None)


def test_fusion_report_fields():
    A = by_name("m2").A
    rep = check_fusion(eigendecompose(A.designated_axes[0]))
    assert rep.zero_square and rep.half_square
    assert rep.even_times_half and rep.zero_times_one
    assert rep.all_ok


def test_fusion_report_flags_half_square():
    A = fusion_break()
    rep = check_fusion(eigendecompose(A.designated_axes[0]))
    assert rep == FusionReport(True, False, True, True)
    assert not rep.all_ok


def _off_diagonal_break():
    """Basis e, u, w with e e = e, u w = w u = e and every other product 0.

    The axis e is primitive and semisimple with A_0 = <u, w>; only the
    product u w, of two distinct basis vectors of A_0, leaves A_0.
    """
    z, one = F(0), F(1)
    table = [[[one, z, z], [z, z, z], [z, z, z]],
             [[z, z, z], [z, z, z], [one, z, z]],
             [[z, z, z], [one, z, z], [z, z, z]]]
    return make_algebra(3, ["e", "u", "w"], table, [[one, z, z]])


def test_fusion_report_flags_off_diagonal_zero_square():
    dec = eigendecompose(_off_diagonal_break().designated_axes[0])
    assert dec.v0.dim == 2 and dec.v1.dim == 1
    assert check_fusion(dec) == FusionReport(False, True, True, True)


def _sparse_algebra(names, products):
    """The algebra whose nonzero products are products[(i, j)] = {k: c}, with axis e_0."""
    n = len(names)
    table = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j), out in products.items():
        for k, c in out.items():
            table[i][j][k] = table[j][i][k] = F(c)
    return make_algebra(n, names, table, [[F(int(k == 0)) for k in range(n)]])


def test_fusion_report_flags_zero_times_half():
    # A0 = <w>, A1/2 = <u>; only u w = w, in A0, leaves A1/2
    A = _sparse_algebra(["e", "u", "w"], {(0, 0): {0: 1}, (0, 1): {1: HALF}, (1, 2): {2: 1}})
    assert check_fusion(eigendecompose(A.designated_axes[0])) == FusionReport(True, True, False, True)


def test_fusion_report_flags_zero_times_one():
    # e is idempotent but not primitive: A1 = <e, f>, A0 = <w>, and f w = w != 0
    A = _sparse_algebra(["e", "f", "w"], {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 2): {2: 1}})
    dec = eigendecompose(A.designated_axes[0])
    assert (dec.v0.dim, dec.v_half.dim, dec.v1.dim) == (1, 0, 2)
    assert check_fusion(dec) == FusionReport(True, True, True, False)


# --- the Fraction formulas, an oracle for the checks on the integer ad matrix ------------

def _oracle_fusion(dec):
    """The four fusion rules by `multiply` and `SubspaceBasis.contains` over every ordered pair."""
    A = dec.axis.algebra

    def within(left, right, target):
        return all(target.contains(multiply(A.element(u), A.element(w)).coords)
                   for u in left.vectors for w in right.vectors)

    even = SubspaceBasis(A.dim, dec.v0.vectors + dec.v1.vectors)
    return FusionReport(within(dec.v0, dec.v0, dec.v0),
                        within(dec.v_half, dec.v_half, even),
                        within(even, dec.v_half, dec.v_half),
                        within(dec.v0, dec.v1, SubspaceBasis.zero(A.dim)))


def _oracle_axis(e):
    """check_axis by the Fraction formulas: eigenspaces as kernels of ad_e - lambda,
    semisimplicity as their dimensions summing to n, the spectrum witness by three
    products per basis element, `_oracle_fusion`."""
    try:
        dec = eigendecompose(e)
    except NotIdempotent:
        return AxisReport(False, False, False, False, False, None)
    ad = list(zip(*(multiply(e, b).coords for b in e.algebra.basis_elements())))
    assert (dec.v0, dec.v_half, dec.v1) == tuple(
        kernel_basis(Matrix([[x - lam * (i == j) for j, x in enumerate(row)]
                             for i, row in enumerate(ad)])) for lam in (0, HALF, 1))

    def witness(x):  # L (2L - 1) (L - 1) x = 2L^3 x - 3L^2 x + Lx
        ex = multiply(e, x)
        eex = multiply(e, ex)
        return 2 * multiply(e, eex) - 3 * eex + ex

    spectrum_ok = all(witness(x).is_zero() for x in e.algebra.basis_elements())
    semisimple = dec.v0.dim + dec.v_half.dim + dec.v1.dim == e.algebra.dim
    primitive = dec.v1.dim == 1 and not e.is_zero()
    fusion_ok = semisimple and _oracle_fusion(dec).all_ok
    return AxisReport(True, spectrum_ok, semisimple, primitive, fusion_ok, dec)


def _conftest_axes(algebras):
    """Every designated and spanning axis, unit and non-idempotent double of an axis
    of every conftest construction, and the axes of the fusion-breaking algebras and of
    the Jordan-block table."""
    axes = []
    for info in algebras:
        axes += info.A.designated_axes + (info.spanning_axes or ())
        axes += [2 * info.A.designated_axes[0]] + ([info.unit] if info.unit else [])
    axes += [*fusion_break().designated_axes, *_off_diagonal_break().designated_axes,
             *jordan_block().designated_axes]
    return list(dict.fromkeys(axes))


def _assert_integer_ad(dec):
    """Column j of M / s is e e_j by `multiply`, and s is the least positive integer
    that clears the denominators of ad_e."""
    e, n = dec.axis, dec.axis.algebra.dim
    m = [[0] * n for _ in range(n)]
    assert len(dec.cols) == n
    for j, col in enumerate(dec.cols):
        for i, x in col:
            assert type(x) is int and x
            m[i][j] = x
    cols = [multiply(e, b).coords for b in e.algebra.basis_elements()]
    for j, col in enumerate(cols):
        assert tuple(F(row[j], dec.s) for row in m) == col, (e, j)
    assert dec.s == math.lcm(*(x.denominator for col in cols for x in col)), e


def test_integer_ad_matches_products(algebras):
    axes = _conftest_axes(algebras) + [a for info in algebras for a in info.qd_basis or ()]
    axes += spin_factor([1, 4, 9]).designated_axes  # coordinates 1/2, 1/4, 1/6
    scales = set()
    for a in dict.fromkeys(axes):
        if a.is_idempotent():
            dec = eigendecompose(a)
            _assert_integer_ad(dec)
            scales.add(dec.s)
        else:
            with pytest.raises(NotIdempotent):
                eigendecompose(a)
    assert {1, 2, 4, 8} <= scales


@functools.cache
def _decompositions():
    """The decomposition of each idempotent among the conftest axes and the axes of
    spin(1, 4, 9), whose coordinates 1/2, 1/4 and 1/6 give larger scales s."""
    axes = _conftest_axes(registry()) + list(spin_factor([1, 4, 9]).designated_axes)
    return [eigendecompose(a) for a in axes if a.is_idempotent()]


@st.composite
def _int_vectors(draw, n):
    """A sparse integer vector {j: v_j} of length n: the zero vector, one nonzero entry, no
    zero entry, or some entries held as explicit zeros, as a product that cancels leaves them."""
    nonzero = st.integers(-9, 9).filter(bool)
    kind = draw(st.sampled_from(["zero", "single", "dense", "explicit zeros"]))
    if kind == "dense":
        return dict(enumerate(draw(st.lists(nonzero, min_size=n, max_size=n))))
    if kind == "explicit zeros":
        keys = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
        return {j: 0 if j == keys[0] else draw(st.integers(-9, 9)) for j in keys}
    return {draw(st.integers(0, n - 1)): draw(nonzero)} if kind == "single" else {}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_apply_matches_dense_fraction_operator(data):
    """_apply(dec, v, c, t) on the columns of M is (c s ad_a - t) v, with the dense
    Fraction matrix ad_a built from `multiply`, on {j: v_j} in and out."""
    dec = data.draw(st.sampled_from(_decompositions()))
    a, n, s = dec.axis, dec.axis.algebra.dim, dec.s
    ad_cols = [multiply(a, b).coords for b in a.algebra.basis_elements()]
    c, t = data.draw(st.sampled_from([(1, 0), (2, s), (1, s)]))
    v = data.draw(_int_vectors(n))
    applied = _apply(dec, v, c, t)
    assert set(applied) <= set(range(n)) and all(type(x) is int for x in applied.values())
    dense = [v.get(j, 0) for j in range(n)]
    assert [applied.get(i, 0) for i in range(n)] == [
        c * s * sum(col[i] * vj for col, vj in zip(ad_cols, dense)) - t * dense[i]
        for i in range(n)]


def test_check_fusion_matches_ordered_pair_reference(algebras):
    checked = 0
    for a in _conftest_axes(algebras):
        if a.is_idempotent() and eigendecompose(a).semisimple:
            dec = eigendecompose(a)
            assert check_fusion(dec) == _oracle_fusion(dec), a
            checked += 1
    assert checked > 50


@pytest.mark.parametrize("rank", [4, 5])
def test_check_fusion_matches_oracle_on_weyl_d_matsuo(rank):
    """Matsuo(W(D4)) and Matsuo(W(D5)) are not Jordan, so the search alone decides fusion."""
    A, _ = matsuo(weyl_reflections(dynkin_cartan("D", rank)))
    assert len(A.designated_axes) == rank * (rank - 1) and not jordan_identity_check(A)
    for a in A.designated_axes:
        dec = eigendecompose(a)
        assert check_fusion(dec) == _oracle_fusion(dec), a


def test_non_idempotent_with_a_cancelled_square_coordinate():
    """x x = x + z, x y = -z/2, y y = y: the square of e = x + y cancels at z, where e is 0,
    so e is idempotent; f = e + z squares to e, which differs from f only at that z."""
    F0, one, half = F(0), F(1), F(1, 2)
    zero = [F0] * 3
    A = make_algebra(3, ["x", "y", "z"], [[[one, F0, one], [F0, F0, -half], zero],
                                          [[F0, F0, -half], [F0, one, F0], zero],
                                          [zero, zero, zero]])
    _, table = A.table
    e, f = A.element([1, 1, 0]), A.element([1, 1, 1])
    for x in (e, f):
        assert _product(table, _nonzero(x.num), _nonzero(x.num)).get(2) == 0
    assert eigendecompose(e).axis == e
    with pytest.raises(NotIdempotent):
        eigendecompose(f)


def test_check_axis_matches_fraction_oracle(algebras):
    axes = _conftest_axes(algebras)
    reports = [check_axis(a) for a in axes]
    assert reports == [_oracle_axis(a) for a in axes]
    assert {(r.is_idempotent, r.primitive, r.fusion_ok) for r in reports} == {
        (False, False, False), (True, True, True), (True, False, True), (True, True, False)}


def test_frobenius_projection_matches_peirce_coefficients(algebras):
    checked = 0
    for info in algebras:
        if info.spanning_axes is None:
            continue
        g = frobenius_projection(info.A, list(info.spanning_axes))
        for a in info.spanning_axes:
            dec = eigendecompose(a)
            for b in info.A.basis_elements():
                assert g.value(a, b) == peirce_components(dec, b)[2], (info.name, a, b)
                checked += 1
    assert checked > 250


def _product_peirce(a, x):
    """x0, x_half and alpha from two products with a:
    alpha a = L(2L - 1)x and x_half = 4L(1 - L)x."""
    ax = multiply(a, x)
    aax = multiply(a, ax)
    x1, xh = 2 * aax - ax, 4 * (ax - aax)
    p = eigendecompose(a).v1.pivots[0]
    return x - x1 - xh, xh, x1.coords[p] / a.coords[p]


def test_axis_checks_read_only_the_integer_ad_matrix(monkeypatch):
    from axialq import algcore
    algebras = [matsuo(sn_transpositions(4))[0], spin_factor([1, 4, 9])]
    # elements built before Element.__init__ raises
    xs = [A.basis_elements() + [A.element([F(k % 3 - 1, k + 1) for k in range(A.dim)])]
          for A in algebras]
    pairs = [(a, x) for A, ys in zip(algebras, xs) for a in A.designated_axes for x in ys]

    def fraction_path(*args):
        raise AssertionError("a Fraction product on the integer path")

    with monkeypatch.context() as m:  # from the first decomposition on
        m.setattr(algcore, "multiply", fraction_path)
        m.setattr(algcore.Element, "__init__", fraction_path)
        for A in algebras:
            assert all(check_axis(a).is_primitive_axis for a in A.designated_axes)
            assert all(check_fusion(eigendecompose(a)).all_ok for a in A.designated_axes)
        axes = list(algebras[0].designated_axes)
        assert frobenius_projection(algebras[0], axes).value(axes[0], axes[0]) == 1
    components = [_product_peirce(a, x) for a, x in pairs]
    monkeypatch.setattr(algcore, "multiply", fraction_path)
    assert [peirce_components(eigendecompose(a), x) for a, x in pairs] == components


def test_fusion_reads_the_integer_eigenvectors_kept_on_the_decomposition(monkeypatch):
    from axialq import axial
    algebras = [matsuo(sn_transpositions(4))[0], spin_factor([1, 4, 9]), fusion_break()]
    decs = [eigendecompose(a) for A in algebras for a in A.designated_axes]
    for dec in decs:
        for space in (dec.v0, dec.v_half, dec.v1):
            # the reduced echelon rows over their least common denominator
            assert all(type(x) is int for row in space.rows for x in row)
            assert math.gcd(space.den, *(x for row in space.rows for x in row)) == 1
            assert space.rows == tuple(tuple(x * space.den for x in v) for v in space.vectors)
    reports = [check_fusion(dec) for dec in decs]
    assert {r.all_ok for r in reports} == {True, False}

    def rescale(*args):
        raise AssertionError("an eigenvector scaled to integers again")

    monkeypatch.setattr(axial, "_integral", rescale)
    monkeypatch.setattr(SubspaceBasis, "vectors", property(rescale))
    assert [check_fusion(dec) for dec in decs] == reports


@st.composite
def _axis_algebras(draw):
    """Algebras of dimension 2-5 with e_0 idempotent and e_0 e_i = lam_i e_i + mu_i e_0,
    lam_i in {0, 1/2, 1, 1/3}; the other products are random with denominators 1-3."""
    n = draw(st.integers(2, 5))
    coeff = st.one_of(st.just(F(0)), st.builds(F, st.integers(-2, 2), st.integers(1, 3)))
    table = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    table[0][0][0] = F(1)
    for i in range(1, n):
        table[0][i][i] = table[i][0][i] = draw(st.sampled_from([F(0), HALF, F(1), F(1, 3)]))
        table[0][i][0] = table[i][0][0] = draw(st.one_of(st.just(F(0)), coeff))
        for j in range(i, n):
            table[i][j] = table[j][i] = [draw(coeff) for _ in range(n)]
    return make_algebra(n, [f"e{i}" for i in range(n)], table, [[F(int(k == 0)) for k in range(n)]])


@settings(max_examples=200, deadline=None)
@given(_axis_algebras())
def test_axis_checks_match_fraction_oracle_on_random_algebras(A):
    e = A.designated_axes[0]
    report = check_axis(e)
    assert report == _oracle_axis(e)
    if report.is_idempotent:
        _assert_integer_ad(report.decomposition)
    if report.semisimple:
        assert check_fusion(report.decomposition) == _oracle_fusion(report.decomposition)


def _dense_spectrum(e):
    """L(2L - 1)(L - 1) = 0 on the dense Fraction matrix L = ad_e, built from `multiply`."""
    n = e.algebra.dim
    L = list(zip(*(multiply(e, b).coords for b in e.algebra.basis_elements())))

    def times(X, Y):
        return [[sum(X[i][k] * Y[k][j] for k in range(n)) for j in range(n)] for i in range(n)]

    L2 = times(L, L)
    L3 = times(L2, L)
    return all(2 * L3[i][j] - 3 * L2[i][j] + L[i][j] == 0 for i in range(n) for j in range(n))


def _witness_agrees(a) -> bool:
    """The packed witness, kept as ``semisimple``, equals the dense product and says whether
    the kernel dimensions sum to n; returns it."""
    dec = eigendecompose(a)
    kernels = dec.v0.dim + dec.v_half.dim + dec.v1.dim == a.algebra.dim
    assert dec.semisimple == _dense_spectrum(a) == kernels == check_axis(a).spectrum_ok, a
    return dec.semisimple


def test_spectrum_witness_matches_dense_fraction_product(algebras):
    """The witness on every idempotent among the conftest axes, on the CI file
    spectrum-break.json, whose e u = u/3 gives ad_e the eigenvalue 1/3, and on the
    Jordan-block table, whose admissible eigenvalues 1, 1/2, 1/2 share one Jordan block."""
    axes = [a for a in _conftest_axes(algebras) if a.is_idempotent()]
    assert len(axes) > 50
    for a in axes:
        _witness_agrees(a)
    e = _sparse_algebra(["e", "u"], {(0, 0): {0: 1}, (0, 1): {1: F(1, 3)}}).designated_axes[0]
    assert _witness_agrees(e) is False
    dec = eigendecompose(jordan_block().designated_axes[0])
    assert (dec.v0.dim, dec.v_half.dim, dec.v1.dim) == (0, 1, 1)
    assert _witness_agrees(dec.axis) is False


@functools.cache
def _registry_idempotents():
    """Every designated and spanning axis and unit of the registry, every sum of two
    orthogonal such axes, and the axes of Matsuo(W(D4))."""
    idempotents = []
    for info in registry():
        axes = list(dict.fromkeys(info.A.designated_axes + (info.spanning_axes or ())))
        idempotents += axes + ([info.unit] if info.unit else [])
        idempotents += [a + b for a, b in itertools.combinations(axes, 2) if (a * b).is_zero()]
    idempotents += matsuo(weyl_reflections(dynkin_cartan("D", 4)))[0].designated_axes
    return list(dict.fromkeys(idempotents))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_trace_dimension_of_v1_matches_the_kernel(data):
    """dim A1 = (2 tr M^2 - s tr M) / s^2 on a semisimple idempotent, from the dense M, equals
    the dimension of kernel_basis(M - s), and v1 has the kernel's rows, whether eigendecompose
    read v1 off the trace (dim 1) or eliminated M - s."""
    e = data.draw(st.sampled_from(_registry_idempotents()))
    dec, n = eigendecompose(e), e.algebra.dim
    m = [[0] * n for _ in range(n)]
    for j, col in enumerate(dec.cols):
        for i, x in col:
            m[i][j] = x
    kernel = kernel_basis(Matrix([[x - dec.s * (i == j) for j, x in enumerate(row)]
                                  for i, row in enumerate(m)]))
    trace2 = sum(m[i][j] * m[j][i] for i in range(n) for j in range(n))
    dim = F(2 * trace2 - dec.s * sum(m[i][i] for i in range(n)), dec.s ** 2)
    assert dec.semisimple and dim == kernel.dim, e
    assert dec.v1.rows == kernel.rows and dec.v1.pivots == kernel.pivots, e


def test_non_semisimple_idempotents_eliminate_m_minus_s(monkeypatch):
    """spectrum-break (e u = u/3) and the Jordan-block table fail the witness, so their v1
    is a kernel of the three eliminated, and primitive is true, as dim ker(M - s) = 1 gives;
    the primitive axis of fusion_break takes v1 = <e> from the trace and eliminates twice."""
    from axialq import axial
    kernels = []
    original = axial.kernel_basis
    monkeypatch.setattr(axial, "kernel_basis", lambda m: kernels.append(original(m)) or kernels[-1])
    spectrum_break = _sparse_algebra(["e", "u"], {(0, 0): {0: 1}, (0, 1): {1: F(1, 3)}})
    for A, semisimple in ((spectrum_break, False), (jordan_block(), False), (fusion_break(), True)):
        report = check_axis(A.designated_axes[0])
        v1 = report.decomposition.v1
        assert report.semisimple is semisimple and report.primitive is (v1.dim == 1) is True
        assert len(kernels) == 3 - semisimple
        assert any(k is v1 for k in kernels) is not semisimple
        kernels.clear()


_HUGE = st.builds(F, st.integers(-10 ** 40, 10 ** 40), st.integers(1, 10 ** 40))


@st.composite
def _huge_constant_axes(draw):
    """The axes of B(alpha) or of a spin factor of squares, e with e e = e and
    e u = lam u + mu e, or e with e e = e, e u = u/2 and e w = c u + w/2: numerators and
    denominators up to 10^40.  e passes the witness exactly when lam is 0, 1/2, or 1
    with mu = 0, or when c = 0 (otherwise ad_e has a Jordan block for 1/2)."""
    kind = draw(st.sampled_from(["twogen", "spin", "eigenvalue", "block"]))
    if kind == "twogen":
        return list(two_gen_algebra(draw(_HUGE)).designated_axes)
    if kind == "spin":
        roots = draw(st.lists(_HUGE.filter(bool), min_size=1, max_size=3))
        return list(spin_factor([r * r for r in roots]).designated_axes)
    if kind == "block":
        c = draw(st.one_of(st.just(F(0)), _HUGE))
        return list(_sparse_algebra(["e", "u", "w"], {(0, 0): {0: 1}, (0, 1): {1: HALF},
                                                       (0, 2): {1: c, 2: HALF}}).designated_axes)
    lam = draw(st.one_of(st.sampled_from([F(0), HALF, F(1)]), _HUGE))
    mu = draw(st.one_of(st.just(F(0)), _HUGE))
    return list(_sparse_algebra(["e", "u"], {(0, 0): {0: 1}, (0, 1): {0: mu, 1: lam}})
                .designated_axes)


@settings(max_examples=150, deadline=None)
@given(_huge_constant_axes())
@example(list(jordan_block().designated_axes))
def test_spectrum_witness_matches_dense_product_on_huge_constants(axes):
    for a in axes:
        _witness_agrees(a)


def test_miyamoto_is_order_two_automorphism():
    """tau(x) = x - 2 x_half (Miyamoto, J. Algebra 179, 1996)."""
    for name in ("spin_11", "matsuo_s4", "m2", "h3p"):
        A = by_name(name).A
        basis = A.basis_elements()
        for a in A.designated_axes:
            dec = eigendecompose(a)
            tau = functools.partial(miyamoto_image, dec)
            assert all(tau(tau(e)) == e for e in basis)
            # fixes the axis, negates the odd part
            assert tau(a) == a
            for v in map(A.element, dec.v_half.vectors):
                assert tau(v) == -v
            for i, j in itertools.combinations_with_replacement(range(A.dim), 2):
                assert tau(multiply(basis[i], basis[j])) == multiply(tau(basis[i]), tau(basis[j]))


def test_fusion_verdicts_match_the_search_on_every_axis():
    """The verdicts carried along Miyamoto orbits equal check_axis's search on each axis:
    the designated and spanning axes of every registry algebra, circle axes of the spin
    factor, non-idempotent and non-semisimple axes, Matsuo(W(D4)) and Matsuo(W(D5)),
    fusion_break, and fusion_break + Matsuo(S3), a failing axis beside passing ones.  In
    Matsuo(S3) tau_b swaps a and c, so it carries the failing verdict of 2a to 2c."""
    a, b, c = by_name("matsuo_s3").A.designated_axes
    lists = [axes for info in registry()
             for axes in (info.A.designated_axes, info.spanning_axes) if axes]
    lists += [circle_axes(), (2 * circle_axes()[0],) + circle_axes()[:3], (b, 2 * a, 2 * c),
              jordan_block().designated_axes, fusion_break().designated_axes]
    lists += [matsuo(weyl_reflections(dynkin_cartan("D", r)))[0].designated_axes for r in (4, 5)]
    mixed = direct_sum(fusion_break(), matsuo(sn_transpositions(3))[0]).designated_axes
    for axes in lists + [mixed]:
        assert fusion_verdicts(axes) == [check_axis(a).fusion_ok for a in axes], axes
    assert fusion_verdicts(mixed) == [False, True, True, True]


def test_only_primitive_axes_that_pass_transport(monkeypatch):
    """fusion_verdicts applies tau_p only where it is an automorphism, for a primitive p that
    passes: not for the failing axis of fusion_break + Matsuo(S3), and not for e in the algebra
    e e = e, e f = f, e h = h/2, f f = h, where e passes the four rules with A1 = <e, f>, but
    f f = h is odd, so tau_e is not one.  Searches apply M to their own axis only."""
    from axialq import axial
    searching, applied = [], []
    check_fusion, apply = axial.check_fusion, axial._apply

    def searched(dec):
        searching.append(dec)
        try:
            return check_fusion(dec)
        finally:
            searching.pop()

    def applying(dec, *rest):
        if not searching:
            applied.append(dec.axis)
        return apply(dec, *rest)

    monkeypatch.setattr(axial, "check_fusion", searched)
    monkeypatch.setattr(axial, "_apply", applying)
    odd = _sparse_algebra(["e", "f", "h"], {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: HALF},
                                             (1, 1): {2: 1}})
    e, h = odd.basis_element(0), odd.basis_element(2)
    mixed = direct_sum(fusion_break(), matsuo(sn_transpositions(3))[0]).designated_axes
    for axes, expected in (((e, e + h, e - h), [True] * 3), (mixed, [False, True, True, True])):
        report = check_axis(axes[0])
        assert report.fusion_ok is expected[0] and report.primitive is (axes is mixed)
        assert fusion_verdicts(axes) == expected
        assert axes[0] not in applied
        applied.clear()


def test_peirce_components_reassemble():
    info = by_name("matsuo_s4")
    A = info.A
    a = A.designated_axes[0]
    dec = eigendecompose(a)
    x = A.element([F(1), F(-2), F(3), F(1, 2), F(0), F(5)])
    x0, xh, alpha = peirce_components(dec, x)
    assert x0 + xh + alpha * a == x
    assert multiply(a, x0).is_zero()
    assert multiply(a, xh) == HALF * xh
    # the projection coefficient equals the form value (a, x)
    assert alpha == info.g.value(a, x)


def test_form_and_components_reject_elements_of_another_algebra():
    A, B = matrix_jordan(2), matrix_jordan(2)
    g, _ = frobenius_solve(A, A.designated_axes)
    a, b = A.designated_axes[0], B.designated_axes[0]
    assert a.coords == b.coords and g.value(a, a) == 1
    for x, y in ((a, b), (b, a), (b, b)):
        with pytest.raises(AlgebraMismatch):
            g.value(x, y)
    with pytest.raises(AlgebraMismatch):
        peirce_components(eigendecompose(a), b)


def _stacked_solve_components(dec, x):
    """Reference split: x's coordinates on v0, v_half and the axis, by one solve."""
    cols = list(dec.v0.vectors) + list(dec.v_half.vectors) + [dec.axis.coords]
    coords, _ = solve(Matrix(list(zip(*cols))), x.coords)
    d0, dh = dec.v0.dim, dec.v_half.dim
    A = x.algebra
    return (A.element(combination(dec.v0, coords[:d0])),
            A.element(combination(dec.v_half, coords[d0:d0 + dh])), coords[d0 + dh])


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["matsuo_s4", "m3", "spin_111", "twogen_14"]), st.data())
def test_peirce_components_match_stacked_solve(name, data):
    info = by_name(name)
    a = data.draw(st.sampled_from(info.spanning_axes))
    x = info.A.element(data.draw(st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        min_size=info.A.dim, max_size=info.A.dim)))
    dec = eigendecompose(a)
    assert peirce_components(dec, x) == _stacked_solve_components(dec, x)


def test_frobenius_constructions_agree(algebras):
    for info in algebras:
        if info.spanning_axes is None:
            continue
        proj = frobenius_projection(info.A, list(info.spanning_axes))
        solved, free = frobenius_solve(info.A, list(info.A.designated_axes))
        assert proj.gram == solved.gram, info.name
        assert free == 0, info.name


def test_form_is_symmetric_invariant_normalized(algebras):
    for info in algebras:
        g = info.g
        assert g.gram == Matrix(list(zip(*g.gram.entries())))
        assert g.is_invariant(), info.name
        for a in info.A.designated_axes:
            assert g.value(a, a) == 1


def _unit_norms(g: GramForm, axes) -> bool:
    """(a, a) = 1 on every axis, as a^T G a in plain Fractions from a.coords and the Gram
    entries, never through GramForm.value."""
    gram = g.gram.entries()
    return all(sum(x * gram[i][j] * y for i, x in enumerate(a.coords) if x
                   for j, y in enumerate(a.coords) if y) == 1 for a in axes)


def test_both_constructions_are_normalized_on_their_axes(algebras):
    """Neither construction evaluates the form on its axes: the solve has the row (a, a) = 1
    for each axis, and the projection solves a^T G = phi_a exactly."""
    for info in algebras:
        axes = list(info.A.designated_axes)
        assert _unit_norms(frobenius_solve(info.A, axes)[0], axes), info.name
        if info.spanning_axes is not None:
            span = list(info.spanning_axes)
            assert _unit_norms(frobenius_projection(info.A, span), span), info.name


@pytest.mark.parametrize("family, rank, solve_too", [("D", 4, True), ("E", 6, False)])
def test_weyl_matsuo_forms_are_normalized_on_every_reflection(family, rank, solve_too):
    """Matsuo(W(D4)) through both constructions; W(E6) through the projection only, since its
    solve has 36 * 37 / 2 = 666 unknowns."""
    A, _ = matsuo(weyl_reflections(dynkin_cartan(family, rank)))
    axes = list(A.designated_axes)
    assert _unit_norms(frobenius_projection(A, axes), axes)
    if solve_too:
        assert _unit_norms(frobenius_solve(A, axes)[0], axes)


def test_is_invariant_rejects_perturbed_matsuo_gram():
    A, predicted = matsuo(sn_transpositions(4))
    assert GramForm(A, predicted).is_invariant()
    entries = [list(r) for r in predicted.entries()]
    i, j = next((i, j) for i in range(A.dim) for j in range(i + 1, A.dim)
                if entries[i][j] == F(1, 4))
    entries[i][j] = entries[j][i] = F(1, 3)
    assert not GramForm(A, Matrix(entries)).is_invariant()


def test_frobenius_solve_free_dim_of_unnormalized_summand():
    from axialq import make_algebra
    z = F(0)
    # Q + Q: e*e = e, f*f = f, e*f = 0; only e's normalization fixes (e, e)
    A = make_algebra(2, ["e", "f"], [
        [[F(1), z], [z, z]],
        [[z, z], [z, F(1)]],
    ])
    e, f = A.basis_element(0), A.basis_element(1)
    g, free = frobenius_solve(A, [e])
    assert free == 1
    assert g.gram == Matrix([[F(1), z], [z, z]])  # the free (f, f) is set to 0
    g, free = frobenius_solve(A, [e, f])
    assert free == 0
    assert g.gram == Matrix([[F(1), z], [z, F(1)]])
    # larger algebras with free unknowns, against the full n^3 system
    S, pool = _axis_pools()["matsuo_s3+twogen_14"]
    B0, b0_axes = _axis_pools()["twogen_0"]
    for alg, axes, free in [(S, pool[:1], 1), (S, pool[3:], 1), (S, pool, 0),
                            (B0, b0_axes[:1], 1)]:
        g, f = frobenius_solve(alg, axes)
        assert f == free and (g.gram, f) == _reference_frobenius_solve(alg, axes)


def test_frobenius_projection_rejects_non_spanning():
    A = by_name("h3").A
    with pytest.raises(NotSpanning):
        frobenius_projection(A, list(A.designated_axes))  # 3 axes, dim 6


def test_frobenius_projection_rejects_non_axis():
    A = by_name("matsuo_s3").A
    unit = by_name("matsuo_s3").unit
    with pytest.raises(NotPrimitiveAxis):
        frobenius_projection(A, [unit] * 3)


def test_frobenius_solve_inconsistent():
    from axialq import make_algebra
    z = F(0)
    A = make_algebra(2, ["p", "q"], [
        [[F(1), z], [z, z]],
        [[z, z], [z, F(1)]],
    ])
    p = A.basis_element(0)
    # normalizing on both p and 2p demands (p,p) = 1 and 4(p,p) = 1 at once
    with pytest.raises(Inconsistent):
        frobenius_solve(A, [p, 2 * p])


def _reference_frobenius_solve(A, axes):
    """The invariance system on all n^3 triples plus (a, a) = 1, by ``solve``."""
    n = A.dim
    unknowns = {(i, j): u for u, (i, j) in
                enumerate((i, j) for i in range(n) for j in range(i, n))}

    def gidx(i, j):
        return unknowns[min(i, j), max(i, j)]

    rows, c = [], source_grid(A)
    for i, j, k in itertools.product(range(n), repeat=3):
        row = [F(0)] * len(unknowns)
        for l in range(n):
            row[gidx(l, k)] += c[i][j][l]
            row[gidx(i, l)] -= c[j][k][l]
        if any(row):
            rows.append(row)
    rhs = [F(0)] * len(rows) + [F(1)] * len(axes)
    for a in axes:
        row = [F(0)] * len(unknowns)
        for i, j in itertools.product(range(n), repeat=2):
            row[gidx(i, j)] += a.coords[i] * a.coords[j]
        rows.append(row)
    m = Matrix(rows)
    x, _ = solve(m, rhs)
    if x is None:
        raise Inconsistent("reference system is inconsistent")
    return Matrix([[x[gidx(i, j)] for j in range(n)] for i in range(n)]), m.cols - rref(m).rank


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Inconsistent:
        return Inconsistent


@functools.cache
def _axis_pools():
    """Algebras with every axis known here.  A subset of the axes of B(0) or
    of the direct sum (one summand left unnormalized) leaves free unknowns."""
    pools = {}
    for name in ["matsuo_s4", "m3", "spin_111", "twogen_14", "h3", "twogen_0"]:
        info = by_name(name)
        pool = list(info.A.designated_axes)
        pools[name] = info.A, pool + [a for a in info.spanning_axes or () if a not in pool]
    A = direct_sum(by_name("matsuo_s3").A, by_name("twogen_14").A)
    pools["matsuo_s3+twogen_14"] = A, list(A.designated_axes)
    return pools


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_axis_pools())), st.data())
def test_frobenius_solve_matches_full_system(name, data):
    """Subsets of axes: free unknowns, non-spanning sets and, with a rescaled
    repeat of an axis, inconsistent normalizations."""
    A, pool = _axis_pools()[name]
    axes = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=len(pool),
                              unique_by=lambda a: a.coords))
    scale = data.draw(st.sampled_from([None, -1, 2, HALF]))
    if scale is not None:
        axes.append(scale * axes[0])
    solved = _outcome(frobenius_solve, A, axes)
    if solved is not Inconsistent:
        solved = (solved[0].gram, solved[1])
    assert solved == _outcome(_reference_frobenius_solve, A, axes)


def _reference_is_invariant(A, gram):
    """(e_i e_j, e_k) = (e_i, e_j e_k) on every triple, from the products' form values."""
    n, g = A.dim, gram.entries()
    gc = [[[sum(c * g[l][k] for l, c in enumerate(cij)) for k in range(n)] for cij in plane]
          for plane in source_grid(A)]
    return all(gc[i][j][k] == gc[j][k][i] for i, j, k in itertools.product(range(n), repeat=3))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_axis_pools())), st.data())
def test_is_invariant_matches_full_check(name, data):
    A, pool = _axis_pools()[name]
    gram = frobenius_solve(A, pool[:1])[0].gram
    assert GramForm(A, gram).is_invariant() and _reference_is_invariant(A, gram)
    i = data.draw(st.integers(0, A.dim - 1))
    j = data.draw(st.integers(i, A.dim - 1))
    delta = data.draw(st.fractions(min_value=-2, max_value=2, max_denominator=4)
                      .filter(bool))
    entries = [list(r) for r in gram.entries()]
    entries[i][j] += delta
    entries[j][i] = entries[i][j]
    perturbed = Matrix(entries)
    assert GramForm(A, perturbed).is_invariant() == _reference_is_invariant(A, perturbed)


@pytest.mark.parametrize("name", ["matsuo_s4", "m3", "twogen_14", "W(D4)"])
def test_is_invariant_matches_full_check_on_every_one_entry_perturbation(name):
    """Invariance is linear in G and the Frobenius Gram G is invariant, so G + t(E_ij + E_ji)
    is invariant iff E_ij + E_ji is, whatever t != 0: one perturbation per entry i <= j
    covers every symmetric one-entry change.  B(1/4)'s table has denominator 4, and
    Matsuo(W(D4)) is not Jordan."""
    if name == "W(D4)":
        A, _ = matsuo(weyl_reflections(dynkin_cartan("D", 4)))
        gram = frobenius_projection(A, list(A.designated_axes)).gram
    else:
        A, gram = by_name(name).A, by_name(name).g.gram
    verdicts = []
    for i, j in itertools.combinations_with_replacement(range(A.dim), 2):
        entries = [list(r) for r in gram.entries()]
        entries[i][j] += F(1, 3)
        entries[j][i] = entries[i][j]
        perturbed = Matrix(entries)
        verdicts.append(GramForm(A, perturbed).is_invariant())
        assert verdicts[-1] == _reference_is_invariant(A, perturbed), (name, i, j)
    assert len(verdicts) == A.dim * (A.dim + 1) // 2 and not all(verdicts)


def test_solved_forms_pass_the_full_invariance_check():
    """gram_for reports the solve's form invariant unchecked: its rows are the invariance
    equations.  The n^3 reference agrees on the designated axes of every registry algebra,
    Matsuo(W(D4)) and the Jordan-block table."""
    algebras = [info.A for info in registry()]
    algebras += [matsuo(weyl_reflections(dynkin_cartan("D", 4)))[0], jordan_block()]
    for A in algebras:
        assert _reference_is_invariant(A, frobenius_solve(A, list(A.designated_axes))[0].gram)


def test_gram_spin_matches_bilinear_form():
    info = by_name("spin_111")
    # form is 2*(identity) in the basis (1, v1, v2, v3)
    assert info.g.gram == Matrix([[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]])


def test_gram_form_rejects_asymmetric_and_misshapen_matrices():
    A = spin_factor([1, 1])
    with pytest.raises(InvariantViolation):
        GramForm(A, Matrix([[2, 1, 0], [0, 2, 0], [0, 0, 2]]))
    for rows in ([], [[2, 0], [0, 2]], [[2, 0, 0], [0, 2, 0]], [[2, 0], [0, 2], [0, 0]],
                 [[2, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]):
        with pytest.raises(ValueError):
            GramForm(A, Matrix(rows))


def test_gram_matrix_jordan_is_trace_form():
    info = by_name("m3")
    A = info.A
    # basis e_ij in row-major order; tr(e_ij e_kl) = delta_jk delta_il
    n = 3
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    i = a * n + b
                    j = c * n + d
                    expected = F(1) if (b == c and a == d) else F(0)
                    assert info.g.gram[i, j] == expected


def test_radical_and_semisimplicity():
    bad = by_name("twogen_0")
    rad = radical(bad.A, bad.g)
    assert rad.dim == 1
    assert not rad.is_zero()
    for name in ("twogen_12", "matsuo_s3", "m2", "h3", "h4p"):
        info = by_name(name)
        assert radical(info.A, info.g).is_zero(), name


def test_radical_rejects_non_ideal_kernel():
    A = by_name("spin_11").A
    # a symmetric invariant-looking matrix that is NOT the Frobenius form:
    # kernel of diag(0,2,2) is the span of 1, which is not an ideal
    fake = GramForm(A, Matrix([[F(0), F(0), F(0)],
                               [F(0), F(2), F(0)],
                               [F(0), F(0), F(2)]]))
    with pytest.raises(InvariantViolation):
        radical(A, fake)


def test_radical_runs_no_closure_and_returns_an_ideal(monkeypatch):
    """The kernel of an invariant form is an ideal: (xy, z) = (x, yz) = 0 for x in it.  So
    ``radical`` runs no closure (every closure goes through ``algcore._closure``), and what
    it returns is its own ideal closure, on every registry algebra, on Matsuo(W(D4)) and on
    the non-Jordan table, whose radicals are nonzero."""
    from axialq import algcore
    from axialq.cli import gram_for
    cases = [(info.A, info.g) for info in registry()]
    cases += [(A, gram_for(A)[0]) for A in (matsuo(weyl_reflections(dynkin_cartan("D", 4)))[0],
                                            non_jordan())]
    closures, original = [], algcore._closure
    monkeypatch.setattr(algcore, "_closure", lambda *args: closures.append(args) or original(*args))
    rads = [radical(A, g) for A, g in cases]
    assert closures == []
    assert [r.dim for r in rads[-2:]] == [2, 2]
    for (A, _), rad in zip(cases, rads):
        assert ideal_closure(A, [A.element(row) for row in rad.rows]) == rad


def test_radical_rejects_a_form_that_is_not_invariant():
    """The identity Gram on Matsuo(S3) is symmetric with kernel 0, but (e_1 e_1, e_2) = 0 and
    (e_1, e_1 e_2) = 1/4: ``radical`` raises instead of returning dimension 0.  An invariant
    form of another copy of the algebra is rejected too."""
    A, _ = matsuo(sn_transpositions(3))
    identity = GramForm(A, Matrix([[F(int(i == j)) for j in range(3)] for i in range(3)]))
    assert kernel_basis(identity.gram).is_zero() and not identity.is_invariant()
    with pytest.raises(InvariantViolation):
        radical(A, identity)
    B, _ = matsuo(sn_transpositions(3))
    g = frobenius_projection(B, list(B.designated_axes))
    assert g.is_invariant() and radical(B, g).is_zero()
    with pytest.raises(InvariantViolation):
        radical(A, g)


def test_subspace_work_leaves_the_fraction_view_unbuilt(monkeypatch):
    """Axis checks, fusion, both closures and the radical run on the integer rows: no
    SubspaceBasis they build has its Fraction ``vectors`` read."""
    built, init = [], SubspaceBasis.__init__

    def recording(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(SubspaceBasis, "__init__", recording)
    for info in registry():
        A, axes = info.A, list(info.A.designated_axes)
        monkeypatch.setattr(A, "decompositions", {})  # decompose afresh
        for a in axes:
            report = check_axis(a)
            if report.semisimple:
                check_fusion(report.decomposition)
        subalgebra_closure(A, axes[:2])
        ideal_closure(A, [axes[0] - axes[-1]])
        radical(A, info.g)
    assert len(built) > 100
    assert not any(hasattr(s, "_vectors") for s in built)


def test_matsuo_d4_has_a_nonzero_radical_ideal():
    """Gram rank 10 = 4 * 5 / 2 of dimension 12: the radical is a nonzero ideal, so
    the algebra is not Jordan, and it still has a unit."""
    A, _ = matsuo(weyl_reflections(dynkin_cartan("D", 4)))
    assert A.dim == 12
    findings = analyze_findings(A, {})
    assert findings["radical_dim"] == 2 and not findings["semisimple"]
    assert findings["jordan"] is False and findings["unit"] is not None
    assert all(axis["primitive"] and axis["fusion"] for axis in findings["axes"])


def test_h7_analysis_solves_its_form_and_finds_the_identity():
    """H7, the ladder's top: the seven diagonal axes span 7 of 28 dimensions, so the form
    comes from the invariance solve on 406 unknowns, which leaves no entry free."""
    from axialq.constructions import sym_jordan
    findings = analyze_findings(sym_jordan(7), {})
    assert findings["gram_notes"] == {"solve_free_dim": 0, "axes_span": False}
    assert findings["radical_dim"] == 0 and findings["jordan"] is True
    assert findings["unit"] == ["1"] * 7 + ["0"] * 21


def test_quasi_definite_basis_check():
    info = by_name("m2")
    ok, witness = quasi_definite_basis_check(list(info.qd_basis), info.g)
    assert ok and witness is None
    # for form value 1 on distinct axes we need an isotropic direction, so
    # use an indefinite spin factor: shifting an axis by a null vector
    # orthogonal to it keeps it an axis and keeps the pairing at 1
    from axialq.constructions import spin_factor
    sp = spin_factor([1, 1, -1])
    g, _ = frobenius_solve(sp, list(sp.designated_axes))
    a = sp.element([HALF, HALF, F(0), F(0)])
    b = sp.element([HALF, HALF, HALF, HALF])
    assert a.is_idempotent() and b.is_idempotent()
    assert g.value(a, b) == 1
    ok2, witness2 = quasi_definite_basis_check([a, b], g)
    assert not ok2
    assert witness2 is not None and witness2[2] == 1


def test_quasi_definite_basis_check_rejects_non_bases():
    info = by_name("twogen_0")
    a, b = info.A.designated_axes
    s = info.A.basis_element(2)  # s s = -s/2 in B(0): not an idempotent
    for X, message in (([], "empty axis list"),
                       ([a, b, a], "axes are linearly dependent"),
                       ([a, s], f"{s!r} is not an axis")):
        with pytest.raises(NotBasisOfAxes) as exc:
            quasi_definite_basis_check(X, info.g)
        assert str(exc.value) == message


def test_positive_definite_forms_are_quasi_definite(algebras):
    """(a - b, a - b) = 2 - 2(a, b) > 0 for distinct normalized axes of a definite form.

    sympy decides definiteness."""
    sympy = pytest.importorskip("sympy")
    definite = 0
    for info in algebras:
        gram = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row]
                             for row in info.g.gram.entries()])
        if not gram.is_positive_definite:
            continue
        definite += 1
        for a, b in itertools.combinations(info.A.designated_axes, 2):
            assert info.g.value(a, a) == info.g.value(b, b) == 1, info.name
            assert info.g.value(a, b) < 1, info.name
    assert 0 < definite < len(algebras)


def test_invariance_checked_once_per_analysis(monkeypatch):
    """gram_for's forms are invariant by construction: analyze decides invariance only inside
    the projection, once on spanning Matsuo(S4), and never on spin(1, 1), whose 2 axes in
    dimension 3 leave the form to the solve.  ``radical`` reads the kept verdict through
    ``is_invariant``, so only the calls that find no verdict kept are decisions."""
    from axialq import axial
    calls = []
    original = axial.GramForm.is_invariant

    def counting(form):
        if form._invariant is None:
            calls.append(form.algebra)
        return original(form)

    monkeypatch.setattr(axial.GramForm, "is_invariant", counting)
    spanning, _ = matsuo(sn_transpositions(4))
    not_spanning = spin_factor([1, 1])  # 2 axes in dimension 3
    for A, expected in ((spanning, [spanning]), (not_spanning, [])):
        calls.clear()
        assert analyze_findings(A, {})["gram_invariant"]
        assert calls == expected


def _count_witness(monkeypatch) -> list:
    """The columns of M that each later `_spectrum_witness` call receives."""
    from axialq import axial
    calls = []
    original = axial._spectrum_witness

    def counting(s, cols):
        calls.append(cols)
        return original(s, cols)

    monkeypatch.setattr(axial, "_spectrum_witness", counting)
    return calls


def test_analyze_forms_each_axis_columns_once(monkeypatch):
    """The spectrum witness forms every column of M^2 and M^3; the projection reads only
    row p of (2M - s)M, as a row vector times M, so `analyze` forms the columns once per
    axis."""
    A, predicted = matsuo(sn_transpositions(5))
    calls = _count_witness(monkeypatch)
    findings = analyze_findings(A, {})
    assert calls == [eigendecompose(a).cols for a in A.designated_axes]
    assert findings["gram_notes"]["axes_span"]
    assert findings["gram"] == [[str(x) for x in row] for row in predicted.entries()]


def test_spectrum_witness_runs_once_per_idempotent(monkeypatch):
    """The witness is decided with the decomposition and kept on it: two axis checks, the
    primitivity test and the fusion search on one axis run it once."""
    a = matsuo(sn_transpositions(4))[0].designated_axes[0]
    calls = _count_witness(monkeypatch)
    first, second = check_axis(a), check_axis(a)
    assert first == second and first.is_primitive_axis
    check_fusion(primitive_decomposition(a))
    assert calls == [eigendecompose(a).cols]


def test_analyze_takes_no_form_value(monkeypatch):
    """(a, a) = 1 holds by construction on both of gram_for's paths, so analyze evaluates the
    form on no axis: not on spanning Matsuo(S5), nor on spin(1, 4, 9), whose 3 axes do not
    span its dimension 4 and leave the form to the solve."""
    from axialq import axial
    calls = []
    original = axial.GramForm.value

    def recording(form, x, y):
        calls.append((x, y))
        return original(form, x, y)

    monkeypatch.setattr(axial.GramForm, "value", recording)
    spanning, _ = matsuo(sn_transpositions(5))
    not_spanning = spin_factor([1, 4, 9])
    for A in (spanning, not_spanning):
        findings = analyze_findings(A, {})
        assert findings["gram_notes"]["axes_span"] is (A is spanning)
        assert findings["axis_norms"] == ["1"] * len(A.designated_axes)
        assert calls == []


def test_fusion_checked_only_where_read(monkeypatch):
    """analyze searches fusion only on a non-Jordan algebra, at most once per Miyamoto orbit:
    on W(D4), whose 12 axes are one orbit, at most rank-many times, since each search that
    passes adds a reflection's involution; on a Jordan algebra the Peirce theorem gives it.
    The form, capacity and unit never search."""
    from axialq import axial, build_unit, capacity_decomposition, find_unit
    calls = []
    original = axial.check_fusion

    def counting(dec):
        calls.append(dec.axis)
        return original(dec)

    monkeypatch.setattr(axial, "check_fusion", counting)
    A, _ = matsuo(sn_transpositions(4))
    findings = analyze_findings(A, {})
    assert findings["jordan"] and all(a["fusion"] for a in findings["axes"])
    assert calls == []
    for B, most in ((matsuo(weyl_reflections(dynkin_cartan("D", 4)))[0], 4), (fusion_break(), 1)):
        findings = analyze_findings(B, {})
        assert not findings["jordan"]
        assert 1 <= len(calls) <= most and len(set(calls)) == len(calls)
        assert set(calls) <= set(B.designated_axes)
        calls.clear()
    axes = list(A.designated_axes)
    g, _ = frobenius_solve(A, axes)
    e = find_unit(A)
    capacity_decomposition(A, axes, e, g)
    assert build_unit(A, axes, g) == e
    assert calls == []


def test_no_library_path_builds_fraction_rows(monkeypatch):
    """Every elimination below the API is read off a SubspaceBasis's integer rows: the forms
    of spanning Matsuo(S4) (projection) and spin(1, 4, 9) (solve), their radicals and units,
    and the unit, capacity and chain of M3+ and H4' call rref at none of its aliases, and
    the recursive unit reads no Element.coords."""
    import sys
    from axialq import (algcore, build_unit, capacity_decomposition, exactla, find_unit,
                        special_chain)
    from axialq.cli import gram_for
    from axialq.constructions import sym_jordan_prime
    calls, reads, original, coords = [], [], exactla.rref, algcore.Element.coords.fget

    def counting(m):
        calls.append(m)
        return original(m)

    aliases = [(module, attr) for name, module in list(sys.modules.items())
               if name.split(".")[0] == "axialq"
               for attr, value in vars(module).items() if value is original]
    assert {module.__name__ for module, _ in aliases} == {"axialq", "axialq.exactla"}
    for module, attr in aliases:
        monkeypatch.setattr(module, attr, counting)
    monkeypatch.setattr(algcore.Element, "coords",
                        property(lambda e: reads.append(e) or coords(e)))
    projected, solved = matsuo(sn_transpositions(4))[0], spin_factor([1, 4, 9])
    for A, spans in ((projected, True), (solved, False)):
        g, notes = gram_for(A)
        assert notes["axes_span"] is spans
        assert radical(A, g).is_zero() and find_unit(A) is not None
    for A in (matrix_jordan(3), sym_jordan_prime(4)):
        axes = list(A.designated_axes)
        g, _ = gram_for(A)
        e = find_unit(A)
        reads.clear()
        assert build_unit(A, axes, g) == e
        assert reads == []
        capacity = capacity_decomposition(A, axes, e, g).capacity
        assert len(special_chain(A, axes, g).dims) == capacity + 1
    assert calls == []


def test_peirce_theorem_path_matches_the_search():
    """Every registry algebra is Jordan, so analyze takes each axis's fusion from the Peirce
    theorem: the search passes on every designated axis, and analyze's axis findings are
    those of check_axis on the full path."""
    from axialq.fileio import format_rational
    for info in registry():
        A = info.A
        assert jordan_identity_check(A), info.name
        full = []
        for a in A.designated_axes:
            assert check_fusion(eigendecompose(a)).all_ok, (info.name, a)
            rep = check_axis(a)
            full.append({"coords": [format_rational(c) for c in a.coords],
                         "idempotent": rep.is_idempotent, "semisimple": rep.semisimple,
                         "primitive": rep.primitive, "fusion": rep.fusion_ok})
        assert analyze_findings(A, {})["axes"] == full, info.name


def _exact_raise(kind, fn, *args):
    with pytest.raises(kind) as info:
        fn(*args)
    assert info.type is kind


def test_error_kinds_of_non_axes():
    from axialq import Word, capacity_decomposition, word_to_axis, x_of
    info = by_name("matsuo_s3")
    A, g, unit = info.A, info.g, info.unit
    a, b, c = A.designated_axes
    not_idempotent = 2 * a
    assert not not_idempotent.is_idempotent() and unit.is_idempotent()
    for bad in (not_idempotent, unit):
        _exact_raise(NotPrimitiveAxis, frobenius_projection, A, [bad, b, c])
        _exact_raise(NotPrimitiveAxis, capacity_decomposition, A, [a, b, bad], unit, g)
    _exact_raise(NotIdempotent, x_of, not_idempotent, b, g)
    _exact_raise(NotIdempotent, x_of, a, not_idempotent, g)
    _exact_raise(NotIdempotent, word_to_axis, A, [a, not_idempotent], Word((0, 1)), g)


def test_each_axis_decomposed_once(monkeypatch):
    from axialq import axial, build_unit, capacity_decomposition, find_unit, special_chain
    from axialq.cli import analyze_findings
    A, _ = matsuo(sn_transpositions(4))
    built = []  # (algebra, axis coordinates) per decomposition built; keeps each algebra alive
    original = axial.EigDecomposition

    def counting(axis, *rest):
        built.append((axis.algebra, axis.coords))
        return original(axis, *rest)

    monkeypatch.setattr(axial, "EigDecomposition", counting)
    analyze_findings(A, {})
    axes = list(A.designated_axes)
    g, _ = frobenius_solve(A, axes)
    e = find_unit(A)
    capacity_decomposition(A, axes, e, g)
    assert build_unit(A, axes, g) == e
    special_chain(A, axes, g)
    assert {c for alg, c in built if alg is A} >= {a.coords for a in axes}
    assert any(alg is not A for alg, _ in built)  # the unit recursion's subalgebras
    assert len(built) == len(set(built))
    assert all(eigendecompose(a) is eigendecompose(a) for a in axes)  # one object per axis
