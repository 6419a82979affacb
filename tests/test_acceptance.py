"""Acceptance criteria, one test per criterion.

Every equality below is exact rational equality (zero tolerance).  The
conftest terminal-summary hook prints one PASS/FAIL line per criterion at
the end of the run.
"""

import functools
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

from axialq import (
    SubspaceBasis,
    build_unit,
    capacity_decomposition,
    check_axis,
    eigendecompose,
    find_unit,
    frobenius_projection,
    frobenius_solve,
    jordan_identity_check,
    multiply,
    pair_identity_suite,
    radical,
    restrict_to_subspace,
    triple_form_identity,
    x_of,
)
from axialq.cli import run_command
from axialq.constructions import (
    matrix_jordan,
    matsuo,
    sn_transpositions,
    spin_factor,
    sym_jordan_prime,
)
from axialq.errors import AxialError
from axialq.exactla import Matrix, SubspaceBasis, rref
from axialq.fileio import AlgebraFile

from conftest import (
    axis_pairs,
    by_name,
    circle_axes,
    combination,
    isomorphic_by,
    matvec,
    miyamoto_image,
    random_element,
    registry,
    restricted_gram,
)

F = Fraction
HALF = F(1, 2)


@functools.cache
def larger(name):
    """M4+ (dim 16) or Matsuo(S5) (dim 10), with its designated axes and projection form."""
    A = matrix_jordan(4) if name == "m4" else matsuo(sn_transpositions(5))[0]
    axes = list(A.designated_axes)
    return A, axes, frobenius_projection(A, axes)


def test_criterion_01_spin_factor_reproduction():
    A = spin_factor([1, 1])
    one, u, v = A.basis_elements()
    # multiplication table: u^2 = v^2 = 1, uv = 0
    assert multiply(u, u) == one
    assert multiply(v, v) == one
    assert multiply(u, v).is_zero()
    # Frobenius form: (1,1) = (u,u) = (v,v) = 2, zero off-diagonal
    info = by_name("spin_11")
    assert info.g.gram == Matrix([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    # both constructions agree
    solved, free = frobenius_solve(A, list(A.designated_axes))
    projected = frobenius_projection(info.A, list(info.spanning_axes))
    assert solved.gram == projected.gram == info.g.gram
    assert free == 0
    # all designated axes pass fusion
    for a in A.designated_axes:
        rep = check_axis(a)
        assert rep.is_primitive_axis and rep.fusion_ok
    # capacity on {(1+u)/2, (1+v)/2}: exactly 2 orthogonal axes summing to 1
    a = info.A.element([HALF, HALF, F(0)])
    b = info.A.element([HALF, F(0), HALF])
    res = capacity_decomposition(info.A, [a, b], info.unit, info.g)
    assert res.capacity == 2
    assert res.summands == (a, info.A.element([HALF, -HALF, F(0)]))
    s1, s2 = res.summands
    assert multiply(s1, s2).is_zero()
    assert s1 + s2 == info.unit


def test_criterion_02_matrix_jordan_reproduction():
    m2 = by_name("m2")
    e11 = m2.A.basis_element(0)
    e12 = m2.A.basis_element(1)
    assert m2.g.value(e11, e11 + e12) == 1
    for n in (2, 3, 4):
        axes = matrix_jordan(n).designated_axes
        assert len(axes) == n * n
        coords = [a.coords for a in axes]
        # linear independence
        assert rref(Matrix(coords)).rank == n * n
        # rank-1 idempotents
        for a in axes:
            assert a.is_idempotent()
            mat = Matrix([a.coords[i * n:(i + 1) * n] for i in range(n)])
            assert rref(mat).rank == 1
        # pairwise trace-form values != 1, against an independently built form
        trace = Matrix([[F(1) if (b == c and a2 == d) else F(0)
                         for c in range(n) for d in range(n)]
                        for a2 in range(n) for b in range(n)])
        def val(x, y):
            gv = matvec(trace, y.coords)
            return sum(p * q for p, q in zip(x.coords, gv))
        for x, y in itertools.combinations(axes, 2):
            assert val(x, y) != 1
        for x in axes:
            assert val(x, x) == 1
    # capacities: 2 for M_2, 3 for M_3 and 4 for M_4
    for name, expected in (("m2", 2), ("m3", 3)):
        info = by_name(name)
        res = capacity_decomposition(info.A, list(info.qd_basis), info.unit, info.g)
        assert res.capacity == expected
    A, axes, g = larger("m4")
    assert capacity_decomposition(A, axes, find_unit(A), g).capacity == 4


def test_criterion_03_matsuo_reproduction():
    for n in (3, 4):
        info = by_name(f"matsuo_s{n}")
        _, predicted = matsuo(sn_transpositions(n))
        assert info.g.gram == predicted
        dim = info.A.dim
        for i in range(dim):
            for j in range(dim):
                expected = F(1) if i == j else predicted[i, j]
                assert predicted[i, j] == expected
                if i != j:
                    assert predicted[i, j] in (F(0), F(1, 4))
    s3 = by_name("matsuo_s3")
    a, b, c = s3.A.designated_axes
    assert s3.unit == F(2, 3) * (a + b + c)
    res = capacity_decomposition(s3.A, [a, b, c], s3.unit, s3.g)
    assert res.capacity == 2
    A, axes, g = larger("matsuo_s5")
    assert g.gram == matsuo(sn_transpositions(5))[1]
    assert capacity_decomposition(A, axes, find_unit(A), g).capacity == 4
    # the collapse x_a(b) = x_a(c)
    assert x_of(a, b, s3.g) == x_of(a, c, s3.g)


def test_criterion_04_identity_suite():
    pair_count = 0
    # pairs across every constructed algebra
    for info in registry():
        for a, b in axis_pairs(info):
            rep = pair_identity_suite(a, b, info.g)
            assert rep.all_ok, (info.name, a, b)
            pair_count += 1
    # plus rational-circle axis pairs in the spin factor
    sp = by_name("spin_11")
    for a, b in itertools.combinations(circle_axes(16), 2):
        rep = pair_identity_suite(a, b, sp.g)
        assert rep.all_ok
        assert rep.alpha != 1  # Lemma conclusions were really exercised
        pair_count += 1
    assert pair_count >= 200

    # Seress: a(xz) = (ax)z for z in the 0/1 eigenspaces, >= 200 triples
    rng = random.Random(20240901)
    seress_count = 0
    for info in registry():
        for a in info.A.designated_axes:
            dec = eigendecompose(a)
            even = SubspaceBasis(info.A.dim, dec.v0.vectors + dec.v1.vectors)
            for _ in range(5):
                x = random_element(info.A, rng)
                z = info.A.element(combination(
                    even, [F(rng.randint(-3, 3)) for _ in range(even.dim)]))
                assert multiply(a, multiply(x, z)) == multiply(multiply(a, x), z)
                seress_count += 1
    assert seress_count >= 200


def test_criterion_05_triple_formula():
    s3 = by_name("matsuo_s3")
    a, b, c = s3.A.designated_axes
    res = triple_form_identity(a, b, c, s3.g)
    assert res.lhs == res.rhs == 1

    checked = 0
    sp = by_name("spin_11")
    for t in itertools.combinations(circle_axes(10), 3):
        try:
            r = triple_form_identity(*t, sp.g)
        except AxialError:
            continue
        assert r.equal, t
        checked += 1
    s4 = by_name("matsuo_s4")
    for t in itertools.combinations(s4.A.designated_axes, 3):
        try:
            r = triple_form_identity(*t, s4.g)
        except AxialError:
            continue
        assert r.equal, t
        checked += 1
    assert checked >= 20


def test_criterion_06_unit_construction():
    built = 0
    for info in registry():
        if info.qd_basis is None:
            continue
        assert radical(info.A, info.g).is_zero(), info.name
        e = build_unit(info.A, list(info.qd_basis), info.g)
        assert e == info.unit == find_unit(info.A), info.name
        # (e, a) = 1 for every axis
        for a in info.qd_basis:
            assert info.g.value(e, a) == 1
        built += 1
    assert built >= 8
    for name in ("m4", "matsuo_s5"):
        A, axes, g = larger(name)
        assert build_unit(A, axes, g) == find_unit(A), name

    # (e_0(a) + a, b) = 1 on all applicable pairs: e_0(a) restricted to the
    # pair's subalgebra is x_a(b)
    pairs = 0
    for info in registry():
        for a, b in axis_pairs(info):
            alpha = info.g.value(a, b)
            if alpha == 1:
                continue
            u = a + x_of(a, b, info.g)
            assert info.g.value(u, b) == 1, (info.name, a, b)
            pairs += 1
    assert pairs >= 50


def test_criterion_07_radical_behavior():
    bad = by_name("twogen_0")
    assert radical(bad.A, bad.g).dim == 1
    good = by_name("twogen_12")
    assert radical(good.A, good.g).is_zero()

    # R(A_0(a)) = R(A) n A_0(a) for every designated axis of every
    # constructed algebra
    checked = 0
    for info in registry():
        amb = radical(info.A, info.g)
        for a in info.A.designated_axes:
            dec = eigendecompose(a)
            if dec.v0.dim == 0:
                continue
            sub, _ = restrict_to_subspace(info.A, dec.v0)
            g_sub = restricted_gram(info.g, dec.v0, sub)
            r_sub = radical(sub, g_sub)
            lifted = SubspaceBasis(info.A.dim,
                                   [combination(dec.v0, v) for v in r_sub.vectors])
            assert lifted == amb.intersection(dec.v0), (info.name, a)
            checked += 1
    assert checked >= 30


def test_criterion_08_isomorphism():
    """a_ij -> (i j) carries H_n' onto Matsuo(S_n); swapping the first two basis vectors
    does so only at n = 3, where every basis permutation is an automorphism."""
    for n in (3, 4, 5):
        H, (M, _) = sym_jordan_prime(n), matsuo(sn_transpositions(n))
        assert isomorphic_by(H, M, range(H.dim)), n
        assert isomorphic_by(H, M, [1, 0, *range(2, H.dim)]) == (n == 3), n


def test_criterion_09_property_suite_integrity():
    for info in registry():
        A = info.A
        assert jordan_identity_check(A), info.name
        for a in A.designated_axes:
            dec = eigendecompose(a)
            tau = functools.partial(miyamoto_image, dec)
            basis = A.basis_elements()
            # order divides 2, a is fixed and A_1/2 negated
            assert all(tau(tau(e)) == e for e in basis)
            assert tau(a) == a
            assert all(tau(v) == -v for v in map(A.element, dec.v_half.vectors))
            # automorphism
            for i, j in itertools.combinations_with_replacement(range(A.dim), 2):
                lhs = tau(multiply(basis[i], basis[j]))
                assert lhs == multiply(tau(basis[i]), tau(basis[j])), (info.name, a, i, j)
            # eigenspace orthogonality under the Frobenius form
            spaces = [dec.v0, dec.v_half, dec.v1]
            for s, t in itertools.combinations(spaces, 2):
                for uvec in s.vectors:
                    gu = matvec(info.g.gram, uvec)
                    for wvec in t.vectors:
                        assert sum(x * y for x, y in zip(wvec, gu)) == 0


def test_criterion_10_cli_contract(tmp_path):
    factories = [
        ["construct", "spin", "--diag", "1,1"],
        ["construct", "matrix", "--n", "2"],
        ["construct", "hn", "--n", "2"],
        ["construct", "hnprime", "--n", "3"],
        ["construct", "matsuo", "--sn", "3"],
        ["construct", "twogen", "--alpha", "1/2"],
        ["construct", "qdbasis", "--n", "2"],
    ]
    for i, argv in enumerate(factories):
        path = str(tmp_path / f"f{i}.json")
        report, code = run_command(argv + ["--out", path])
        assert code == 0, argv
        first, c1 = run_command(["analyze", path])
        assert c1 == 0, argv
        # serialize -> parse -> serialize -> analyze is report-identical
        af = AlgebraFile.from_json(Path(path).read_text())
        path2 = str(tmp_path / f"f{i}b.json")
        Path(path2).write_text(af.to_json())
        second, c2 = run_command(["analyze", path2])
        assert c2 == 0, argv
        assert first.findings == second.findings, argv
        assert first.status == second.status == "pass"

    # exit-code contract on the fixture corpus
    # pass -> 0 (checked above); error -> 2
    _, code = run_command(["analyze", str(tmp_path / "missing.json")])
    assert code == 2
    badfile = tmp_path / "bad.json"
    badfile.write_text("{broken")
    _, code = run_command(["analyze", str(badfile)])
    assert code == 2
    _, code = run_command(["construct", "twogen", "--alpha", "0.5"])
    assert code == 2
    # fail -> 1: an idempotent designated axis that is not primitive
    d = {"name": "pair", "dimension": 2, "basis": ["p", "q"],
         "table": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]],
         "axes": [["1", "1"]]}
    failfile = tmp_path / "pair.json"
    failfile.write_text(json.dumps(d))
    report, code = run_command(["analyze", str(failfile)])
    assert code == 1 and report.status == "fail"
