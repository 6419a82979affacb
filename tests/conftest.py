"""Shared fixtures: a registry of constructed algebras with their Frobenius
forms, spanning axis sets, and quasi-definite bases, plus sampling helpers.

Also hooks the terminal summary so every acceptance criterion gets one
explicit PASS/FAIL line at the end of the run.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import pytest

from axialq import (
    Algebra,
    Element,
    GramForm,
    find_unit,
    frobenius_projection,
    frobenius_solve,
    make_algebra,
    peirce_components,
)
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
from axialq.jordanhalf import x_of

HALF = Fraction(1, 2)

# id(algebra) -> (algebra, the dense structure grid its cells expand to), for source_grid
_SOURCE_GRIDS: dict[int, tuple[Algebra, tuple]] = {}
_algebra_init = Algebra.__init__


def _recording_init(self, dim, basis_names, cells):
    _algebra_init(self, dim, basis_names, cells)
    grid = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), cell in cells.items():
        for k, c in cell:  # Algebra has checked i <= j and that no k repeats
            grid[i][j][k] = grid[j][i][k] = Fraction(c)
    _SOURCE_GRIDS[id(self)] = self, tuple(tuple(map(tuple, plane)) for plane in grid)


def pytest_configure(config):
    """Record grids while the tests run, and only then: a script that imports this module
    for its helpers builds its algebras without a dense n^3 grid each."""
    Algebra.__init__ = _recording_init


def source_grid(A: Algebra) -> tuple:
    """The structure constants c[i][j][k] that A was built from, as Fractions: every algebra
    built while the tests run records the dense grid of the cells it was given, so oracles
    read it and never A.table."""
    return _SOURCE_GRIDS[id(A)][1]


@dataclass(frozen=True)
class AlgInfo:
    """One constructed algebra plus everything tests repeatedly need."""

    name: str
    A: Algebra
    g: GramForm
    spanning_axes: Optional[tuple[Element, ...]]  # axes spanning A, or None
    qd_basis: Optional[tuple[Element, ...]]       # quasi-definite axis basis, or None
    unit: Optional[Element]


def _sym_spanning_axes(A: Algebra, n: int) -> tuple[Element, ...]:
    """Axes spanning the full symmetric-matrix Jordan algebra: the diagonal
    units e_ii plus the rank-1 projections (e_ii + e_jj + s_ij)/2."""
    axes = [A.basis_element(i) for i in range(n)]
    # off-diagonal basis names come after the n diagonal ones, in (i, j) order
    k = n
    for i in range(n):
        for j in range(i + 1, n):
            coords = [Fraction(0)] * A.dim
            coords[i] = HALF
            coords[j] = HALF
            coords[k] = HALF
            axes.append(A.element(coords))
            k += 1
    return tuple(axes)


def _spin_spanning_axes(A: Algebra) -> tuple[Element, ...]:
    """(1+v_1)/2, (1-v_1)/2, then (1+v_i)/2 for the remaining coordinates."""
    axes = []
    for sign in (1, -1):
        coords = [Fraction(0)] * A.dim
        coords[0] = HALF
        coords[1] = Fraction(sign, 2)
        axes.append(A.element(coords))
    for i in range(2, A.dim):
        coords = [Fraction(0)] * A.dim
        coords[0] = HALF
        coords[i] = HALF
        axes.append(A.element(coords))
    return tuple(axes)


@functools.cache
def registry() -> tuple[AlgInfo, ...]:
    out = []

    def add(name, A, spanning=None, qd=None, prefer_projection=True):
        if spanning is not None and prefer_projection:
            g = frobenius_projection(A, list(spanning))
        else:
            g, _ = frobenius_solve(A, list(A.designated_axes))
        out.append(AlgInfo(name=name, A=A, g=g,
                           spanning_axes=tuple(spanning) if spanning else None,
                           qd_basis=tuple(qd) if qd else None,
                           unit=find_unit(A)))

    for diag, tag in (([1, 1], "spin_11"), ([1, 1, 1], "spin_111")):
        A = spin_factor(diag)
        span = _spin_spanning_axes(A)
        add(tag, A, spanning=span, qd=span[: A.dim])

    for n in (2, 3):
        A = matrix_jordan(n)
        add(f"m{n}", A, spanning=A.designated_axes, qd=A.designated_axes)

    for n in (2, 3):
        A = sym_jordan(n)
        span = _sym_spanning_axes(A, n)
        add(f"h{n}", A, spanning=span, qd=span)

    for n in (3, 4):
        A = sym_jordan_prime(n)
        add(f"h{n}p", A, spanning=A.designated_axes, qd=A.designated_axes)

    for n in (3, 4):
        A, _pred = matsuo(sn_transpositions(n))
        add(f"matsuo_s{n}", A, spanning=A.designated_axes, qd=A.designated_axes)

    for alpha, tag in ((HALF, "12"), (Fraction(1, 4), "14")):
        A = two_gen_algebra(alpha)
        g, _ = frobenius_solve(A, list(A.designated_axes))
        a, b = A.designated_axes
        span = (a, b, x_of(a, b, g))
        out.append(AlgInfo(name=f"twogen_{tag}", A=A, g=g,
                           spanning_axes=span, qd_basis=span, unit=find_unit(A)))

    # alpha = 0: radical is nonzero, so keep it out of the projection path
    A0 = two_gen_algebra(Fraction(0))
    g0, _ = frobenius_solve(A0, list(A0.designated_axes))
    out.append(AlgInfo(name="twogen_0", A=A0, g=g0,
                       spanning_axes=None, qd_basis=None, unit=find_unit(A0)))
    return tuple(out)


@functools.cache
def circle_axes(count: int = 16) -> tuple[Element, ...]:
    """Primitive axes (1 + b*u + c*v)/2 of the 3-dim unit spin factor, built
    from rational points b^2 + c^2 = 1/4 via Pythagorean parameterization."""
    sp = registry()[0].A
    out = [sp.element([HALF, HALF, Fraction(0)]),
           sp.element([HALF, -HALF, Fraction(0)]),
           sp.element([HALF, Fraction(0), HALF])]
    for m in range(2, 30):
        for k in range(1, m):
            den = 2 * (m * m + k * k)
            b = Fraction(m * m - k * k, den)
            c = Fraction(2 * m * k, den)
            for e in (sp.element([HALF, b, c]), sp.element([HALF, -b, c])):
                if e not in out:
                    out.append(e)
            if len(out) >= count:
                return tuple(out[:count])
    return tuple(out)


def direct_sum(A: Algebra, B: Algebra) -> Algebra:
    """A + B with the product of A on the first coordinates and of B on the rest."""
    n, z = A.dim + B.dim, Fraction(0)
    table = [[[z] * n for _ in range(n)] for _ in range(n)]
    for X, off in ((A, 0), (B, A.dim)):
        grid = source_grid(X)
        for i, j, k in itertools.product(range(X.dim), repeat=3):
            table[off + i][off + j][off + k] = grid[i][j][k]
    embed = [(z,) * off + a.coords + (z,) * (n - off - X.dim)
             for X, off in ((A, 0), (B, A.dim)) for a in X.designated_axes]
    return make_algebra(n, [f"e{i}" for i in range(n)], table, embed)


def isomorphic_by(A: Algebra, B: Algebra, perm) -> bool:
    """Whether e_i -> e_perm[i] carries A onto B: every structure constant c[i][j][k] of A
    is B's c[perm i][perm j][perm k], and A's designated axes go onto B's."""
    n = A.dim
    if sorted(perm) != list(range(n)):
        raise ValueError("perm is not a permutation of A's basis")
    if B.dim != n:
        return False
    a, b = source_grid(A), source_grid(B)
    if any(a[i][j][k] != b[perm[i]][perm[j]][perm[k]]
           for i, j, k in itertools.product(range(n), repeat=3)):
        return False

    def image(x: Element) -> tuple:
        y = [Fraction(0)] * n
        for i, c in enumerate(x.coords):
            y[perm[i]] = c
        return tuple(y)

    return sorted(map(image, A.designated_axes)) == sorted(x.coords for x in B.designated_axes)


def miyamoto_image(dec, x: Element) -> Element:
    """The Miyamoto involution of dec's axis at x: tau(x) = x - 2 x_half, which fixes
    A_0 + A_1 and negates A_1/2, with x_half from ``peirce_components``."""
    return x - 2 * peirce_components(dec, x)[1]


def dynkin_cartan(family: str, n: int) -> list[list[int]]:
    """The Cartan matrix 2I - adjacency of the Dynkin diagram D_n (n >= 4) or E_n (n = 6, 7,
    8), the latter with the chain 0 - 2 - 3 - ... - (n - 1) and the branch 1 - 3."""
    if family == "D":
        edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    else:
        edges = [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, n - 1)]
    cartan = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in edges:
        cartan[i][j] = cartan[j][i] = -1
    return cartan


def weyl_reflections(cartan: list[list[int]]) -> MatsuoInput:
    """The reflections s_r(v) = v - (v, r) r in the positive roots r of a simply-laced root
    system, as permutations of all its roots.  Roots are integer coordinates over the simple
    roots, (u, v) = u^T C v for the Cartan matrix C, and the roots are the orbit of the simple
    roots under the simple reflections, listed in sorted order."""
    n = len(cartan)

    def reflect(v, r):
        k = sum(v[i] * cartan[i][j] * r[j] for i in range(n) for j in range(n))
        return tuple(x - k * y for x, y in zip(v, r))

    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    roots, frontier = set(simple), simple
    while frontier:
        frontier = {w for v in frontier for s in simple if (w := reflect(v, s)) not in roots}
        roots |= frontier
    roots = sorted(roots)
    index = {r: k for k, r in enumerate(roots)}
    positive = [r for r in roots if sum(r) > 0]
    return MatsuoInput(len(roots), tuple(Permutation([index[reflect(v, r)] for v in roots])
                                         for r in positive))


def fusion_break() -> Algebra:
    """Basis e, u, w with e e = e, e u = u/2, u u = u and every other product 0.

    The axis e is a primitive semisimple idempotent with u in its
    1/2-eigenspace, but u u = u breaks the rule A_1/2 A_1/2 in A_0 + A_1.
    """
    z, h, one = Fraction(0), HALF, Fraction(1)
    table = [[[one, z, z], [z, h, z], [z, z, z]],
             [[z, h, z], [z, one, z], [z, z, z]],
             [[z, z, z], [z, z, z], [z, z, z]]]
    return make_algebra(3, ["e", "u", "w"], table, [[one, z, z]])


def jordan_block() -> Algebra:
    """Basis e, u, w with e e = e, e u = u/2, e w = u + w/2 and every other product 0.

    ad_e has the admissible eigenvalues 1, 1/2, 1/2 but one Jordan block on <u, w>: its
    kernels have dimensions (0, 1, 1), so the axis e is primitive and not semisimple.
    """
    z, h, one = Fraction(0), HALF, Fraction(1)
    table = [[[one, z, z], [z, h, z], [z, one, h]],
             [[z, h, z], [z, z, z], [z, z, z]],
             [[z, one, h], [z, z, z], [z, z, z]]]
    return make_algebra(3, ["e", "u", "w"], table, [[one, z, z]])


def by_name(name: str) -> AlgInfo:
    for info in registry():
        if info.name == name:
            return info
    raise KeyError(name)


@pytest.fixture(scope="session")
def algebras() -> tuple[AlgInfo, ...]:
    return registry()


@pytest.fixture(scope="session")
def spin3() -> AlgInfo:
    return by_name("spin_11")


@pytest.fixture(scope="session")
def rng() -> random.Random:
    return random.Random(20240901)


def random_element(A: Algebra, rng: random.Random) -> Element:
    return A.element([Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                      for _ in range(A.dim)])


def axis_pairs(info: AlgInfo):
    """All unordered pairs of distinct axes from the richest axis set known
    for this algebra."""
    axes = info.spanning_axes or info.A.designated_axes
    seen = []
    for a in axes:
        if a not in seen:
            seen.append(a)
    return list(itertools.combinations(seen, 2))


# ---------------------------------------------------------------------------
# Acceptance summary: one PASS/FAIL line per criterion at end of run.
# ---------------------------------------------------------------------------

_ACCEPTANCE: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if not report.nodeid.split("::")[0].endswith("test_acceptance.py"):
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _ACCEPTANCE[name] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and report.failed:
        _ACCEPTANCE[name] = "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for name in sorted(_ACCEPTANCE):
        label = name.removeprefix("test_criterion_").replace("_", " ")
        terminalreporter.write_line(f"criterion {label}: {_ACCEPTANCE[name]}")
