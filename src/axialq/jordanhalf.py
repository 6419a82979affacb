"""Core machinery for quasi-definite axial algebras of Jordan type 1/2.

Builds the idempotent x_a(b) from a pair of axes, axis bases of the
0-eigenspace, word-to-axis reduction, the recursive unit construction,
and the capacity decomposition of the unit into pairwise orthogonal axes.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .algcore import (
    Algebra,
    Element,
    Word,
    _element,
    find_unit,
    multiply,
    restrict_to_subspace,
    subalgebra_closure,
)
from .axial import (
    HALF,
    GramForm,
    eigendecompose,
    peirce_components,
    primitive_decomposition,
    quasi_definite_basis_check,
    radical,
)
from .errors import (
    FormValueOne,
    InvariantViolation,
    NotIdempotent,
    NotPrimitiveAxis,
    NotSemisimple,
    NotSpanning,
    NotUnit,
    RecursionBasisFailure,
    ResidualNonzero,
    SameAxis,
)
from .exactla import Matrix, SubspaceBasis, _combine

__all__ = [
    "PairDecomposition",
    "PairIdentityReport",
    "TripleFormResult",
    "CapacityResult",
    "SpecialChain",
    "ChainLink",
    "pair_decompose",
    "x_of",
    "pair_identity_suite",
    "triple_form_identity",
    "a0_axis_basis",
    "word_to_axis",
    "build_unit",
    "capacity_decomposition",
    "special_chain",
]

class PairDecomposition(NamedTuple):
    """b split along the Peirce decomposition of the axis a."""

    a: Element
    b: Element
    alpha: Fraction
    a0: Element
    a_half: Element


def pair_decompose(a: Element, b: Element, g: GramForm) -> PairDecomposition:
    """Split b = a0 + a_half + (a, b) a relative to the primitive axis a."""
    a0, a_half, coeff = peirce_components(primitive_decomposition(a), b)
    alpha = g.value(a, b)
    if coeff != alpha:
        raise InvariantViolation(
            "form value disagrees with the projection coefficient on the axis")
    if a0 + a_half + alpha * a != b:
        raise InvariantViolation("Peirce components do not recompose the element")
    return PairDecomposition(a=a, b=b, alpha=alpha, a0=a0, a_half=a_half)


def _x_raw(a: Element, b: Element, alpha: Fraction) -> Element:
    return (2 * multiply(a, b) - alpha * a - b) / (alpha - 1)


def x_of(a: Element, b: Element, g: GramForm) -> Element:
    """The idempotent (2ab - (a,b)a - b) / ((a,b) - 1) in A_0(a)."""
    return _x_and_alpha(a, b, g)[0]


def _x_and_alpha(a: Element, b: Element, g: GramForm) -> tuple[Element, Fraction]:
    """x_a(b), checked, and alpha = (a, b)."""
    if a == b:
        raise SameAxis("x_a(b) needs two distinct axes")
    primitive_decomposition(a)
    primitive_decomposition(b)
    alpha = g.value(a, b)
    if alpha == 1:
        raise FormValueOne("(a, b) = 1: quasi-definiteness is violated at this pair")
    x = _x_raw(a, b, alpha)
    if x.is_zero():
        raise InvariantViolation("x_a(b) vanished for (a, b) != 1")
    if not x.is_idempotent():
        raise InvariantViolation("x_a(b) is not idempotent")
    if g.value(x, x) != 1:
        raise InvariantViolation("(x_a(b), x_a(b)) != 1")
    if not multiply(a, x).is_zero():
        raise InvariantViolation("x_a(b) is not in the 0-eigenspace of a")
    return x, alpha


class PairIdentityReport:
    """Exact checks of the two-generated identities for an axis pair, alpha = (a, b).

    vacuous: a == b, where the x-construction is undefined.  product_contractions: the
    (ab)b, (ab)a and (ab)(ab) formulas.  zero_component_square: a0^2 = (1 - alpha) a0.
    half_component_square: a1/2^2 = alpha a0 + (alpha - alpha^2) a.  mixed_component_product:
    a0 a1/2 = ((1 - alpha)/2) a1/2.  pair_unit: a + x_a(b) is a unit of <a, b>.
    zero_product_zero_form: ab = 0 implies (a, b) = 0; the converse needs quasi-definiteness
    of the whole algebra, which a single pair cannot see.  a0_meets_bhalf_trivially:
    A_0(a) n A_1/2(b) = 0 when alpha is not 0 or 1.  Immutable, equal and hashable by its
    fields, which ``vars`` lists in this order.
    """

    def __init__(self, alpha: Fraction, vacuous: bool, product_contractions: bool,
                 zero_component_square: bool, half_component_square: bool,
                 mixed_component_product: bool, x_idempotent: bool, x_norm_one: bool,
                 pair_unit: bool, zero_product_zero_form: bool, a0_meets_bhalf_trivially: bool):
        # the arguments but self, always in this order, so that the values stay inline
        for name, value in tuple(locals().items())[1:]:
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *_):
        raise AttributeError(f"PairIdentityReport is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return type(other) is PairIdentityReport and vars(self) == vars(other)

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self):
        return f"PairIdentityReport({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"

    @property
    def all_ok(self) -> bool:
        return all((self.product_contractions, self.zero_component_square,
                    self.half_component_square, self.mixed_component_product,
                    self.x_idempotent, self.x_norm_one, self.pair_unit,
                    self.zero_product_zero_form, self.a0_meets_bhalf_trivially))


def pair_identity_suite(a: Element, b: Element, g: GramForm) -> PairIdentityReport:
    """Check the full pairwise identity suite for two primitive axes."""
    dec_a = primitive_decomposition(a)
    dec_b = primitive_decomposition(b)
    pd = pair_decompose(a, b, g)
    alpha = pd.alpha
    ab = multiply(a, b)

    contractions = (
        multiply(ab, b) == HALF * (alpha * b + ab)
        and multiply(ab, a) == HALF * (alpha * a + ab)
        and multiply(ab, ab) == (alpha / 4) * (a + b + 2 * ab)
    )
    zero_sq = multiply(pd.a0, pd.a0) == (1 - alpha) * pd.a0
    half_sq = multiply(pd.a_half, pd.a_half) == alpha * pd.a0 + (alpha - alpha * alpha) * a
    mixed = multiply(pd.a0, pd.a_half) == ((1 - alpha) / 2) * pd.a_half

    vacuous = a == b
    if not vacuous and alpha != 1:
        x = _x_raw(a, b, alpha)
        x_idem = multiply(x, x) == x and not x.is_zero()
        x_norm = g.value(x, x) == 1
        u = a + x
        closure = subalgebra_closure(a.algebra, [a, b])
        pair_unit = all(multiply(u, v) == v for v in map(a.algebra.element, closure.rows))
    else:
        x_idem = x_norm = pair_unit = True  # vacuous-pass

    zero_form = alpha == 0 if ab.is_zero() else True

    meets = vacuous or alpha in (0, 1) or dec_a.v0.intersection(dec_b.v_half).is_zero()

    return PairIdentityReport(
        alpha=alpha, vacuous=vacuous,
        product_contractions=contractions,
        zero_component_square=zero_sq,
        half_component_square=half_sq,
        mixed_component_product=mixed,
        x_idempotent=x_idem, x_norm_one=x_norm, pair_unit=pair_unit,
        zero_product_zero_form=zero_form, a0_meets_bhalf_trivially=meets,
    )


class TripleFormResult(NamedTuple):
    lhs: Fraction
    rhs: Fraction

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def triple_form_identity(a: Element, b: Element, c: Element,
                         g: GramForm) -> TripleFormResult:
    """Compare (x_a(b), x_a(c)) against its closed form in the pair form values.

    With alpha = (a,b), beta = (b,c), gamma = (a,c) and phi = (ab, c), the
    predicted value is (-alpha*gamma - beta + 2 phi) / (-alpha*gamma + alpha + gamma - 1).
    """
    if a == b or a == c or b == c:
        raise SameAxis("triple identity needs pairwise distinct axes")
    # _x_and_alpha raises FormValueOne when (a, b) or (a, c) is 1, before the division
    xb, alpha = _x_and_alpha(a, b, g)
    xc, gamma = _x_and_alpha(a, c, g)
    lhs = g.value(xb, xc)
    beta = g.value(b, c)
    denom = -alpha * gamma + alpha + gamma - 1  # = -(alpha - 1)(gamma - 1), nonzero here
    phi = g.value(multiply(a, b), c)
    rhs = (-alpha * gamma - beta + 2 * phi) / denom
    return TripleFormResult(lhs=lhs, rhs=rhs)


def _projections(a: Element, ys: Sequence[Element], g: GramForm) -> list[Element]:
    """The distinct nonzero x_a(y) for y != a in ys, in order."""
    out: list[Element] = []
    for y in ys:
        if y == a:
            continue
        alpha = g.value(a, y)
        if alpha == 1:
            raise FormValueOne(f"(a, y) = 1 for y = {y!r}")
        x = _x_raw(a, y, alpha)
        if not x.is_zero() and x not in out:
            out.append(x)
    return out


def a0_axis_basis(a: Element, X: Sequence[Element], g: GramForm) -> list[Element]:
    """The spanning set {x_a(y) : y in X, y != a} of A_0(a), deduplicated."""
    v0 = primitive_decomposition(a).v0
    out = _projections(a, X, g)
    if any(not x.is_idempotent() or g.value(x, x) != 1 for x in out):
        raise InvariantViolation("projected element is not a normalized idempotent")
    span = SubspaceBasis(a.algebra.dim, [x.num for x in out])
    if span != v0:
        raise InvariantViolation("span of the projected axes != A_0(a)")
    return out


def word_to_axis(A: Algebra, G: Sequence[Element], w: Word,
                 g: GramForm) -> tuple[Element, Fraction, Element]:
    """Reduce a word over generating axes to an axis of A.

    Returns (axis, scale, correction) with

        axis = scale * (eval(w) + correction)

    where the correction is a combination of strictly shorter words
    (returned as the concrete element it evaluates to).  Length-1 words
    return the generator itself; length-2 words return the x-construction
    on the two letters; longer words reduce through the axes of their
    subwords.
    """
    for gen in G:
        primitive_decomposition(gen)

    def rec(tree):
        if isinstance(tree, int):
            gen = G[tree]
            return gen, Fraction(1), A.zero(), gen
        q1, s1, c1, ev1 = rec(tree[0])
        q2, s2, c2, ev2 = rec(tree[1])
        ev = multiply(ev1, ev2)
        cross = multiply(ev1, c2) + multiply(c1, ev2) + multiply(c1, c2)
        if q1 == q2:
            # q1 q2 = q1, so the product rescales the same axis
            return q1, s1 * s2, cross, ev
        axis, alpha = _x_and_alpha(q1, q2, g)
        scale = 2 * s1 * s2 / (alpha - 1)
        corr = cross - (alpha * q1 + q2) / (2 * s1 * s2)
        return axis, scale, corr, ev

    axis, scale, corr, ev = rec(w.tree)
    if scale == 0:
        raise InvariantViolation("word reduction produced a zero scale")
    if scale * (ev + corr) != axis:
        raise InvariantViolation("word reduction identity failed")
    return axis, scale, corr


def _restricted_gram(g: GramForm, span: SubspaceBasis, sub: Algebra) -> GramForm:
    """The form on the subspace, in the basis rows / den of ``span``."""
    rows, d2 = [], span.den * span.den
    for u in span.rows:
        gu = g.gram.apply(u)
        rows.append([sum(x * y for x, y in zip(v, gu)) / d2 for v in span.rows])
    return GramForm(sub, Matrix(rows))


def _select_axis_basis(candidates: Sequence[Element], target: SubspaceBasis,
                       g: GramForm) -> list[Element]:
    """Greedy independent, pairwise (x,y) != 1 subset spanning the target."""
    chosen: list[Element] = []
    span = SubspaceBasis.zero(target.ambient_dim)
    for x in candidates:
        if span.contains(x.num):
            continue
        if any(g.value(x, y) == 1 for y in chosen):
            continue
        chosen.append(x)
        span = SubspaceBasis(target.ambient_dim, [c.num for c in chosen])
        if span.dim == target.dim:
            break
    if span != target:
        raise RecursionBasisFailure(
            "projected axes do not contain a quasi-definite basis of A_0(a)")
    return chosen


def _unit_recursion(A: Algebra, X: Sequence[Element], g: GramForm) -> Element:
    """The unit of A from a quasi-definite axis basis X."""
    a = X[0]
    if A.dim == 1:
        return a
    v0 = eigendecompose(a).v0
    basis0 = _select_axis_basis(a0_axis_basis(a, X, g), v0, g)
    sub, sub_axes = restrict_to_subspace(A, v0, basis0)
    e0_sub = _unit_recursion(sub, sub_axes, _restricted_gram(g, v0, sub))
    return _element(A, _combine(e0_sub.num, v0.rows, A.dim), e0_sub.den * v0.den) + a


def build_unit(A: Algebra, X: Sequence[Element], g: GramForm) -> Optional[Element]:
    """Unit of A by recursive descent through 0-eigenspaces.

    X must be a quasi-definite basis of primitive axes and A must be
    semisimple; both are checked.  The result is checked to act as the unit
    on every basis element; a unit is unique, so it is the solved unit.
    """
    if len(X) != A.dim:
        raise NotSpanning("axis list does not have basis size")
    ok, witness = quasi_definite_basis_check(X, g)
    if not ok:
        a, b, _ = witness
        raise FormValueOne(f"({a!r}, {b!r}) = 1 in the designated basis")
    for x in X:
        primitive_decomposition(x)
    if not radical(A, g).is_zero():
        raise NotSemisimple("the algebra has a nonzero radical")
    e = _unit_recursion(A, X, g)
    if any(multiply(e, b) != b for b in A.basis_elements()):
        raise InvariantViolation("recursive unit does not act as the unit")
    return e


class CapacityResult(NamedTuple):
    """Decomposition of the unit into pairwise orthogonal primitive axes."""

    summands: tuple[Element, ...]
    pivot_trace: tuple[tuple[Element, tuple[Element, ...]], ...]

    @property
    def capacity(self) -> int:
        """Length of the constructed decomposition (an upper bound on c(e))."""
        return len(self.summands)


def capacity_decomposition(A: Algebra, G: Sequence[Element], e: Element,
                           g: GramForm) -> CapacityResult:
    """Decompose the unit e into pairwise orthogonal axes by iterated projection.

    At every step the first remaining axis becomes a pivot; the others are
    replaced by their x-projections into its 0-eigenspace, deduplicated.
    """
    if e.algebra is not A or any(multiply(e, b) != b for b in A.basis_elements()):
        raise NotUnit("the given element does not act as the unit")
    for gen in G:
        try:
            primitive_decomposition(gen)
        except NotIdempotent:
            raise NotPrimitiveAxis(f"{gen!r} is not a primitive axis") from None
    if subalgebra_closure(A, list(G)).dim != A.dim:
        raise NotSpanning("the generators do not generate the algebra")

    summands: list[Element] = []
    trace: list[tuple[Element, tuple[Element, ...]]] = []
    residual = e
    level = list(dict.fromkeys(G))  # deduplicated, in order
    while level:
        pivot = level[0]
        summands.append(pivot)
        residual = residual - pivot
        projected = _projections(pivot, level, g)
        trace.append((pivot, tuple(projected)))
        level = projected
    if not residual.is_zero():
        raise ResidualNonzero("capacity run terminated with a nonzero residual")

    # invariants of the result
    if len(summands) > len(G):
        raise InvariantViolation("more summands than generators")
    for i, s in enumerate(summands):
        try:
            primitive_decomposition(s)
        except (NotIdempotent, NotPrimitiveAxis):
            raise InvariantViolation("a summand is not a primitive axis") from None
        for t in summands[i + 1:]:
            if not multiply(s, t).is_zero():
                raise InvariantViolation("summands are not pairwise orthogonal")
    return CapacityResult(summands=tuple(summands), pivot_trace=tuple(trace))


class ChainLink(NamedTuple):
    subspace: SubspaceBasis
    special_axis: Optional[Element]


class SpecialChain(NamedTuple):
    """Descending chain of special subalgebras traversed by the capacity run."""

    links: tuple[ChainLink, ...]

    @property
    def dims(self) -> list[int]:
        return [link.subspace.dim for link in self.links]


def special_chain(A: Algebra, G: Sequence[Element], g: GramForm) -> SpecialChain:
    """A > A_0(y1) > A_0(y1, y2) > ... > (0) along the capacity pivots."""
    e = find_unit(A)
    if e is None:
        raise NotUnit("the algebra has no unit")
    result = capacity_decomposition(A, G, e, g)
    links: list[ChainLink] = []
    current = SubspaceBasis(A.dim, [b.num for b in A.basis_elements()])
    for pivot in result.summands:
        links.append(ChainLink(subspace=current, special_axis=pivot))
        current = current.intersection(eigendecompose(pivot).v0)
    if not current.is_zero():
        raise InvariantViolation("special chain did not terminate at the zero subspace")
    links.append(ChainLink(subspace=current, special_axis=None))
    return SpecialChain(links=tuple(links))
