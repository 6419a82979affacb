"""Command-line interface.

Every command writes a JSON report to stdout and exits with
0 = pass, 1 = fail (a checked property is false), 2 = error (bad input).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import os
import random
import re
import sys
from typing import Optional, Sequence

from . import constructions
from .algcore import (
    Algebra,
    Element,
    Word,
    find_unit,
    jordan_identity_check,
)
from .axial import (
    GramForm,
    check_axis,
    frobenius_projection,
    frobenius_solve,
    fusion_verdicts,
    radical,
)
from .errors import AxialError, NotUnit, ParseError
from .exactla import Matrix, SubspaceBasis
from .fileio import AlgebraFile, Report, atomic_write, format_rational, parse_rational
from .jordanhalf import (
    build_unit,
    capacity_decomposition,
    pair_identity_suite,
    special_chain,
    triple_form_identity,
    word_to_axis,
)

__all__ = ["run_command", "main", "analyze_findings", "gram_for", "parse_word"]

DEFAULT_SEED = 20240901
MAX_WORD_DEPTH = 100  # deepest word tree or parenthesis nesting that parse_word accepts
_NEGATIVE = re.compile(r"-\d+(/\d+)?(,-?\d+(/\d+)?)*$|-\d*\.\d+$")  # negatives, p/q and lists too


def _coords(e: Element) -> list[str]:
    return [format_rational(c) for c in e.coords]


def _matrix_strings(m: Matrix) -> list[list[str]]:
    return [[format_rational(c) for c in row] for row in m.entries()]


def gram_for(A: Algebra, generators: Sequence[Element] = ()) -> tuple[GramForm, dict]:
    """Frobenius form of A, with provenance notes, from its designated axes or else generators.

    Axes that do not span A leave the form to the linear solve.  Spanning
    axes fix it: for a primitive axis a and an invariant h with h(a, a) = 1,
    h(a, y0) = h(a, a y0) = 0 and h(a, y1/2) = h(a, a y1/2) = h(a, y1/2)/2,
    so h(a, y) = phi_a(y), the coefficient of a in y, and the projection form
    is the unique solution.  If it fails the solve runs first: Inconsistent wins.
    Either way the form is invariant and (a, a) = 1 on every axis used, by construction:
    the projection checks invariance and solves a^T G = phi_a exactly, and the solve's
    rows are the invariance equations and (a, a) = 1, which ``exactla.solve`` satisfies.
    """
    axes = list(A.designated_axes) or list(generators)
    if not axes:
        raise AxialError("the algebra has no designated axes")
    if SubspaceBasis(A.dim, [a.num for a in axes]).dim != A.dim:
        g, free_dim = frobenius_solve(A, axes)
        return g, {"solve_free_dim": free_dim, "axes_span": False}
    try:
        g = frobenius_projection(A, axes)
    except AxialError:
        frobenius_solve(A, axes)
        raise
    return g, {"solve_free_dim": 0, "axes_span": True, "constructions_agree": True}


def analyze_findings(A: Algebra, findings: dict) -> dict:
    """The full analysis pipeline on an in-memory algebra.

    Fills findings in place and returns it, so what was found before an
    error stays in the dict.  The Jordan identity is decided first, though
    reported last: on a Jordan algebra each axis's fusion follows from the
    Peirce theorem, otherwise from ``fusion_verdicts``, one search per Miyamoto orbit.
    """
    axes = A.designated_axes
    findings.update(dimension=A.dim, axis_count=len(axes))
    jordan = jordan_identity_check(A)
    axis_reports = findings["axes"] = []
    for a, fusion in zip(axes, [True] * len(axes) if jordan else fusion_verdicts(axes)):
        rep = check_axis(a, fusion=fusion)
        axis_reports.append({
            "coords": _coords(a),
            "idempotent": rep.is_idempotent,
            "semisimple": rep.semisimple,
            "primitive": rep.primitive,
            "fusion": rep.fusion_ok,
        })
    g, notes = gram_for(A)
    findings["gram"] = _matrix_strings(g.gram)
    findings["gram_notes"] = notes
    findings["gram_invariant"] = True  # by gram_for
    findings["axis_norms"] = ["1"] * len(A.designated_axes)  # (a, a) = 1 by gram_for
    rad = radical(A, g)
    findings["radical_dim"] = rad.dim
    findings["semisimple"] = rad.is_zero()
    unit = find_unit(A)
    findings["unit"] = _coords(unit) if unit is not None else None
    findings["jordan"] = jordan
    return findings


def _analyze(af: AlgebraFile, args, findings: dict) -> bool:
    analyze_findings(af.algebra, findings)
    axis_ok = all(a["idempotent"] and a["semisimple"] and a["primitive"] and a["fusion"]
                  for a in findings["axes"])
    return axis_ok and findings["jordan"]


def _construct(_, args, findings: dict) -> bool:
    """build one of the example algebras"""
    extras: dict = {}
    if args.kind == "spin":
        diag = [parse_rational(x) for x in args.diag.split(",")]
        A = constructions.spin_factor(diag)
        name = f"spin({args.diag})"
    elif args.kind in ("matrix", "qdbasis"):
        A = constructions.matrix_jordan(args.n)
        name = f"M{args.n}+"
        if args.kind == "qdbasis":
            extras["qd_basis"] = [_coords(a) for a in A.designated_axes]
    elif args.kind == "hn":
        A = constructions.sym_jordan(args.n)
        name = f"H{args.n}"
    elif args.kind == "hnprime":
        A = constructions.sym_jordan_prime(args.n)
        name = f"H{args.n}'"
    elif args.kind == "matsuo":
        A, gram = constructions.matsuo(constructions.sn_transpositions(args.sn))
        extras["predicted_gram"] = _matrix_strings(gram)
        name = f"Matsuo(S{args.sn})"
    else:  # twogen
        alpha = parse_rational(args.alpha)
        A = constructions.two_gen_algebra(alpha)
        name = f"B({alpha})"
    af = AlgebraFile.from_algebra(name, A)
    findings.update(name=name, dimension=A.dim, **extras)
    if args.out:
        atomic_write(args.out, af.to_json())
        findings["out"] = args.out
    else:
        findings["algebra"] = af.to_dict()
    return True


def _load(path: str) -> AlgebraFile:
    with open(path, encoding="utf-8") as fh:
        return AlgebraFile.from_json(fh.read())


def _generators(af: AlgebraFile, spec: Optional[str]) -> list[Element]:
    A = af.algebra
    if spec is not None:
        axes = list(A.designated_axes)
        indices = [_int(i, "--generators") for i in spec.split(",")]
        bad = [i for i in indices if not 0 <= i < len(axes)]
        if bad:
            raise ParseError(f"generator indices {bad} out of range: the file has "
                             f"{len(axes)} axes")
        gens = [axes[i] for i in indices]
    elif af.generators:
        gens = [Element(A, g) for g in af.generators]
    else:
        gens = list(A.designated_axes)
    if not gens:
        raise AxialError("no generators: the file has neither generators nor axes")
    return gens


def parse_word(expr: str, names: Sequence[str]) -> Word:
    """Parse a parenthesized product like ``(a*b)*a`` over generator names.

    Words nested deeper than ``MAX_WORD_DEPTH`` are rejected with ParseError.
    """
    tokens = re.findall(r"\w+|\S", expr)
    for tok in tokens:
        if tok not in "()*" and not re.match(r"\w", tok):
            raise ParseError(f"unexpected character {tok!r} in word expression")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def checked(depth: int) -> int:
        if depth > MAX_WORD_DEPTH:
            raise ParseError(f"word is nested deeper than {MAX_WORD_DEPTH} levels")
        return depth

    # each returns (tree, tree depth); nesting counts the open parentheses
    def factor(nesting: int):
        nonlocal pos
        tok = peek()
        if tok == "(":
            pos += 1
            node = product(checked(nesting + 1))
            if peek() != ")":
                raise ParseError("missing closing parenthesis")
            pos += 1
            return node
        if tok is None or tok in "()*":
            raise ParseError(f"expected a generator name, got {tok!r}")
        pos += 1
        try:
            return names.index(tok), 0
        except ValueError:
            raise ParseError(f"unknown generator {tok!r}; known: {list(names)}") from None

    def product(nesting: int):
        nonlocal pos
        node, depth = factor(nesting)
        while peek() == "*":
            pos += 1
            right, right_depth = factor(nesting)
            node, depth = (node, right), checked(1 + max(depth, right_depth))
        return node, depth

    tree, _ = product(0)
    if pos != len(tokens):
        raise ParseError(f"trailing tokens in word expression: {tokens[pos:]}")
    return Word(tree)


def _generator_names(count: int) -> list[str]:
    return [chr(ord("a") + k) if k < 26 else f"g{k}" for k in range(count)]


def _int(value, name: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"{name} must be an integer, got {value!r}") from None


def _count(value, option: str) -> int:
    n = _int(value, option)
    if n < 0:
        raise ParseError(f"{option} must be a nonnegative count, got {n}")
    return n


def _frobenius(af: AlgebraFile, args, findings: dict) -> bool:
    g, notes = gram_for(af.algebra, _generators(af, None))
    findings.update(gram=_matrix_strings(g.gram), notes=notes, invariant=True)  # by gram_for
    return True


def _radical(af: AlgebraFile, args, findings: dict) -> bool:
    g, _ = gram_for(af.algebra, _generators(af, None))
    rad = radical(af.algebra, g)
    findings.update(radical_dim=rad.dim,
                    radical_basis=[[format_rational(c) for c in v] for v in rad.vectors],
                    semisimple=rad.is_zero())
    return True


def _capacity(af: AlgebraFile, args, findings: dict) -> bool:
    A = af.algebra
    gens = _generators(af, args.generators)
    g, _ = gram_for(A, gens)
    e = find_unit(A)
    if e is None:
        raise NotUnit("the algebra has no unit")
    result = capacity_decomposition(A, gens, e, g)
    findings.update(capacity=result.capacity,
                    summands=[_coords(s) for s in result.summands],
                    level_sizes=[len(level) for _, level in result.pivot_trace])
    return True


def _chain(af: AlgebraFile, args, findings: dict) -> bool:
    gens = _generators(af, None)
    g, _ = gram_for(af.algebra, gens)
    findings["dims"] = special_chain(af.algebra, gens, g).dims
    return True


def _unit(af: AlgebraFile, args, findings: dict) -> bool:
    A = af.algebra
    e = find_unit(A)
    findings["unit"] = _coords(e) if e is not None else None
    if not args.recursive:
        return True
    axes = list(A.designated_axes) or _generators(af, None)
    g, _ = gram_for(A, axes)
    built = build_unit(A, axes, g)
    findings.update(recursive_unit=_coords(built), agree=built == e)
    return built == e


def _verify(af: AlgebraFile, args, findings: dict) -> bool:
    pair_count = None if args.pairs == "all" else _count(args.pairs, "--pairs")
    triple_count = _count(args.triples, "--triples")
    A = af.algebra
    g, _ = gram_for(A)
    axes = list(A.designated_axes)
    seed = _int(os.environ.get("AXIAL_SEED", DEFAULT_SEED), "AXIAL_SEED")
    rng = random.Random(seed)
    all_pairs = list(itertools.combinations(range(len(axes)), 2))
    if pair_count is None:
        pairs = all_pairs
    else:
        pairs = [rng.choice(all_pairs) for _ in range(pair_count)] if all_pairs else []
    results, triples = [], []
    findings.update(seed=seed, pairs_checked=len(pairs), pair_results=results,
                    triple_results=triples)
    ok = True
    for (i, j) in pairs:
        rep = pair_identity_suite(axes[i], axes[j], g)
        results.append({"pair": [i, j], "alpha": format_rational(rep.alpha),
                        "all_ok": rep.all_ok})
        ok = ok and rep.all_ok
    if triple_count:
        all_triples = list(itertools.permutations(range(len(axes)), 3))
        for _ in range(triple_count):
            if not all_triples:
                break
            (i, j, k) = rng.choice(all_triples)
            try:
                res = triple_form_identity(axes[i], axes[j], axes[k], g)
            except AxialError as exc:
                triples.append({"triple": [i, j, k], "skipped": str(exc)})
                continue
            triples.append({"triple": [i, j, k],
                            "lhs": format_rational(res.lhs),
                            "rhs": format_rational(res.rhs),
                            "equal": res.equal})
            ok = ok and res.equal
    return ok


def _word_axis(af: AlgebraFile, args, findings: dict) -> bool:
    A = af.algebra
    gens = _generators(af, None)
    word = parse_word(args.word, _generator_names(len(gens)))
    g, _ = gram_for(A, gens)
    axis, scale, corr = word_to_axis(A, gens, word, g)
    rep = check_axis(axis)
    findings.update(axis=_coords(axis), scale=format_rational(scale),
                    correction=_coords(corr), axis_primitive=rep.is_primitive_axis,
                    axis_fusion=rep.fusion_ok)
    return rep.is_primitive_axis and rep.fusion_ok


_FILE = ("file", {})

# Every command: the function that runs it, called as handler(af, args, findings)
# with the loaded algebra file (None for construct, which reads none), and its
# arguments in the order the parser takes them; a handler's docstring is the
# command's help line.  A handler fills findings in place, so an error report
# keeps what was found before the error, and returns whether every property it
# checks holds.
COMMANDS = {
    "construct": (_construct, [
        ("kind", {"choices": ["spin", "matrix", "hn", "hnprime", "matsuo", "twogen",
                              "qdbasis"]}),
        ("--diag", {"default": "1,1", "help": "spin factor diagonal, e.g. 1,1"}),
        ("--n", {"type": int, "default": 2}),
        ("--sn", {"type": int, "default": 3, "help": "symmetric group degree for matsuo"}),
        ("--alpha", {"default": "1/2", "help": "form value for twogen"}),
        ("--out", {"help": "write the algebra file here (atomic)"}),
    ]),
    "analyze": (_analyze, [_FILE]),
    "frobenius": (_frobenius, [_FILE]),
    "radical": (_radical, [_FILE]),
    "chain": (_chain, [_FILE]),
    "capacity": (_capacity, [
        _FILE, ("--generators", {"help": "comma-separated indices into the axes list"})]),
    "unit": (_unit, [
        _FILE, ("--recursive", {"action": "store_true",
                                "help": "also run the recursive eigenspace construction"})]),
    "verify": (_verify, [
        ("what", {"choices": ["identities"]}), _FILE,
        ("--pairs", {"default": "all", "help": "'all' or a sample count"}),
        ("--triples", {"default": 0}),
    ]),
    "word-axis": (_word_axis, [
        _FILE, ("--word", {"required": True,
                           "help": "parenthesized product over generators a, b, c, ..."})]),
}


@functools.cache  # built on first use, once per process
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="axialq", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)
    for name, (handler, arguments) in COMMANDS.items():
        q = sub.add_parser(name, **({"help": handler.__doc__} if handler.__doc__ else {}))
        q._negative_number_matcher = _NEGATIVE  # so --alpha -1/3 reads -1/3 as its value
        for flag, options in arguments:
            q.add_argument(flag, **options)
    return p


def run_command(argv: Sequence[str]) -> tuple[Report, int]:
    """Execute one CLI invocation and return its report and exit code."""
    try:
        args = _build_parser().parse_args(list(argv))
    except SystemExit as exc:
        code = 0 if exc.code in (0, None) else 2
        return Report(command=" ".join(argv), status="error" if code else "pass",
                      message="usage error" if code else ""), code

    inputs = {k: v for k, v in vars(args).items() if k != "cmd" and v is not None}
    report = Report(command=args.cmd, inputs=inputs)
    handler, _ = COMMANDS[args.cmd]
    try:
        af = _load(args.file) if "file" in args else None
        report.status = "pass" if handler(af, args, report.findings) else "fail"
    except (ParseError, OSError, ValueError) as exc:
        report.status = "error"
        report.message = str(exc)
        return report, 2
    except AxialError as exc:
        report.status = "error"
        report.message = f"{type(exc).__name__}: {exc}"
        return report, 2

    return report, 0 if report.status == "pass" else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    report, code = run_command(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(report.to_json() + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
