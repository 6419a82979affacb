"""The benchmark's workloads and the reference checks on their outcomes.

Each workload is a closed loop with one caller: the next operation starts
when the previous one returns.  An operation's canonical outcome (rationals
as strings) is hashed; the checks in this file use the benchmark's own
exact arithmetic on the algebra files and never call the library, so they
stay independent of the code under test.  Why each workload exists is in
README.md beside this file.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

Vector = tuple


@dataclass
class Op:
    """One timed operation and the checks on its result."""

    key: str                           # unique within a workload; names the input
    run: Callable[[], object]
    outcome: Callable[[object], object]  # canonical, JSON-serializable outcome
    check: Callable[[object], bool]      # reference check, independent of the library
    verdicts: tuple[str, ...] = ()       # AxialError kinds that are answers, not failures
    seeded: bool = False                 # input drawn from the seed: no stored reference hash


def call(owner, attr: str, *args) -> Callable[[], object]:
    """Call ``owner.attr(*args)``, looking the name up at call time so a tracer's rebinding is seen."""
    return lambda: getattr(owner, attr)(*args)


# -- exact arithmetic of the benchmark's own, on the algebra file format --

class Table:
    """Structure constants c[i][j] of an algebra file as Fraction vectors.

    Read on first use, so that parsing happens in the checks and not in timed set-up.
    """

    def __init__(self, path: Path):
        self.path = path
        self._rows = None

    def __call__(self) -> list:
        if self._rows is None:
            d = json.loads(self.path.read_text(encoding="utf-8"))
            self._rows = [[tuple(Fraction(c) for c in cell) for cell in row]
                          for row in d["table"]]
        return self._rows


def mul(table: list, x: Vector, y: Vector) -> Vector:
    n = len(table)
    out = [Fraction(0)] * n
    for i in range(n):
        if x[i]:
            for j in range(n):
                if y[j]:
                    c = x[i] * y[j]
                    for k, t in enumerate(table[i][j]):
                        if t:
                            out[k] += c * t
    return tuple(out)


def add(*vs: Vector) -> Vector:
    return tuple(sum(col, Fraction(0)) for col in zip(*vs))


def scale(c: Fraction, v: Vector) -> Vector:
    return tuple(c * a for a in v)


def form(gram: list, x: Vector, y: Vector) -> Fraction:
    return sum((x[i] * gram[i][j] * y[j] for i in range(len(x)) for j in range(len(y))
                if x[i] and y[j]), Fraction(0))


def is_unit(table: list, e: Vector) -> bool:
    n = len(table)
    basis = [tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)]
    return all(mul(table, e, b) == b for b in basis)


def matsuo_gram(n: int) -> list:
    """Predicted Gram matrix of Matsuo(S_n), eta = 1/2: transpositions in lexicographic order."""
    ts = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return [[Fraction(1) if s == t else Fraction(1, 4) if set(s) & set(t) else Fraction(0)
             for t in ts] for s in ts]


def strs(v) -> list:
    return [str(c) for c in v]


def matrix_strs(rows) -> list:
    return [strs(r) for r in rows]


def as_fractions(rows) -> list:
    return [[Fraction(c) for c in r] for r in rows]


def write_algebra(lib, name: str, A, path: Path):
    """Round-trip an algebra through its file format, as a user's session would."""
    path.write_text(lib.fileio.AlgebraFile.from_algebra(name, A).to_json(), encoding="utf-8")
    return lib.fileio.AlgebraFile.from_json(path.read_text(encoding="utf-8")).algebra


# -- analyze-ladder --

class AnalyzeLadder:
    """``axialq analyze FILE`` on six algebras of growing dimension."""

    name = "analyze-ladder"
    setup_repeats = 7
    # (file stem, construct arguments, Jordan algebra by theory, Matsuo degree)
    LADDER = [
        ("b14", ["twogen", "--alpha", "1/4"], None, None),
        ("s4", ["matsuo", "--sn", "4"], True, 4),
        ("h4p", ["hnprime", "--n", "4"], True, None),
        ("spin9", ["spin", "--diag", "1,1,1,1,1,1,1,1"], True, None),
        ("m3", ["matrix", "--n", "3"], True, None),
        ("s5", ["matsuo", "--sn", "5"], True, 5),
    ]

    def setup(self, lib, workdir: Path, seed: int):
        # the CLI runs where the files are, so reports name them as a user would
        os.chdir(workdir)
        state = {"files": {}, "predicted": {}}
        for stem, args, _, _ in self.LADDER:
            path = workdir / f"{stem}.json"
            report, code = lib.cli.run_command(["construct", *args, "--out", path.name])
            if code != 0:
                raise RuntimeError(f"construct {args} exited {code}: {report.message}")
            state["files"][stem] = path
            state["predicted"][stem] = report.findings.get("predicted_gram")
        ops = [Op(f"analyze:{stem}", self._analyze(lib, state["files"][stem]),
                  outcome=lambda r: {"exit": r[0], "report": json.loads(r[1])},
                  check=self._checker(state["files"][stem], jordan, sn))
               for stem, _, jordan, sn in self.LADDER]
        return state, ops

    @staticmethod
    def _analyze(lib, path: Path):
        def run():
            report, code = lib.cli.run_command(["analyze", path.name])
            return code, report.to_json()
        return run

    @staticmethod
    def _checker(path: Path, jordan, sn):
        def check(result) -> bool:
            code, text = result
            rep = json.loads(text)
            f = rep["findings"]
            table = Table(path)()
            gram = as_fractions(f["gram"])
            axes = [tuple(Fraction(c) for c in a["coords"]) for a in f["axes"]]
            return (code == 0 and rep["status"] == "pass"
                    and f["radical_dim"] == 0 and f["semisimple"] and f["gram_invariant"]
                    and f["gram_notes"].get("constructions_agree", True)
                    and all(v == "1" for v in f["axis_norms"])
                    and all(form(gram, a, a) == 1 for a in axes)
                    and all(mul(table, a, a) == a for a in axes)
                    and is_unit(table, tuple(Fraction(c) for c in f["unit"]))
                    and (jordan is None or f["jordan"] is jordan)
                    and (sn is None or gram == matsuo_gram(sn)))
        return check

    def setup_check(self, state) -> tuple[object, bool]:
        predicted = {s: p for s, p in state["predicted"].items() if p is not None}
        ok = all(as_fractions(predicted[stem]) == matsuo_gram(sn)
                 for stem, _, _, sn in self.LADDER if sn is not None)
        files = {stem: json.loads(p.read_text(encoding="utf-8"))
                 for stem, p in state["files"].items()}
        return {"files": files, "predicted_gram": predicted}, ok


# -- axis-session --

class AxisSession:
    """A library session: forms and units once, then a seeded stream of queries."""

    name = "axis-session"
    setup_repeats = 3
    TRIPLES = 15
    WORDS = 15
    # (file stem, display name, capacity by theory)
    ALGEBRAS = [("s5", "Matsuo(S5)", 4), ("m3", "M3+", 3), ("h4p", "H4'", 3)]

    @staticmethod
    def _construct(C, stem: str):
        if stem == "s5":
            return C.matsuo(C.sn_transpositions(5))[0]
        if stem == "m3":
            return C.matrix_jordan(3)
        return C.sym_jordan_prime(4)

    def setup(self, lib, workdir: Path, seed: int):
        algs = {}
        for stem, name, _ in self.ALGEBRAS:
            path = workdir / f"{stem}.json"
            A = write_algebra(lib, name, self._construct(lib.constructions, stem), path)
            g, notes = lib.cli.gram_for(A)
            algs[stem] = {"A": A, "axes": list(A.designated_axes), "g": g, "notes": notes,
                          "unit": lib.algcore.find_unit(A), "path": path}
        return {"algs": algs}, self._ops(lib, algs, random.Random(seed))

    def _ops(self, lib, algs: dict, rng: random.Random) -> list[Op]:
        jh = lib.jordanhalf
        ops = []
        for stem, _, capacity in self.ALGEBRAS:
            s = algs[stem]
            A, axes, g = s["A"], s["axes"], s["g"]
            table = Table(s["path"])
            gram = [list(r) for r in g.gram.entries()]
            n = len(axes)
            for i, j in itertools.combinations(range(n), 2):
                ops.append(Op(f"pair:{stem}:{i}-{j}", call(jh, "pair_identity_suite", axes[i], axes[j], g),
                              outcome=_pair_outcome, check=lambda r: r.all_ok))
            for t in range(self.TRIPLES):
                i, j, k = rng.sample(range(n), 3)
                ops.append(Op(f"triple:{stem}:{i}-{j}-{k}#{t}",
                              call(jh, "triple_form_identity", axes[i], axes[j], axes[k], g),
                              outcome=lambda r: {"lhs": str(r.lhs), "rhs": str(r.rhs)},
                              check=lambda r: r.lhs == r.rhs, seeded=True))
            for t in range(self.WORDS):
                tree = (random_tree(rng, n, 2), random_tree(rng, n, 2))
                word = lib.algcore.Word(tree)
                ops.append(Op(f"word:{stem}:{tree_str(tree)}#{t}",
                              call(jh, "word_to_axis", A, axes, word, g),
                              outcome=lambda r: {"axis": strs(r[0].coords), "scale": str(r[1]),
                                                 "correction": strs(r[2].coords)},
                              check=_word_checker(table, gram, [a.coords for a in axes], tree),
                              verdicts=("FormValueOne", "SameAxis"), seeded=True))
            unit = s["unit"].coords
            ops.append(Op(f"capacity:{stem}", call(jh, "capacity_decomposition", A, axes, s["unit"], g),
                          outcome=lambda r: {"summands": [strs(x.coords) for x in r.summands],
                                             "levels": [len(lv) for _, lv in r.pivot_trace]},
                          check=_capacity_checker(table, unit, capacity)))
            ops.append(Op(f"unit:{stem}", call(jh, "build_unit", A, axes, g),
                          outcome=lambda r: strs(r.coords),
                          check=lambda r, table=table, unit=unit:
                          r.coords == unit and is_unit(table(), r.coords)))
            ops.append(Op(f"chain:{stem}", call(jh, "special_chain", A, axes, g),
                          outcome=lambda r: {"dims": r.dims,
                                             "axes": [strs(x.special_axis.coords)
                                                      for x in r.links[:-1]]},
                          check=lambda r, n=A.dim, capacity=capacity:
                          len(r.links) == capacity + 1 and r.dims[0] == n and r.dims[-1] == 0))
        rng.shuffle(ops)
        return ops

    def setup_check(self, state) -> tuple[object, bool]:
        out, ok = {}, True
        for stem, _, _ in self.ALGEBRAS:
            s = state["algs"][stem]
            table = Table(s["path"])()
            gram = [list(r) for r in s["g"].gram.entries()]
            unit = s["unit"].coords
            ok = (ok and s["notes"].get("constructions_agree") is True
                  and all(form(gram, a.coords, a.coords) == 1 for a in s["axes"])
                  and is_unit(table, unit)
                  and (stem != "s5" or gram == matsuo_gram(5)))
            out[stem] = {"gram": matrix_strs(gram), "notes": s["notes"], "unit": strs(unit)}
        return out, ok


def random_tree(rng: random.Random, n: int, depth: int):
    """A product tree over generator indices 0..n-1, at most ``depth`` levels deep."""
    if depth == 0 or rng.random() < 0.4:
        return rng.randrange(n)
    return (random_tree(rng, n, depth - 1), random_tree(rng, n, depth - 1))


def tree_str(tree) -> str:
    return str(tree) if isinstance(tree, int) else f"({tree_str(tree[0])}*{tree_str(tree[1])})"


def _pair_outcome(r) -> dict:
    return {k: str(v) if isinstance(v, Fraction) else v for k, v in vars(r).items()}


def _word_checker(table, gram, gens, tree):
    def evaluate(t):
        return gens[t] if isinstance(t, int) else mul(table(), evaluate(t[0]), evaluate(t[1]))

    def check(r) -> bool:
        axis, s, corr = r[0].coords, r[1], r[2].coords
        return (s != 0 and mul(table(), axis, axis) == axis and form(gram, axis, axis) == 1
                and scale(s, add(evaluate(tree), corr)) == axis)
    return check


def _capacity_checker(table, unit, capacity):
    def check(r) -> bool:
        xs = [x.coords for x in r.summands]
        return (len(xs) == capacity and add(*xs) == unit
                and all(mul(table(), x, x) == x for x in xs)
                and all(not any(mul(table(), x, y)) for x, y in itertools.combinations(xs, 2)))
    return check


# -- structure-scan --

class StructureScan:
    """Structure checks on the two largest algebras whose checks stay cheap."""

    name = "structure-scan"
    setup_repeats = 7

    def setup(self, lib, workdir: Path, seed: int):
        C = lib.constructions
        s6, predicted = C.matsuo(C.sn_transpositions(6))
        s6 = write_algebra(lib, "Matsuo(S6)", s6, workdir / "s6.json")
        m4 = write_algebra(lib, "M4+", C.matrix_jordan(4), workdir / "m4.json")
        state = {"predicted": predicted, "n": {"s6": s6.dim, "m4": m4.dim},
                 "tables": {stem: Table(workdir / f"{stem}.json") for stem in ("s6", "m4")}}
        true = lambda r: r is True
        ops = [Op("jordan:s6", call(lib.algcore, "jordan_identity_check", s6), outcome=bool, check=true)]
        ops += self._axes(lib, "s6", s6, state["tables"]["s6"])
        ops.append(Op("invariant:s6",
                      lambda: lib.axial.GramForm(s6, predicted).is_invariant(),
                      outcome=bool, check=true))
        ops += self._axes(lib, "m4", m4, state["tables"]["m4"])
        ops.append(Op("jordan:m4", call(lib.algcore, "jordan_identity_check", m4), outcome=bool, check=true))
        return state, ops

    @staticmethod
    def _axes(lib, stem: str, A, table) -> list[Op]:
        def check(r) -> bool:
            d = r.decomposition
            a = d.axis.coords
            eig = ((Fraction(0), d.v0), (Fraction(1, 2), d.v_half), (Fraction(1), d.v1))
            return (r.is_idempotent and r.spectrum_ok and r.semisimple and r.primitive
                    and r.fusion_ok and d.v1.dim == 1
                    and d.v0.dim + d.v_half.dim + d.v1.dim == len(table())
                    and all(mul(table(), a, v) == scale(lam, v) for lam, sp in eig for v in sp.vectors))

        def outcome(r) -> dict:
            d = r.decomposition
            return {"flags": [r.is_idempotent, r.spectrum_ok, r.semisimple, r.primitive, r.fusion_ok],
                    "v0": matrix_strs(d.v0.vectors), "v_half": matrix_strs(d.v_half.vectors),
                    "v1": matrix_strs(d.v1.vectors)}

        return [Op(f"axis:{stem}:{i}", call(lib.axial, "check_axis", a), outcome=outcome, check=check)
                for i, a in enumerate(A.designated_axes)]

    def setup_check(self, state) -> tuple[object, bool]:
        predicted = [list(r) for r in state["predicted"].entries()]
        return {"predicted_gram": matrix_strs(predicted), "dims": state["n"]}, \
            predicted == matsuo_gram(6)


WORKLOADS = {w.name: w for w in (AnalyzeLadder(), AxisSession(), StructureScan())}
