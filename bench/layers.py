"""The axialq functions the traced run wraps, and the per-layer metrics they give.

Hot leaves are counters; layer entry points are spans (see tracer.py).
Each target lists the metrics it reports, named
``<module>.<function>.<metric>``.
"""

from __future__ import annotations

from tracer import COUNTER, SPAN

TIMES = ("calls", "self_s", "incl_s")
INCL = ("incl_s",)


def _rref_probe(extra: dict, args: tuple, result) -> None:
    m = args[0]
    cells = m.rows * m.cols
    extra["cells"] = extra.get("cells", 0) + cells
    extra["max_cells"] = max(extra.get("max_cells", 0), cells)
    bits = max((max(q.numerator.bit_length(), q.denominator.bit_length())
                for row in result.reduced.entries() for q in row), default=0)
    extra["max_bits"] = max(extra.get("max_bits", 0), bits)
    extra.setdefault("seen", set()).add(hash(m))


def _eig_probe(extra: dict, args: tuple, result) -> None:
    e = args[0]
    # keep the algebra alive so its id cannot be reused by a later algebra
    extra.setdefault("algebras", {})[id(e.algebra)] = e.algebra
    extra.setdefault("seen", set()).add((id(e.algebra), e.coords))


# (name, kind, probe, metrics)
TARGETS = [
    ("exactla.rref", COUNTER, _rref_probe,
     TIMES + ("cells", "max_cells", "max_bits", "distinct_ratio")),
    ("exactla.solve", COUNTER, None, TIMES),
    ("exactla.kernel_basis", COUNTER, None, TIMES),
    ("exactla.SubspaceBasis.__init__", COUNTER, None, TIMES),
    ("exactla.SubspaceBasis.coords_of", COUNTER, None, TIMES),
    ("exactla.SubspaceBasis.intersection", COUNTER, None, TIMES),
    ("algcore.multiply", COUNTER, None, TIMES),
    ("algcore.jordan_identity_check", SPAN, None, TIMES),
    ("algcore.find_unit", SPAN, None, TIMES),
    ("algcore.subalgebra_closure", SPAN, None, TIMES),
    ("algcore.ideal_closure", SPAN, None, TIMES),
    ("algcore.restrict_to_subspace", SPAN, None, TIMES),
    ("axial.GramForm.value", COUNTER, None, TIMES),
    ("axial.GramForm.is_invariant", SPAN, None, TIMES),
    ("axial.eigendecompose", COUNTER, _eig_probe, TIMES + ("distinct_ratio",)),
    ("axial.check_axis", SPAN, None, TIMES),
    ("axial.check_fusion", COUNTER, None, TIMES),
    ("axial.peirce_components", COUNTER, None, TIMES),
    ("axial.frobenius_solve", SPAN, None, TIMES),
    ("axial.frobenius_projection", SPAN, None, TIMES),
    ("axial.radical", SPAN, None, TIMES),
    ("jordanhalf.pair_identity_suite", SPAN, None, TIMES),
    ("jordanhalf.triple_form_identity", SPAN, None, TIMES),
    ("jordanhalf.word_to_axis", SPAN, None, TIMES),
    ("jordanhalf.x_of", COUNTER, None, TIMES),
    ("jordanhalf.a0_axis_basis", SPAN, None, TIMES),
    ("jordanhalf.capacity_decomposition", SPAN, None, TIMES),
    ("jordanhalf.build_unit", SPAN, None, TIMES),
    ("jordanhalf.special_chain", SPAN, None, TIMES),
    ("constructions.sn_transpositions", SPAN, None, INCL),
    ("constructions.matsuo", SPAN, None, INCL),
    ("constructions.matrix_jordan", SPAN, None, INCL),
    ("constructions.sym_jordan_prime", SPAN, None, INCL),
    ("constructions.spin_factor", SPAN, None, INCL),
    ("constructions.two_gen_algebra", SPAN, None, INCL),
    ("fileio.AlgebraFile.from_json", SPAN, None, INCL),
    ("fileio.AlgebraFile.to_json", SPAN, None, INCL),
    ("fileio.Report.to_json", SPAN, None, INCL),
    ("cli.gram_for", SPAN, None, INCL),
    ("cli.run_command", SPAN, None, INCL),
]

UNITS = {"calls": "count", "self_s": "s", "incl_s": "s", "cells": "count",
         "max_cells": "count", "max_bits": "bits", "distinct_ratio": "ratio"}

OVERHEAD = "trace.overhead_s"


def per_layer_spec() -> dict[str, tuple[str, str]]:
    """Metric name -> (unit, better) for every per-layer metric, in report order."""
    spec = {}
    for name, _, _, metrics in TARGETS:
        for metric in metrics:
            better = "higher" if metric == "distinct_ratio" else "lower"
            spec[f"{name}.{metric}"] = (UNITS[metric], better)
    spec[OVERHEAD] = ("s", "lower")
    return spec


def layer_values(tracer) -> dict[str, float]:
    """Values of every per-layer metric except the overhead, from a finished trace."""
    out = {}
    for name, _, _, metrics in TARGETS:
        calls, self_s, incl_s = tracer.stats[name]
        extra = tracer.extra[name]
        derived = {"calls": calls, "self_s": self_s, "incl_s": incl_s,
                   "distinct_ratio": len(extra.get("seen", ())) / calls if calls else 0.0}
        for metric in metrics:
            out[f"{name}.{metric}"] = derived[metric] if metric in derived \
                else extra.get(metric, 0)
    return out
