#!/usr/bin/env python3
"""Benchmark of axialq: one workload per process, closed loop, checked outcomes.

    python3 bench/run.py --workload analyze-ladder --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  The run sets the workload up several times (set-up time is the
median), then cycles through the workload's fixed list of operations until
at least one whole pass is done and ``--seconds`` of operation time have
passed.  A pass's time sums each operation's mean over that window, so the
whole window counts even when it ends mid-pass.  Times in the result are
reference seconds (speed.py), which stay steady while the shared machine's
speed swings; the report also gives them raw.  Every outcome is checked
outside the timed interval.  With ``--trace 1`` one more set-up
and pass run under the per-layer tracer, and the per-layer metrics are
reported instead of the end-to-end ones.

Standard output ends with two JSON lines: a report (environment, latency
percentiles, hashes, failures) and the result line
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from layers import OVERHEAD, TARGETS, layer_values, per_layer_spec
from speed import SpeedProbe
from tracer import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_run"
LAYERS = ("exactla", "algcore", "axial", "jordanhalf", "constructions", "fileio", "cli")

# name -> unit; the result line with --trace 0 carries exactly these
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
MIN_TAIL = 10  # a percentile is reported only with this many samples beyond it


def percentile(samples: list[float], pct: int):
    """Nearest-rank percentile, or None when fewer than ``MIN_TAIL`` samples lie beyond it."""
    n = len(samples)
    rank = -(-pct * n // 100)  # ceil(pct * n / 100)
    if n == 0 or n - rank < MIN_TAIL:
        return None
    return sorted(samples)[max(rank, 1) - 1]


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256(obj) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()


def axialq_modules() -> list:
    return [m for name, m in sys.modules.items() if name == "axialq" or name.startswith("axialq.")]


def fresh_import() -> SimpleNamespace:
    """Import axialq anew, so that set-up time includes the import."""
    for module in axialq_modules():
        del sys.modules[module.__name__]
    lib = SimpleNamespace(root=importlib.import_module("axialq"))
    for layer in LAYERS + ("errors",):
        setattr(lib, layer, importlib.import_module(f"axialq.{layer}"))
    return lib


def run_ops(ops, seconds: float = 0.0, tracer=None) -> list[tuple]:
    """Run the operations in order, one after another, cycling through the list.

    Stops after the first whole pass once ``seconds`` of operation time have
    been spent, so the measured window does not depend on how long a pass
    is.  Returns ``[(op index, result, error, start, seconds)]``.
    """
    records = []
    clock = time.perf_counter
    spent = 0.0
    while len(records) < len(ops) or spent < seconds:
        i = len(records) % len(ops)
        if tracer is not None:
            tracer.op_id = i
        s = clock()
        try:
            result, error = ops[i].run(), None
        except Exception as exc:  # an operation's failure is counted, the loop goes on
            result, error = None, exc
        dt = clock() - s
        records.append((i, result, error, s, dt))
        spent += dt
    return records


def pass_time(ops, records, measure=lambda start, dt: dt) -> float:
    """One pass: the sum over operations of each one's mean ``measure(start, seconds)``."""
    samples = [[] for _ in ops]
    for i, _, _, start, dt in records:
        samples[i].append(measure(start, dt))
    return sum(statistics.fmean(s) for s in samples)


class Checker:
    """Counts operations whose outcome disagrees with the reference.

    The reference for an operation is its stored hash when it has one, and
    otherwise its first outcome in this run; either way the workload's own
    reference check must hold too.
    """

    def __init__(self, reference: dict):
        self.reference = reference
        self.seen: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, key: str, outcome, ok: bool) -> str:
        digest = sha256(outcome)
        expected = self.reference.get(key, self.seen.get(key))
        self.seen.setdefault(key, digest)
        self.attempted += 1
        if not ok or (expected is not None and digest != expected):
            self.failures.append(key)
        return digest

    def check(self, ops, records, errors) -> str:
        """Check every record; returns the hash of the first pass's findings."""
        digests = {}
        for i, result, error, _, _ in records:
            outcome, ok = evaluate(ops[i], result, error, errors)
            digests.setdefault(ops[i].key, self.record(ops[i].key, outcome, ok))
        return sha256(digests)


def evaluate(op, result, error, errors) -> tuple[object, bool]:
    """Canonical outcome of one operation and whether it passes its reference check."""
    if error is not None:
        kind = type(error).__name__
        verdict = (isinstance(error, errors.AxialError)
                   and not isinstance(error, errors.InvariantViolation)
                   and kind in op.verdicts)
        return {"verdict" if verdict else "error": kind}, verdict
    try:
        return op.outcome(result), bool(op.check(result))
    except Exception as exc:  # a malformed result fails its check
        return {"unreadable": type(exc).__name__}, False


def environment() -> dict:
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "loadavg": list(os.getloadavg())}


def trace_run(workload, seed: int, workdir: Path, checker: Checker) -> dict:
    """One set-up and one pass under the tracer; per-layer values and self-checks.

    The speed probe runs here too, so that the pass's time compares with the
    untraced one; the tracer's clock stands still while the probe samples.
    """
    lib = fresh_import()
    scope = axialq_modules()
    with SpeedProbe() as probe:
        tracer = Tracer(clock=probe.net_clock)
        tracer.install({layer: getattr(lib, layer) for layer in LAYERS}, scope,
                       [(name, kind, probe_fn) for name, kind, probe_fn, _ in TARGETS])
        try:
            aliases = tracer.unwrapped_aliases(scope)
            state, ops = workload.setup(lib, workdir, seed)
            records = run_ops(ops, tracer=tracer)
        finally:
            tracer.uninstall()
    setup_outcome, setup_ok = workload.setup_check(state)
    checker.record("setup", setup_outcome, setup_ok)
    findings = checker.check(ops, records, lib.errors)
    spans_file = workdir / f"spans-seed{seed}.json"
    spans_file.write_text(json.dumps(
        {"fields": ["id", "parent", "op", "name", "start_s", "end_s", "self_s"],
         "ops": [op.key for op in ops], "spans": tracer.spans}), encoding="utf-8")
    return {"values": layer_values(tracer), "wall_s": pass_time(ops, records, probe.ref_seconds),
            "findings_sha256": findings, "unwrapped_aliases": aliases,
            "spans": len(tracer.spans), "spans_file": str(spans_file.relative_to(ROOT))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "axialq" / "__init__.py").is_file():
        print(f"bench: no library sources at {SRC.relative_to(ROOT)}/axialq; "
              "run from the root of an axialq checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    workdir = WORKDIR / workload.name
    workdir.mkdir(parents=True, exist_ok=True)
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    checker = Checker(reference.get(workload.name, {}))

    setups = []
    with SpeedProbe() as probe:
        for _ in range(1 if args.trace else workload.setup_repeats):
            state = ops = None
            gc.collect()  # the previous set-up's garbage is not this one's cost
            t0 = time.perf_counter()
            lib = fresh_import()
            state, ops = workload.setup(lib, workdir, args.seed)
            setups.append((t0, time.perf_counter() - t0))
        gc.collect()
        records = run_ops(ops, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s = [probe.ref_seconds(*span) for span in setups]
    wall_s = pass_time(ops, records, probe.ref_seconds)
    wall_s_raw = pass_time(ops, records, probe.net)
    latencies = [probe.ref_seconds(start, dt) for _, _, _, start, dt in records]
    setup_outcome, setup_ok = workload.setup_check(state)
    checker.record("setup", setup_outcome, setup_ok)
    findings = checker.check(ops, records, lib.errors)

    report = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              **environment(), "setup_s": setup_s, "setup_s_raw": [dt for _, dt in setups],
              "wall_s": wall_s, "wall_s_raw": wall_s_raw,
              "reference_kernel_s": statistics.median(probe.durations),
              "ops_per_pass": len(ops), "ops_run": len(records),
              "op_s": {"n": len(latencies), "p50": percentile(latencies, 50),
                       "p90": percentile(latencies, 90)},
              "findings_sha256": findings}
    correct = True
    if args.trace:
        traced = trace_run(workload, args.seed, workdir, checker)
        values = traced.pop("values")
        values[OVERHEAD] = traced["wall_s"] - wall_s
        report["traced"] = traced
        correct = traced["findings_sha256"] == findings and not traced["unwrapped_aliases"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, (unit, _) in per_layer_spec().items()}
    else:
        values = {"setup_s": statistics.median(setup_s), "wall_s": wall_s,
                  "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}

    failed = len(checker.failures)
    correct = correct and failed == 0
    report["fail_ratio"] = failed / checker.attempted
    report["failures"] = checker.failures[:20]
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": checker.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
