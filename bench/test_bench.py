"""Tests of the benchmark itself (not collected by the library's suite):

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import re
import signal
import time
import types
from pathlib import Path

import pytest

from layers import per_layer_spec
from run import END_TO_END, evaluate, percentile
from speed import SpeedProbe
from tracer import COUNTER, SPAN, Tracer
from workloads import WORKLOADS, Op

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                       .read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def test_end_to_end_metrics_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == END_TO_END


def test_per_layer_metrics_match_benchmark_json():
    declared = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}
    assert declared == per_layer_spec()


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_metric_names_are_unique_and_use_allowed_characters():
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in BENCHMARK[kind]]
    assert len(names) == len(set(names))
    assert [n for n in names if not NAME.match(n)] == []


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile(list(range(99)), 90) is None      # 9 samples beyond rank 90
    assert percentile(list(range(100)), 90) == 89        # samples 90..99 lie beyond
    assert percentile(list(range(195)), 90) == 175
    assert percentile(list(range(19)), 50) is None
    assert percentile(list(range(20)), 50) == 9
    assert percentile([], 50) is None


def _synthetic(tracer: Tracer):
    """top(3) -> mid(2, leaf, 0.5, leaf) -> leaf -> 0.25, on a clock the functions advance."""
    now = [0.0]
    tracer.clock = lambda: now[0]

    def work(dt):
        now[0] += dt

    ns = types.SimpleNamespace()

    def mid():
        work(2.0)
        ns.leaf()
        work(0.5)
        ns.leaf()

    def top():
        work(3.0)
        ns.mid()
        ns.leaf()
        work(0.25)

    def rec(n):
        work(1.0)
        if n:
            ns.rec(n - 1)

    ns.leaf = tracer.wrap("leaf", lambda: work(1.0), COUNTER)
    ns.mid = tracer.wrap("mid", mid, SPAN)
    ns.top = tracer.wrap("top", top, SPAN)
    ns.rec = tracer.wrap("rec", rec, COUNTER)
    return ns


def test_self_time_on_synthetic_span_tree():
    tracer = Tracer()
    ns = _synthetic(tracer)
    tracer.op_id = 7
    ns.top()
    ns.rec(2)
    # name: [calls, self_s, incl_s]
    assert tracer.stats["leaf"] == [3, 3.0, 3.0]
    assert tracer.stats["mid"] == [1, 2.5, 4.5]
    assert tracer.stats["top"] == [1, 3.25, 8.75]
    assert tracer.stats["rec"] == [3, 3.0, 3.0]  # inclusive time counts the outermost call only
    # (id, parent, op, name, start, end, self_s), in order of completion
    assert tracer.spans == [(2, 1, 7, "mid", 3.0, 7.5, 2.5), (1, None, 7, "top", 0.0, 8.75, 3.25)]


def test_install_rebinds_every_alias_and_uninstall_restores():
    def f(x):
        return x + 1

    class K:
        def m(self):
            return 1

        @classmethod
        def c(cls):
            return 2

    home = types.ModuleType("home")
    home.f, home.K = f, K
    user = types.ModuleType("user")
    user.f = user.g = f
    raw_m, raw_c = vars(K)["m"], vars(K)["c"]

    tracer = Tracer()
    tracer.install({"home": home}, [home, user],
                   [("home.f", COUNTER, None), ("home.K.m", SPAN, None), ("home.K.c", SPAN, None)])
    assert tracer.unwrapped_aliases([home, user]) == []
    assert (home.f(1), user.g(1), K().m(), K.c()) == (2, 2, 1, 2)
    assert [tracer.stats[n][0] for n in ("home.f", "home.K.m", "home.K.c")] == [2, 1, 1]
    tracer.uninstall()
    assert home.f is f and user.f is f and user.g is f
    assert vars(K)["m"] is raw_m and vars(K)["c"] is raw_c

    partial = Tracer()
    partial.install({"home": home}, [home], [("home.f", COUNTER, None)])
    assert partial.unwrapped_aliases([home, user]) == ["user.f", "user.g"]
    partial.uninstall()


def test_only_listed_axial_errors_are_verdicts():
    class AxialError(Exception):
        pass

    class InvariantViolation(AxialError):
        pass

    class FormValueOne(AxialError):
        pass

    errors = types.SimpleNamespace(AxialError=AxialError, InvariantViolation=InvariantViolation)
    op = Op("k", run=None, outcome=lambda r: r, check=lambda r: r == 1,
            verdicts=("FormValueOne", "InvariantViolation"))
    assert evaluate(op, None, FormValueOne(), errors) == ({"verdict": "FormValueOne"}, True)
    assert evaluate(op, None, InvariantViolation(), errors) == ({"error": "InvariantViolation"}, False)
    assert evaluate(op, None, ValueError(), errors) == ({"error": "ValueError"}, False)
    assert evaluate(op, 1, None, errors) == (1, True)
    assert evaluate(op, 2, None, errors) == (2, False)


def test_speed_probe_cost_divides_net_time_by_local_kernel_time():
    probe = SpeedProbe()
    # kernel samples at t = 0, 1, ..., 19: 0.1 s each, then 0.2 s from t = 10 (a slower machine)
    probe.starts = [float(t) for t in range(20)]
    probe.durations = [0.1] * 10 + [0.2] * 10
    # [0.5, 3.5] holds the samples at 1, 2, 3: 2.7 s net, at 0.1 s per kernel
    assert probe.net(0.5, 3.0) == pytest.approx(2.7)
    assert probe.cost(0.5, 3.0) == pytest.approx(27.0)
    # [12.5, 18.5] holds six samples of 0.2 s: 4.8 s net, at 0.2 s per kernel
    assert probe.cost(12.5, 6.0) == pytest.approx(24.0)
    # a short operation holds no sample and borrows its neighbours' (t = 2..7)
    assert probe.cost(4.2, 0.3) == pytest.approx(3.0)


def test_speed_probe_samples_and_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(interval=0.002) as probe:
        end = time.perf_counter() + 0.05
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(probe.durations) >= 5 and all(d > 0 for d in probe.durations)
    assert probe.spent == pytest.approx(sum(probe.durations))
    assert time.perf_counter() - probe.net_clock() == pytest.approx(probe.spent, abs=1e-3)
