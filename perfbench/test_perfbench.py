"""Tests of the benchmark's own machinery (not of the program).

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402


class ManualClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def clock() -> ManualClock:
    return ManualClock()


def test_nested_spans_split_inclusive_and_self_time(clock):
    tracer = Tracer(clock)

    def leaf():
        clock.advance(2.0)

    def middle():
        clock.advance(1.0)
        leaf()
        clock.advance(0.5)
        leaf()

    def top():
        clock.advance(0.25)
        middle()

    leaf = tracer.wrap(leaf, "leaf")
    middle = tracer.wrap(middle, "middle")
    top = tracer.wrap(top, "top")
    top()

    assert tracer.spans["leaf"].calls == 2
    assert tracer.spans["leaf"].s == pytest.approx(4.0)
    assert tracer.spans["leaf"].self_s == pytest.approx(4.0)
    assert tracer.spans["middle"].s == pytest.approx(5.5)
    assert tracer.spans["middle"].self_s == pytest.approx(1.5)
    assert tracer.spans["top"].s == pytest.approx(5.75)
    assert tracer.spans["top"].self_s == pytest.approx(0.25)
    # Only the outermost call counts as top-level time.
    assert tracer.top_level_s == pytest.approx(5.75)
    total_self = sum(stats.self_s for stats in tracer.spans.values())
    assert total_self == pytest.approx(tracer.top_level_s)


def test_span_name_can_depend_on_arguments(clock):
    tracer = Tracer(clock)
    route = tracer.wrap(lambda mode: clock.advance(1.0), lambda mode: f"route.{mode}")
    route("a")
    route("b")
    route("b")
    assert tracer.spans["route.a"].calls == 1
    assert tracer.spans["route.b"].calls == 2


def test_raising_call_is_recorded_and_unwinds_the_stack(clock):
    tracer = Tracer(clock)

    def fails():
        clock.advance(1.0)
        raise ValueError("boom")

    fails = tracer.wrap(fails, "fails")
    outer = tracer.wrap(lambda: fails(), "outer")
    with pytest.raises(ValueError):
        outer()
    assert tracer.spans["fails"].s == pytest.approx(1.0)
    assert tracer.spans["outer"].self_s == pytest.approx(0.0)
    assert tracer.top_level_s == pytest.approx(1.0)
    # The stack is empty again: a new call is top-level.
    tracer.wrap(lambda: clock.advance(3.0), "after")()
    assert tracer.top_level_s == pytest.approx(4.0)


def test_counts_come_from_results_and_arguments(clock):
    tracer = Tracer(clock)
    double = tracer.wrap(
        lambda value: 2 * value, "double",
        on_result=lambda result, value: tracer.count("doubled", result),
    )
    assert double(3) == 6
    assert double(4) == 8
    assert tracer.counts["doubled"] == 14


def test_unattributed_time_is_never_negative(clock):
    """Wall time of a window minus its top-level spans is >= 0."""
    tracer = Tracer(clock)
    inner = tracer.wrap(lambda: clock.advance(0.5), "inner")

    def outer():
        clock.advance(0.1)
        inner()

    outer = tracer.wrap(outer, "outer")
    started = clock()
    before = tracer.top_level_s
    for step in range(5):
        clock.advance(0.01 * step)  # unwrapped work between calls
        outer()
        inner()
    wall = clock() - started
    unattributed = wall - (tracer.top_level_s - before)
    assert unattributed >= 0
    assert unattributed == pytest.approx(0.1)


class Widget:
    def plain(self, value):
        return value + 1

    @classmethod
    def build(cls, value):
        return cls, value


def test_patch_method_wraps_and_restore_puts_back_the_same_objects(clock):
    originals = {name: Widget.__dict__[name] for name in ("plain", "build")}
    tracer = Tracer(clock)
    for name in originals:
        tracer.patch_method(Widget, name, f"Widget.{name}")
    assert all(Widget.__dict__[name] is not original for name, original in originals.items())
    assert Widget().plain(1) == 2
    assert Widget.build(5) == (Widget, 5)
    assert {name: tracer.spans[f"Widget.{name}"].calls for name in originals} == {
        "plain": 1, "build": 1,
    }
    tracer.restore()
    for name, original in originals.items():
        assert Widget.__dict__[name] is original
    tracer.restore()  # idempotent
    Widget().plain(1)
    assert tracer.spans["Widget.plain"].calls == 1


def test_patch_function_replaces_every_binding_and_restores_them(clock, monkeypatch):
    def target(value):
        return value - 1

    home = types.ModuleType("fakepkg.home")
    home.target = target
    caller = types.ModuleType("fakepkg.caller")
    caller.target = target
    caller.alias = target
    elsewhere = types.ModuleType("otherpkg.caller")
    elsewhere.target = target
    for module in (home, caller, elsewhere):
        monkeypatch.setitem(sys.modules, module.__name__, module)

    tracer = Tracer(clock)
    assert tracer.patch_function(target, "target", module_prefix="fakepkg") == 3
    assert caller.alias(5) == 4 and home.target(1) == 0
    assert tracer.spans["target"].calls == 2
    assert elsewhere.target is target  # outside the prefix: untouched
    tracer.restore()
    assert home.target is target and caller.target is target and caller.alias is target


def test_pace_sums_each_pieces_fastest_and_median_repetition():
    from workloads import pace

    assert pace([[3.0, 1.0, 2.0], [5.0, 4.0]]) == (5.0, 6.5)
    # Slow stretches move the median once they cover half of a piece's
    # repetitions, and the fastest time only once they cover all of them.
    assert pace([[1.0, 1.0, 9.0], [2.0, 2.0, 9.0]]) == (3.0, 3.0)
    assert pace([[1.0, 9.0, 9.0], [2.0, 9.0, 9.0]]) == (3.0, 18.0)


def test_benchmark_json_declares_what_the_runs_print():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.metric_names()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.SETUP_REPEATS)
    assert all(len(m["name"]) <= 64 for m in spec["per_layer"])


def test_fails_without_the_program_sources(tmp_path):
    """In a directory with only the benchmark, a run exits non-zero, printing no result."""
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "churn-repair",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_install_patches_callers_lookups_and_restore_undoes_every_patch():
    sys.path.insert(0, str(HERE.parent / "src"))
    layers.import_layers()
    import numpy as np
    import repro.experiments.figure6 as figure6
    import repro.scenarios.churn as churn
    import repro.fastpath as fastpath

    def bindings():
        found = {}
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("repro") and module is not None:
                found.update({(module_name, key): value for key, value in vars(module).items()})
        for module_name, qualnames in layers.TARGETS:
            for qualname in qualnames:
                if "." in qualname:
                    owner, attribute = qualname.split(".")
                    cls = getattr(sys.modules[module_name], owner)
                    found[(qualname, attribute)] = cls.__dict__[attribute]
        return found

    before = bindings()
    original_sampler = figure6.sample_node_failures
    original_builder = churn.build_heuristic_network
    tracer = Tracer()
    try:
        layers.install(tracer)
        assert figure6.sample_node_failures is not original_sampler
        assert churn.build_heuristic_network is not original_builder
        started = tracer.clock()
        snapshot = fastpath.build_snapshot(256, seed=1)
        router = fastpath.BatchGreedyRouter(snapshot)
        result = router.route_batch(np.array([1, 2, 3]), np.array([200, 100, 50]))
        wall = tracer.clock() - started
    finally:
        tracer.restore()
    assert bindings() == before
    metrics = layers.layer_metrics(tracer, {"hits": 0, "misses": 0})
    assert metrics["builder.build_snapshot.calls"] == 1
    assert metrics["batch_router.BatchGreedyRouter.route_batch.terminate.calls"] == 1
    assert metrics["count.queries_routed"] == 3
    assert metrics["count.hops_total"] == int(result.hops.sum())
    assert wall - tracer.top_level_s >= 0
