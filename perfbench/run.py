"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figure6 --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, measured with no wrapper
installed.  ``--trace 1`` runs a fixed amount of work once without wrappers
and once with every layer's public callables wrapped (see ``layers.py``),
and prints the per-layer metrics.  ``--workload all`` runs every workload, each
in a fresh interpreter, and prints them side by side.

Every run checks the program's outputs (see ``workloads.py``).  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report and an environment stamp.  A run whose check fails reports
every attempted lookup as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from multiprocessing import resource_tracker
from pathlib import Path

# One thread per run: no numerical library may start a thread pool.
for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = {"figure6": 7, "churn-repair": 7, "arena-serve": 3}

#: Work in each phase of a traced run: passes over a scenario's pieces, or
#: serving rounds.  Fixed, so that the counts repeat exactly.
TRACED_COUNT = {"figure6": 2, "churn-repair": 3, "arena-serve": 60}

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_rate", "fraction"),
    ("mean_hops", "hops"),
    ("lookups_per_s", "1/s"),
)

#: Printed by name and unit, not declared in ``BENCHMARK.json``: the median
#: unit of work for every workload, and the serving latencies, which only
#: ``arena-serve`` has.
INFORMATIVE = (
    ("run_s_p50", "s"),
    ("batch_ms_p50", "ms"),
    ("batch_ms_p90", "ms"),
    ("refresh_ms_p50", "ms"),
    ("cold_batch_ms", "ms"),
)


def git_sha() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "mem_total_mb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20),
    }


def end_to_end(setup: list[float], outcome, extra_metrics: dict[str, float]) -> dict[str, float]:
    metrics = {
        "setup_s": statistics.median(setup),
        "run_s": outcome.run_s,
        "peak_rss_mb": outcome.peak_rss_mb,
        "success_rate": outcome.successes / outcome.lookups,
        "mean_hops": outcome.successful_hops / max(1, outcome.successes),
        "lookups_per_s": outcome.unit_lookups / outcome.run_s,
        "run_s_p50": outcome.median_s,
    }
    metrics.update(extra_metrics)
    return metrics


def measure(workload, name: str, seed: int, seconds: float) -> tuple[dict, list[str], int]:
    """Untraced run: repeated set-up, the timed phase, then the checks."""
    from workloads import clock

    setup: list[float] = []
    state = None
    try:
        for _ in range(SETUP_REPEATS[name]):
            if state is not None:
                workload.close(state)
                state = None
            begun = clock()
            state = workload.setup(seed)
            setup.append(clock() - begun)
        arena = name == "arena-serve"
        problems = workload.prepare(state) if arena else []
        extra = {"cold_batch_ms": workload.cold(state)} if arena else {}
        outcome = workload.timed(state, seconds)
        problems += workload.check(state, [outcome])
        extra.update(outcome.extra)
    finally:
        if state is not None:
            workload.close(state)
    return end_to_end(setup, outcome, extra), problems, outcome.lookups


def measure_traced(workload, name: str, seed: int, seconds: float) -> tuple[dict, list[str], int]:
    """Traced run: a warm-up, a fixed amount of work untraced, then again with every wrapper.

    The warm-up takes the process's first-touch costs, so the untraced and
    traced phases that are compared both run warm.  Each phase does
    :data:`TRACED_COUNT` units of work, so every count repeats exactly.
    """
    import layers
    from spans import Tracer

    layers.import_layers()
    from repro.fastpath import snapshot_cache_clear, snapshot_cache_stats

    arena = name == "arena-serve"
    tracer = Tracer()
    state = None
    try:
        layers.install(tracer)
        state = workload.setup(seed, fresh=False)
        tracer.restore()
        problems = workload.prepare(state) if arena else []
        count = TRACED_COUNT[name]
        workload.timed(state, seconds, count)
        if arena:
            state.fresh_server()
        plain = workload.timed(state, seconds, count)
        snapshot_cache_clear()
        layers.install(tracer)
        if arena:
            workload.cold(state)
            state.fresh_server()
        traced = workload.timed(state, seconds, count, attributed=lambda: tracer.top_level_s)
        tracer.restore()
        problems += workload.check(state, [plain, traced])
    finally:
        tracer.restore()
        if state is not None:
            workload.close(state)
    metrics = layers.layer_metrics(tracer, snapshot_cache_stats())
    # Both per unit of work, comparable with ``run_s``.
    metrics["unattributed_s"] = (traced.wall_s - traced.attributed_s) / traced.units
    metrics["tracing_overhead_s"] = traced.run_s - plain.run_s
    return metrics, problems, plain.lookups + traced.lookups


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(HERE))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    from workloads import WORKLOADS

    workload = WORKLOADS[name]()
    stamp = environment()
    print("env " + json.dumps(stamp, sort_keys=True))
    metrics, problems, attempted = (measure_traced if trace else measure)(
        workload, name, seed, seconds
    )
    # Shared memory starts multiprocessing's resource-tracker process; stop
    # it and wait for it, so that the run leaves no process behind.
    resource_tracker._resource_tracker._stop()
    units = dict(layers.metric_names()) if trace else dict(END_TO_END + INFORMATIVE)
    for key, value in metrics.items():
        print(f"{name} {key} = {value:.6g} {units[key]}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    declared = [key for key, _unit in (layers.metric_names() if trace else END_TO_END)]
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted if problems else 0,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in declared},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own fresh interpreter; a combined report."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in SETUP_REPEATS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        completed = subprocess.run(command, capture_output=True, text=True, timeout=900, check=False)
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        if completed.returncode != 0:
            return completed.returncode
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*SETUP_REPEATS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
