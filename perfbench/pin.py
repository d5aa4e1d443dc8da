"""Write the references the benchmark's checks compare against.

Usage (from the repository root)::

    python3 perfbench/pin.py [--workload NAME]

For ``figure6`` the reference is the scenario's result tables of each piece
at the pinned seed; for ``churn-repair`` it is the *object* engine's
tables, which the fastpath runs must equal; for ``arena-serve`` it
is the digest of every round's success and hop arrays, for all pre-drawn
rounds.  Re-pin only when
a change is meant to alter the program's outputs, and say so.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import PINNED_SEED, REFERENCES, WORKLOADS  # noqa: E402


def reference(name: str) -> dict:
    workload = WORKLOADS[name]()
    state = workload.setup(PINNED_SEED)
    try:
        if name == "arena-serve":
            problems = workload.prepare(state)
            if problems:
                raise SystemExit(f"arena-serve: {problems}")
            outcome = workload.timed(state, float("inf"))
            return {"seed": PINNED_SEED, "round_digests": outcome.outputs}
        from repro.scenarios import run

        pieces = []
        for spec in state.specs:
            if name == "churn-repair":
                spec = spec.with_overrides({"engine": "object"})
            pieces.append({"seed": spec.seed, "levels": list(spec.failures.levels),
                           "tables": workload.tables(run(spec))})
        return {"seed": PINNED_SEED, "pieces": pieces}
    finally:
        workload.close(state)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    names = parser.parse_args().workload or sorted(WORKLOADS)
    REFERENCES.mkdir(exist_ok=True)
    for name in names:
        path = REFERENCES / f"{name}.seed{PINNED_SEED}.json"
        path.write_text(json.dumps(reference(name), indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.relative_to(HERE.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
