"""The measurements behind every table and figure of the paper.

Each module holds the measurement loop of one experiment of the evaluation:

* :mod:`repro.experiments.figure5` — link-length distribution of the
  construction heuristic vs the ideal inverse power law (Figure 5a/5b).
* :mod:`repro.experiments.figure6` — failed searches and delivery time under
  node failures, for the three recovery strategies (Figure 6a/6b).
* :mod:`repro.experiments.figure7` — heuristically constructed vs ideal
  network under node failures (Figure 7).
* :mod:`repro.experiments.table1` — delivery-time scaling for every row of
  Table 1, compared against the theoretical bound shapes.
* :mod:`repro.experiments.ablations` — link-replacement strategy, backtrack
  depth, power-law exponent, and Byzantine-routing ablations.
* :mod:`repro.experiments.baseline_comparison` — hop counts and failure
  resilience of Chord / Kleinberg / CAN / Plaxton vs this paper's overlay.

The experiments are run through the scenario registry, never directly: build
a :class:`~repro.scenarios.ScenarioSpec` (``get_scenario(name).make_spec()``
or a typed ``*_spec`` helper from :mod:`repro.scenarios.library`) and call
:func:`repro.scenarios.run`, or use the ``repro list`` / ``repro run`` /
``repro sweep`` CLI.  :mod:`repro.experiments.runner` holds the shared
result table and the engine switch.
"""

from repro.experiments.figure5 import Figure5Result
from repro.experiments.figure6 import Figure6Result
from repro.experiments.figure7 import Figure7Result
from repro.experiments.runner import (
    EngineRouteResult,
    ExperimentTable,
    format_table,
)
from repro.experiments.table1 import Table1Result

__all__ = [
    "Figure5Result",
    "Figure6Result",
    "Figure7Result",
    "Table1Result",
    "ExperimentTable",
    "EngineRouteResult",
    "format_table",
]
