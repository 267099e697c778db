"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root is the one declaration: the command,
the workloads, every metric name with its unit and direction, and the
regression bounds of the end-to-end metrics.  ``child.py`` refuses to report
any other set of names than the one read here.
"""

from __future__ import annotations

import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def units(kind: str) -> dict[str, str]:
    """name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    return {entry["name"]: entry["unit"] for entry in declared()[kind]}


def at_reference_speed(values: dict[str, float], factor: float) -> dict[str, float]:
    """Per-layer ``values`` measured ``factor`` times slower than they are to
    be reported (``calibration.factor``, or a traced repetition's slowdown
    against the plain ones), with every time rescaled."""
    scale = {"s": 1.0 / factor, "ms": 1.0 / factor, "us": 1.0 / factor, "1/s": factor}
    unit = units("per_layer")
    return {name: value * scale.get(unit[name], 1.0) for name, value in values.items()}
