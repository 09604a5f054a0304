"""The metric list of ``BENCHMARK.json``, applied to one run's numbers."""

from __future__ import annotations

import json
from pathlib import Path

__all__ = ["with_units"]


def with_units(metrics: dict, traced: bool, root: Path | None = None) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the metrics the spec names.

    Untraced runs report the ``end_to_end`` list, traced runs the
    ``per_layer`` list.  A metric the spec names that the run did not
    measure, or the reverse, is a benchmark bug and raises.
    """
    root = Path.cwd() if root is None else root
    spec = json.loads((root / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if traced else "end_to_end"]
    names = [entry["name"] for entry in declared]
    if set(names) != set(metrics):
        raise KeyError(
            f"measured {sorted(set(metrics) - set(names))} not in the spec; "
            f"spec names {sorted(set(names) - set(metrics))} not measured"
        )
    return {
        entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
        for entry in declared
    }
