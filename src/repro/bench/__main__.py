"""Run paper experiments from the command line.

    python -m repro.bench                        # list experiments
    python -m repro.bench fig7 fig14             # run and print selected ones
    python -m repro.bench all                    # run everything
    python -m repro.bench --profile fig7         # cProfile, top 25 by cumtime

``--profile`` wraps the selected experiments in :mod:`cProfile` and prints
the 25 hottest call sites by cumulative time.  These experiments count
modeled I/Os; wall-clock speed is measured by ``benchmarks/e2e/run.py``.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
from typing import Callable, Dict

from . import experiments
from .harness import ExperimentResult
from .validation import validation_grid

PROFILE_TOP = 25

EXPERIMENTS: Dict[str, Callable[[], ExperimentResult]] = {
    "fig7": experiments.figure7,
    "fig8": experiments.figure8,
    "fig9": experiments.figure9,
    "fig10": experiments.figure10,
    "fig11": experiments.figure11,
    "fig12": experiments.figure12,
    "fig13": experiments.figure13,
    "fig14": experiments.figure14,
    "table1": experiments.table1,
    "ext-large-update": experiments.ext_large_update,
    "ext-method-chooser": experiments.ext_method_chooser,
    "ext-storage": experiments.ext_storage_overhead,
    "ext-skew": experiments.ext_skew_sensitivity,
    "ext-query-speedup": experiments.ext_query_speedup,
    "ext-view-placement": experiments.ext_view_placement,
    "ext-aggregates": experiments.ext_aggregate_views,
    "ext-cost-sensitivity": experiments.ext_cost_sensitivity,
    "ext-fault-overhead": experiments.ext_fault_overhead,
    "ext-failover-overhead": experiments.ext_failover_overhead,
    "validation": validation_grid,
}


def _run_experiments(names: list[str]) -> int:
    for name in names:
        runner = EXPERIMENTS.get(name)
        if runner is None:
            print(f"unknown experiment {name!r}; choose from {list(EXPERIMENTS)}")
            return 1
        print(runner().render())
        print()
    return 0


def main(argv: list[str]) -> int:
    profile = "--profile" in argv
    argv = [arg for arg in argv if arg != "--profile"]
    if not argv:
        print("usage: python -m repro.bench [--profile] <experiment ...|all>")
        print("experiments:", ", ".join(EXPERIMENTS))
        return 1
    names = list(EXPERIMENTS) if argv == ["all"] else argv
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment {unknown[0]!r}; choose from {list(EXPERIMENTS)}")
        return 1
    if not profile:
        return _run_experiments(names)
    profiler = cProfile.Profile()
    status = profiler.runcall(_run_experiments, names)
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.strip_dirs().sort_stats("cumulative").print_stats(PROFILE_TOP)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
