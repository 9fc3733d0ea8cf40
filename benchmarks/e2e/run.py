"""The benchmark's one command.

Driver contract (one workload, one JSON object on the last stdout line)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

``--trace 0`` prints every end-to-end metric of BENCHMARK.json, ``--trace
1`` every per-layer metric.  Without ``--workload`` the whole suite runs,
each workload in its own fresh child interpreter, one after the other
(clusters sharing a heap slow each other down, and ``peak_rss_mb`` must be
per workload), and a table is printed::

    python3 benchmarks/e2e/run.py [--seed N] [--traced] [--smoke] [--repeat K] [--out F]
    python3 benchmarks/e2e/run.py compare A.json B.json

The process exits non-zero without a result line when the engine under
``src/`` cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

from _bootstrap import HERE, ROOT  # first: puts src/ on the import path

import harness
from workloads import SPECS, smoke


def _contract_line(result: Dict[str, object], section: str,
                   units: Dict[str, str]) -> str:
    values = result[section]
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    })


def _benchmark_json() -> Dict[str, object]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_one(args: argparse.Namespace) -> int:
    spec = SPECS[args.workload]
    if args.smoke:
        spec = smoke(spec)
    result = harness.run_workload(
        spec, args.seed, seconds=args.seconds, trace=bool(args.trace),
        rounds=2 if args.smoke else args.rounds, trace_out=args.trace_out,
    )
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1), encoding="utf-8")
    section = "per_layer" if args.trace else "end_to_end"
    units = {
        metric["name"]: metric["unit"] for metric in _benchmark_json()[section]
    }
    missing = sorted(set(units) - set(result[section]))
    if missing:
        raise SystemExit(f"run produced no value for {missing}")
    print(_contract_line(result, section, units))
    return 0


# ------------------------------------------------------------------ suite


def _child(workload: str, seed: int, args: argparse.Namespace, trace: int,
           out: Path) -> Dict[str, object]:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--out", str(out),
    ]
    if args.smoke:
        command.append("--smoke")
    if args.rounds is not None:
        command += ["--rounds", str(args.rounds)]
    if trace and args.out:
        command += ["--trace-out", f"{args.out}.{workload}.trace.json"]
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    return json.loads(out.read_text(encoding="utf-8"))


def run_suite(args: argparse.Namespace) -> int:
    runs: List[Dict[str, object]] = []
    # Children hand their full result back through a file inside the checkout.
    with tempfile.TemporaryDirectory(dir=HERE, prefix="out-") as scratch:
        handoff = Path(scratch) / "result.json"
        for repeat in range(args.repeat):
            seed = args.seed + repeat
            workloads: Dict[str, object] = {}
            for name in SPECS:
                print(f"seed {seed}: {name} ...", file=sys.stderr, flush=True)
                result = _child(name, seed, args, 0, handoff)
                if args.traced:
                    result["per_layer"] = _child(name, seed, args, 1, handoff)["per_layer"]
                workloads[name] = result
            runs.append({"seed": seed, "workloads": workloads})
    report = {"schema": 1, "seconds": args.seconds, "smoke": args.smoke, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1), encoding="utf-8")
    _print_suite(report)
    failed = sum(
        result["failed"] for run in runs for result in run["workloads"].values()
    )
    return 1 if failed else 0


def _median_of(report, workload: str, section: str, metric: str) -> Optional[float]:
    values = [
        run["workloads"][workload][section][metric]
        for run in report["runs"]
        if metric in (run["workloads"][workload].get(section) or {})
    ]
    return statistics.median(values) if values else None


def _print_suite(report) -> None:
    benchmark = _benchmark_json()
    names = [metric["name"] for metric in benchmark["end_to_end"]]
    print(f"{'workload':24}" + "".join(f"{name:>18}" for name in names) + "   failed")
    for workload in SPECS:
        cells = "".join(
            f"{_median_of(report, workload, 'end_to_end', name):18.4f}"
            for name in names
        )
        failed = max(
            run["workloads"][workload]["failed_ops_ratio"] for run in report["runs"]
        )
        print(f"{workload:24}{cells}{failed:9.2f}")
    if any("per_layer" in r for run in report["runs"] for r in run["workloads"].values()):
        print()
        for metric in benchmark["per_layer"]:
            name = metric["name"]
            cells = "".join(
                f"{_median_of(report, workload, 'per_layer', name):14.4g}"
                for workload in SPECS
            )
            print(f"{name:44}{cells}  {metric['unit']}")


# ---------------------------------------------------------------- compare


def _spread(values: List[float]) -> float:
    """Interquartile range over the median (0 with fewer than four runs)."""
    if len(values) < 4:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def compare(path_a: str, path_b: str) -> int:
    """One row per end-to-end metric x workload: B judged against A with
    BENCHMARK.json's bounds.  ``unresolved`` means the runs of either side
    spread wider than the bound, unless every B run beats every A run."""
    report_a = json.loads(Path(path_a).read_text(encoding="utf-8"))
    report_b = json.loads(Path(path_b).read_text(encoding="utf-8"))
    worse = 0
    print(f"{'metric':20}{'workload':24}{'A':>14}{'B':>14}{'change':>9}{'bound':>7}  verdict")
    for metric in _benchmark_json()["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        for workload in SPECS:
            side_a, side_b = (
                [run["workloads"][workload]["end_to_end"][name] for run in report["runs"]]
                for report in (report_a, report_b)
            )
            median_a, median_b = statistics.median(side_a), statistics.median(side_b)
            change = (median_b - median_a) / median_a
            b_always_better = (
                max(side_b) < min(side_a) if sign > 0 else min(side_b) > max(side_a)
            )
            if max(_spread(side_a), _spread(side_b)) > bound and not b_always_better:
                verdict = "unresolved"
            elif sign * change > bound:
                verdict = "worse"
                worse += 1
            else:
                verdict = "ok"
            print(
                f"{name:20}{workload:24}{median_a:14.4f}{median_b:14.4f}"
                f"{change:+9.1%}{bound:7.0%}  {verdict}"
            )
    return 1 if worse else 0


# -------------------------------------------------------------------- CLI


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare A.json B.json")
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=harness.NOMINAL_SECONDS,
                        help="run length the round plan is scaled to")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: print the per-layer metrics (single workload)")
    parser.add_argument("--traced", action="store_true",
                        help="suite: add a traced run of every workload")
    parser.add_argument("--rounds", type=int,
                        help="fix the measured rounds (counts repeat exactly)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny op counts, same structure and checks")
    parser.add_argument("--repeat", type=int, default=1,
                        help="suite: runs, with seeds seed..seed+repeat-1")
    parser.add_argument("--out", help="write the full result as JSON")
    parser.add_argument("--trace-out", help="write the spans as a Chrome trace")
    args = parser.parse_args(argv)
    if args.workload:
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
