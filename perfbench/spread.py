"""Summarise repeated benchmark runs: median, quartiles, spread, shift.

Feed it the saved standard output of several ``run.py`` runs, one file per
run.  Each file's ``provenance`` line names its workload, seed and trace
mode, and its last line is the JSON result::

    mkdir -p runs
    for seed in 1 2 3 4 5 6 7 8 9 10; do
        for workload in fit stream live; do
            python3 perfbench/run.py --workload $workload --seed $seed \\
                --seconds 20 --trace 0 > runs/$workload-$seed.out
        done
    done
    python3 perfbench/spread.py runs/*.out

The spread of a metric is the interquartile range as a share of the
median, with the quartiles from ``statistics.quantiles(values, n=4)``.  It
is compared with the metric's ``bound`` in ``BENCHMARK.json`` (``setup_s``
is exempt).  With ``--second`` a second set of runs of the same code is
summarised too, and each median's shift from the first set is compared
with the bound.  ``--json`` prints the whole summary, including the
medians of the per-layer metrics of any ``--trace 1`` runs given, in the
layout of ``results/*.json``.  The exit code is 1 when a run failed or a
spread or shift is outside its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
UNCHECKED_SPREAD = ("setup_s",)
RUN_KEYS = ("workload", "seed", "seconds", "trace")


def read_run(path):
    """(provenance, result) of one saved ``run.py`` output."""
    provenance = None
    with open(path) as handle:
        lines = [line.strip() for line in handle if line.strip()]
    for line in lines:
        if line.startswith("provenance "):
            provenance = json.loads(line[len("provenance "):])
    if provenance is None or not lines:
        raise SystemExit(f"{path}: not a run.py output (no provenance line)")
    return provenance, json.loads(lines[-1])


def _quartiles(series):
    median = statistics.median(series)
    if len(series) >= 2:
        q1, _, q3 = statistics.quantiles(series, n=4)
    else:
        q1 = q3 = series[0]
    return median, q1, q3


def _by_workload(runs):
    """Per workload: seeds, failed runs and each metric's values."""
    workloads = {}
    for provenance, result in runs:
        entry = workloads.setdefault(
            provenance["workload"], {"seeds": [], "failed_runs": 0, "values": {}}
        )
        entry["seeds"].append(provenance["seed"])
        entry["failed_runs"] += 0 if result["correct"] else 1
        for name, metric in result["metrics"].items():
            entry["values"].setdefault(name, []).append(float(metric["value"]))
    return workloads


def summarise_set(runs, spec):
    """Per workload: seeds, failed runs and each end-to-end metric's summary."""
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = _by_workload(runs)
    for entry in workloads.values():
        summary = {}
        for name, series in entry.pop("values").items():
            median, q1, q3 = _quartiles(series)
            spread = (q3 - q1) / median if median else float("nan")
            summary[name] = {
                "median": median,
                "q1": q1,
                "q3": q3,
                "spread": spread,
                "bound": bounds[name]["bound"],
                "runs": len(series),
                "unit": bounds[name]["unit"],
                "spread_ok": name in UNCHECKED_SPREAD
                or spread <= bounds[name]["bound"],
            }
        entry["end_to_end"] = summary
    return workloads


def add_shifts(first, second, spec):
    """Mark each second-set median with its shift from the first set."""
    lower_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    for workload, entry in second.items():
        for name, summary in entry["end_to_end"].items():
            before = first[workload]["end_to_end"][name]["median"]
            shift = (summary["median"] - before) / before
            worse = shift if lower_better[name] else -shift
            summary["shift_vs_first"] = shift
            summary["shift_ok"] = worse <= summary["bound"]


def per_layer(runs):
    """Per workload: the median of each per-layer metric over traced runs."""
    workloads = _by_workload(runs)
    for entry in workloads.values():
        entry["metrics"] = {
            name: statistics.median(series)
            for name, series in entry.pop("values").items()
        }
    return workloads


def common_provenance(runs):
    """Provenance keys shared by the runs; a key that differs lists its values."""
    merged = {}
    for provenance, _ in runs:
        for key, value in provenance.items():
            if key not in RUN_KEYS:
                merged.setdefault(key, set()).add(json.dumps(value))
    return {
        key: json.loads(next(iter(values)))
        if len(values) == 1
        else sorted(json.loads(v) for v in values)
        for key, values in sorted(merged.items())
    }


def summarise(first_paths, second_paths, spec):
    first_runs = [read_run(path) for path in first_paths]
    second_runs = [read_run(path) for path in second_paths]
    traced = [run for run in first_runs + second_runs if run[0]["trace"]]
    first = summarise_set([run for run in first_runs if not run[0]["trace"]], spec)
    second = summarise_set([run for run in second_runs if not run[0]["trace"]], spec)
    add_shifts(first, second, spec)
    layers = per_layer(traced)
    workloads = {}
    for workload in sorted(set(first) | set(second) | set(layers)):
        entry = dict(first.get(workload, {}))
        if workload in second:
            entry["second_set"] = second[workload]
        if workload in layers:
            entry["per_layer"] = layers[workload]
        workloads[workload] = entry
    all_runs = first_runs + second_runs
    ok = all(result["correct"] for _, result in all_runs) and all(
        summary.get("spread_ok", True) and summary.get("shift_ok", True)
        for entry in list(first.values()) + list(second.values())
        for summary in entry["end_to_end"].values()
    )
    return {
        "provenance": common_provenance(all_runs),
        "run_seconds": sorted({run[0]["seconds"] for run in all_runs}),
        "within_bounds": ok,
        "workloads": workloads,
    }


def print_table(summary):
    for workload, entry in summary["workloads"].items():
        sets = [("first", entry)] if "end_to_end" in entry else []
        if "second_set" in entry:
            sets.append(("second", entry["second_set"]))
        for label, data in sets:
            print(
                f"{workload} ({label} set, seeds {data['seeds']}, "
                f"{data['failed_runs']} failed runs)"
            )
            print(
                f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
                f"{'spread':>7s} {'bound':>6s} {'shift':>7s}"
            )
            for name, row in data["end_to_end"].items():
                shift = row.get("shift_vs_first")
                flag = "" if row["spread_ok"] and row.get("shift_ok", True) else "  OUT"
                print(
                    f"  {name:16s} {row['median']:12.6g} {row['q1']:12.6g} "
                    f"{row['q3']:12.6g} {row['spread']:7.3f} {row['bound']:6.2f} "
                    f"{'' if shift is None else f'{shift:+7.3f}':>7s} "
                    f"{row['unit']}{flag}"
                )
        if "per_layer" in entry:
            layers = entry["per_layer"]
            print(f"{workload} (traced, medians over seeds {layers['seeds']})")
            for name, value in layers["metrics"].items():
                print(f"  {name:32s} {value:14.6g}")
    print("within bounds" if summary["within_bounds"] else "OUTSIDE BOUNDS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", nargs="+", help="saved run.py outputs (first set)")
    parser.add_argument("--second", nargs="+", default=[], help="second set")
    parser.add_argument("--json", action="store_true", help="print JSON")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    summary = summarise(args.runs, args.second, spec)
    if args.json:
        print(json.dumps(summary, indent=1, sort_keys=True))
    else:
        print_table(summary)
    return 0 if summary["within_bounds"] else 1


if __name__ == "__main__":
    sys.exit(main())
