"""Summarize benchmark records across seeds.

    python3 perfbench/summarize.py [RESULTS_DIR] [--baseline OUT_JSON]

Reads the detailed records that ``run.py`` writes (default
``.perfbench/results``) and prints, per workload and metric, the median of
the per-run values over seeds, their quartiles, and the quartile spread as a
share of the median next to the metric's bound in ``BENCHMARK.json``
("steady" below a third of the bound, else "within bound" or "OVER BOUND"). The
session samples of every run are pooled for the median and the tail
percentile. ``--baseline`` also writes the table as JSON.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics

from run import END_TO_END, describe


def load_records(results_dir):
    records = []
    for path in sorted(glob.glob(os.path.join(results_dir, "*.json"))):
        with open(path) as fh:
            records.append(json.load(fh))
    return records


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else float("inf")}


def summarize(records, bounds):
    table = {}
    for rec in records:
        key = f"{rec['workload']} trace={rec['trace']}"
        table.setdefault(key, {"runs": [], "samples": {}})
        entry = table[key]
        entry["runs"].append({"seed": rec["seed"], "result": rec["result"],
                              "inputs": rec["inputs"], "environment": rec["environment"]})
        for name, values in rec["samples"].items():
            entry["samples"].setdefault(name, []).extend(values)
    out = {}
    for key, entry in sorted(table.items()):
        runs = entry["runs"]
        metrics = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            row = {"unit": runs[0]["result"]["metrics"][name]["unit"], "runs": len(values),
                   "median": statistics.median(values)}
            if len(values) >= 2:
                row.update(spread(values))
            if name in bounds:
                row["bound"] = bounds[name]
            metrics[name] = row
        out[key] = {
            "samples": {name: describe(values, END_TO_END[name.split(".")[1]][1])
                        for name, values in sorted(entry["samples"].items())},
            "seeds": [r["seed"] for r in runs],
            "input_sha256": {str(r["seed"]): {name: meta["sha256"]
                                              for name, meta in r["inputs"].items()}
                             for r in runs},
            "failed": sum(r["result"]["failed"] for r in runs),
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "environment": runs[0]["environment"],
            "metrics": metrics,
        }
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results_dir", nargs="?", default=".perfbench/results")
    parser.add_argument("--baseline", default=None)
    args = parser.parse_args()
    with open("BENCHMARK.json") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    table = summarize(load_records(args.results_dir), bounds)
    for key, entry in table.items():
        print(f"{key}: seeds={entry['seeds']} failed={entry['failed']}"
              f"/{entry['attempted']}")
        for name, row in entry["metrics"].items():
            line = f"  {name:38s} {row['median']:12.5g} {row['unit']:8s}"
            if "spread" in row:
                line += f" q1={row['q1']:.5g} q3={row['q3']:.5g} spread={row['spread']:.4f}"
            if "bound" in row:
                spread_ = row.get("spread", 0.0)
                flag = ("steady" if spread_ < row["bound"] / 3
                        else "within bound" if spread_ <= row["bound"] else "OVER BOUND")
                line += f" bound={row['bound']} {flag}"
            print(line)
    if args.baseline:
        with open(args.baseline, "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
