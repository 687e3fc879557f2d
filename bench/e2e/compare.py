#!/usr/bin/env python3
"""Compares two sets of bench/e2e result rows.

    bench/e2e/compare.py A.jsonl B.jsonl

A is the baseline (the parent commit), B the candidate. Rows are the JSONL
lines `spca_e2e --out` appends, one per metric per run. They are matched by
workload, metric, mode and host class (nproc, compiler, build type, lanes);
rows of other host classes are never compared. For each match the script
prints both sides' median and quartiles. An end-to-end metric whose median
got worse by more than its bound in BENCHMARK.json is a REGRESSION; one
whose run-to-run spread (quartile distance over median) on either side is
wider than its bound is "unresolved", unless every B run beats every A run.
Exits 1 if any regression was found.
"""

import json
import pathlib
import statistics
import sys

HOST_CLASS = ("nproc", "compiler", "build_type", "lanes")


def load_rows(path):
    groups = {}
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                key = (row["workload"], row["metric"], row["mode"],
                       tuple(row[k] for k in HOST_CLASS))
                groups.setdefault(key, []).append(float(row["value"]))
            except (ValueError, KeyError) as e:
                sys.exit(f"{path}:{line_no}: malformed row ({e})")
    return groups


def summary(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(metric, a, b):
    """Returns (change, label) for an end-to-end metric, else (change, "")."""
    a_med, b_med = statistics.median(a), statistics.median(b)
    change = (b_med - a_med) / abs(a_med) if a_med else 0.0
    if metric is None:
        return change, ""
    higher = metric["better"] == "higher"
    worse = -change if higher else change
    all_better = (min(b) > max(a)) if higher else (max(b) < min(a))
    if max(spread(a), spread(b)) > metric["bound"] and not all_better:
        return change, "unresolved"
    if worse > metric["bound"]:
        return change, "REGRESSION"
    return change, "ok"


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    spec_path = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}

    a_rows, b_rows = load_rows(sys.argv[1]), load_rows(sys.argv[2])
    regressions = 0
    print(f"{'workload':14} {'metric':32} {'mode':7} "
          f"{'A median [q1, q3]':>34} {'B median [q1, q3]':>34} "
          f"{'change':>8}  verdict")
    for key in sorted(set(a_rows) | set(b_rows)):
        workload, name, mode, host = key
        if key not in a_rows or key not in b_rows:
            side = "A" if key in a_rows else "B"
            print(f"{workload:14} {name:32} {mode:7} only in {side} "
                  f"(host {dict(zip(HOST_CLASS, host))})")
            continue
        a, b = a_rows[key], b_rows[key]
        metric = end_to_end.get(name) if mode == "default" else None
        change, label = verdict(metric, a, b)
        regressions += label == "REGRESSION"
        cells = []
        for values in (a, b):
            q1, med, q3 = summary(values)
            cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}]")
        print(f"{workload:14} {name:32} {mode:7} {cells[0]:>34} "
              f"{cells[1]:>34} {change:+8.2%}  {label}")
    sys.exit(1 if regressions else 0)


if __name__ == "__main__":
    main()
