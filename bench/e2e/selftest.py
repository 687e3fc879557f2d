#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark at --scale smoke.

    selftest.py path/to/spca_e2e

Registered with ctest in bench/e2e's own CMake project. For every workload,
in default and --trace mode, it asserts that every metric BENCHMARK.json
names is printed with its unit, that the outputs match the reference
(error_rate 0), and that stage reconciliation holds on the sim workloads.
It then flips one measured distance on purpose and asserts the check fails.
"""

import json
import pathlib
import subprocess
import sys
import tempfile

WORKLOADS = ("flat-week", "hier-200", "tcp-diamond", "replay-ingest")
TRAJECTORY_WORKLOADS = ("flat-week", "hier-200", "tcp-diamond")
RECONCILED = ("flat-week", "hier-200")


def run(exe, work_dir, workload, *extra):
    cmd = [exe, "--workload", workload, "--scale", "smoke", "--seconds", "1",
           "--work-dir", work_dir, *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{' '.join(cmd)}: no output\n{proc.stderr}")
    return proc.returncode, lines[:-1], json.loads(lines[-1]), proc.stderr


def check_metrics(workload, mode, expected, lines, result):
    printed = {}
    for line in lines:
        name_w, metric, value, unit = line.split(" ")
        assert name_w == workload, line
        float(value)
        printed[metric] = unit
    for metric in expected:
        assert printed.get(metric["name"]) == metric["unit"], (
            f"{workload} {mode}: {metric['name']} not printed with unit "
            f"{metric['unit']}")
    assert printed.get("error_rate") == "frac", f"{workload}: no error_rate"
    reported = {k: v["unit"] for k, v in result["metrics"].items()}
    assert reported == {m["name"]: m["unit"] for m in expected}, (
        f"{workload} {mode}: JSON metrics differ from BENCHMARK.json")


def main():
    exe = sys.argv[1]
    spec_path = pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    failures = 0
    with tempfile.TemporaryDirectory(dir=".") as work_dir:
        for workload in WORKLOADS:
            for mode, expected in (("default", spec["end_to_end"]),
                                   ("trace", spec["per_layer"])):
                trace = "1" if mode == "trace" else "0"
                code, lines, result, stderr = run(exe, work_dir, workload,
                                                  "--trace", trace)
                try:
                    assert code == 0, f"exit {code}: {stderr}"
                    assert result["correct"] and result["failed"] == 0, result
                    assert result["attempted"] >= 1, result
                    check_metrics(workload, mode, expected, lines, result)
                    if mode == "trace" and workload in RECONCILED:
                        unaccounted = result["metrics"][
                            "trace.unaccounted_frac"]["value"]
                        assert unaccounted <= 0.05, (
                            f"reconciliation: unaccounted {unaccounted}")
                    print(f"ok   {workload} {mode}")
                except AssertionError as e:
                    failures += 1
                    print(f"FAIL {workload} {mode}: {e}")
        for workload in TRAJECTORY_WORKLOADS:
            code, _, result, _ = run(exe, work_dir, workload, "--corrupt",
                                     "true")
            if code == 1 and not result["correct"] and result["failed"] >= 1:
                print(f"ok   {workload} corrupted trajectory is caught")
            else:
                failures += 1
                print(f"FAIL {workload}: corrupted trajectory passed the "
                      f"check (exit {code}, {result})")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
