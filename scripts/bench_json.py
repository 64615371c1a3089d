#!/usr/bin/env python3
"""Convert `go test -bench` output into a JSON benchmark record.

Usage: go test -bench=. ... | scripts/bench_json.py > BENCH_smoke.json

Parses the standard benchmark output format — name, iterations, then
value/unit pairs (ns/op, B/op, allocs/op, and any custom ReportMetric
units) — plus the goos/goarch/pkg/cpu header lines, and emits one JSON
object. CI uploads the result as an artifact so the performance
trajectory of the hot paths is recorded per commit.

Exits non-zero, writing nothing to stdout, if the input has any FAIL line
(a failed benchmark or package) or no benchmark results at all: a broken
benchmark must fail the CI step, not drop out of the record.
"""

import json
import re
import sys

# Non-greedy name so the -N GOMAXPROCS suffix is stripped: the recorded
# benchmark identity must not vary with the runner's core count.
BENCH = re.compile(r"^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$")
# "--- FAIL: BenchmarkX", "FAIL\tpkg" and the bare "FAIL" summary line.
FAIL = re.compile(r"^(--- )?FAIL\b")


def main():
    meta = {}
    results = []
    failures = []
    for line in sys.stdin:
        line = line.rstrip("\n")
        if FAIL.match(line):
            failures.append(line)
            continue
        m = re.match(r"^(goos|goarch|pkg|cpu):\s*(.*)$", line)
        if m:
            # Per-package runs repeat the header; keep the first value and
            # collect every pkg.
            key, val = m.group(1), m.group(2)
            if key == "pkg":
                meta.setdefault("pkgs", []).append(val)
            else:
                meta.setdefault(key, val)
            continue
        m = BENCH.match(line)
        if not m:
            continue
        name, iters, rest = m.group(1), int(m.group(2)), m.group(3)
        metrics = {}
        parts = rest.split()
        for value, unit in zip(parts[0::2], parts[1::2]):
            try:
                metrics[unit] = float(value)
            except ValueError:
                pass
        results.append({"name": name, "iterations": iters, "metrics": metrics})
    if failures:
        sys.exit("bench_json: benchmark run failed:\n" + "\n".join(failures))
    if not results:
        sys.exit("bench_json: no benchmark results in the input")
    json.dump({**meta, "benchmarks": results}, sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()
