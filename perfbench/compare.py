"""Compare the benchmark records of two commits.

Usage: python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the JSON records run.py writes to
.bench_build/perfbench/, one per run.  For every workload and metric it
prints the median of each side, the quartile spread of each side as a
share of its median, and the change of the medians.  It refuses, with
exit code 2, to compare records whose backend, Python version or CPU
count differ, within a side or between the sides.
"""

import glob
import json
import os
import statistics
import sys

STAMP = ("backend", "python", "nproc")


def load(directory):
    runs = {}
    stamps = set()
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            record = json.load(fh)
        env = record["env"]
        stamps.add(tuple(env.get(k) for k in STAMP))
        key = (env["workload"], env["trace"])
        for name, metric in record["result"]["metrics"].items():
            if metric["value"] is not None:
                runs.setdefault(key, {}).setdefault(name, []).append(metric["value"])
    return runs, stamps


def spread(values):
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return med, 0.0
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / abs(med)


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (base, base_stamps), (new, new_stamps) = load(argv[0]), load(argv[1])
    stamps = base_stamps | new_stamps
    if len(stamps) > 1:
        print("refusing to compare records from different environments "
              f"({', '.join(STAMP)}): {sorted(stamps, key=str)}", file=sys.stderr)
        return 2
    print(f"{'workload':14s} {'metric':52s} {'base':>12s} {'spread':>7s} "
          f"{'new':>12s} {'spread':>7s} {'change':>8s}")
    for key in sorted(set(base) & set(new)):
        for name in sorted(set(base[key]) & set(new[key])):
            b, b_sp = spread(base[key][name])
            n, n_sp = spread(new[key][name])
            change = f"{(n - b) / abs(b):+.1%}" if b else "n/a"
            print(f"{key[0]:14s} {name:52s} {b:12.6g} {b_sp:7.1%} {n:12.6g} {n_sp:7.1%} "
                  f"{change:>8s}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
