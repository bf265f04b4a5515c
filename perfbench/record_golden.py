"""Record the golden table: expected exit code, stdout digest and cost of
every cold job, and the digest of every session product.

Usage: python3 perfbench/record_golden.py

Run it only on a commit whose outputs are trusted: the benchmark fails
any job whose output differs from this table.  A cold job's cost is its
job time as the benchmark measures it (a fresh interpreter, scaled to the
nominal speed of calib.py), the median of COST_REPEATS runs.  Costs only
place jobs in cost bins (see jobs.py); the cold overhead of a fresh
process dominates small jobs, so in-process times would bin them wrongly.
"""

import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from grasscoh import ring  # noqa: E402

import calib  # noqa: E402
import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402

COST_REPEATS = 3


def cold_rows(workload):
    for _, argv in jobs.CATALOGUES[workload]():
        key = jobs.job_key(argv)
        reps = [run.run_python("child.py", [run.ROOT, "0", "0", "--", *argv])
                for _ in range(COST_REPEATS)]
        outcomes = {(rep["error"], rep["code"], checks.digest(rep["stdout"])) for rep in reps}
        if len(outcomes) != 1 or reps[0]["error"]:
            raise RuntimeError(f"{key}: outcomes differ or failed: {sorted(map(str, outcomes))}")
        (_, code, dig), = outcomes
        ms = statistics.median(calib.scale(rep["job_s"], rep["ref_s"]) for rep in reps) * 1000
        yield f"cold\t{workload}\t{code}\t{dig}\t{ms:.1f}\t{key}"


def product_rows():
    for r in jobs.SESSION_RINGS:
        ctx = ring.RingContext(*r)
        basis = jobs.box_partitions(*r)
        for i, a in enumerate(basis):
            sa = ring.SchurClass(ctx, {a: 1})
            digs = [checks.digest(str(ring.schur_mul(sa, ring.SchurClass(ctx, {b: 1}))))
                    for b in basis[i:]]
            yield f"product\tG({r[0]},{r[1]})\t{jobs.sigma(a)}\t{' '.join(digs)}"


def main():
    lines = [
        "# Golden outputs of the benchmark jobs (perfbench/record_golden.py).",
        "# cold<TAB>workload<TAB>exit<TAB>sha256[:16] of stdout<TAB>cost ms<TAB>argv",
        "# product<TAB>ring<TAB>a<TAB>sha256[:16] of str(schur_mul(a, b)) for b from a on, "
        "in jobs.box_partitions order",
    ]
    for workload in jobs.CATALOGUES:
        lines.extend(cold_rows(workload))
        print(f"recorded {workload}", file=sys.stderr)
    lines.extend(product_rows())
    with open(checks.GOLDEN, "w") as fh:
        fh.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
