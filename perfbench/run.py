"""grasscoh benchmark: three seeded closed-loop workloads, one client,
jobs run one at a time, every output checked.

Usage:
    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see jobs.py for the inputs):
  reduce-cold   `eval` jobs in G(k,n), k in {3,4,5}, n <= 7: powers of
                the total class, cbar(a)*cbar(b)*(total)^j and
                (c1+c2)^m*ck.  Stresses ring reduction and the kernel's
                strip enumeration.
  certify-cold  `obstruct`, `betti`, `lefschetz`, `fpp` (text and json)
                and `dual --method both`.  Stresses exponent-vector
                enumeration, certificate building and Betti counts; never
                enters ring reduction.
  session-warm  one long-lived library session of schur_mul, cup, pairing
                and Adams calls on basis classes of G(3,5), G(4,4) and
                G(2,8), after a warm-up pass.  Reductions hit the memo.

Each cold job runs in a fresh interpreter (`python -I -S child.py`) and
is timed inside it around `grasscoh.cli.run_cli`; no in-process reset
reaches every memo.  A job fails on a wrong exit code, a stdout digest
that differs from golden.tsv, a broken invariant or an exception.

With --trace 0 a cold run times round(S / 30) whole rounds of its seeded
stream (at least one; about S seconds on the machine it was tuned on)
and session-warm measures for S seconds.  Times are reported at the
nominal speed of calib.py: each is scaled by a host speed reference
timed next to it (in the same job process, or before the same session
round), because the shared host's own speed drifts far more than the
bounds allow.  The raw times are printed next to them.  The run
reports, by name:
  setup_s       median import time of grasscoh over the job processes;
                for session-warm, import plus warm-up pass, median of
                the session processes
  jobs_per_s    jobs completed over the wall time of the loop (cold:
                including interpreter start, without the reference)
  job_p50_ms    median job time
  job_tail_ms   job time at the highest whole percentile with at least
                ten samples beyond it
                (both quantiles by the Harrell-Davis estimator, see
                quantile())
  peak_rss_mb   per-process peak RSS; cold: at the same percentile as
                job_tail_ms over the job processes, session-warm: the
                largest of the session processes
and prints ops_failed_frac with them.  With --trace 1 it runs a fixed
job list (cold: the first 90 jobs of the first round; session-warm: 300
rounds of 12 calls) once untraced and twice traced (tracer.py), checks
that the counts of the two traced passes are equal, and reports the
per-layer metrics with the tracing overhead.  A ratio with nothing to
count (no calls, no memo lookups) reads 0; a metric whose function or
memo no longer exists reads null.  Every result also goes to
.bench_build/perfbench/ with an environment stamp; compare.py compares
such records and refuses to mix backends.

The last line of stdout is the JSON result.  The exit code is 0 when
every output was correct, 1 when one was not, 2 when the benchmark
cannot run (no grasscoh sources, no golden table).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
CHILD_TIMEOUT_S = 170

sys.path.insert(0, HERE)
import calib  # noqa: E402
import checks  # noqa: E402
import jobs  # noqa: E402

WORKLOADS = ("reduce-cold", "certify-cold", "session-warm")
# A cold round (one job per bin, 180 jobs) takes 18-28 s on a 2-vCPU
# x86-64 host with Python 3.11.  Cold runs execute whole rounds so that
# every run of a seed, on any commit, times the same jobs.
ROUND_SECONDS = 30
TRACE_COLD_JOBS = 90
SESSION_PROCESSES = 3
TRACE_SESSION_ROUNDS = 300
TAIL_BEYOND = 10

PER_LAYER = (
    "kernel.vertical_strips.calls", "kernel.vertical_strips.out",
    "kernel.vertical_strips.busy_s", "kernel.vertical_strips.distinct_frac",
    "kernel.expvecs_of_weight.calls", "kernel.expvecs_of_weight.out",
    "kernel.expvecs_of_weight.busy_s",
    "freepoly.dual_class_closed.calls", "freepoly.dual_class_closed.busy_s",
    "obstruction.nontrivial_intersection_report.busy_s",
    "obstruction.nontrivial_intersection_report.self_s",
    "partitions.count_in_box.calls", "partitions.count_in_box.misses",
    "partitions.betti_numbers.busy_s", "lefschetz.fpp_classification.busy_s",
    "freepoly.dual_class_recursive.busy_s",
    "ring.reduce_free.calls", "ring.reduce_free.in_monomials",
    "ring.reduce_free.out_terms", "ring.reduce_free.busy_s", "ring.reduce_free.self_s",
    "ring.reduce_memo.hit_frac",
    "ring.giambelli.calls", "ring.giambelli.busy_s",
    "ring.schur_mul.calls", "ring.schur_mul.busy_s", "ring.schur_mul.self_s",
    "freepoly.FreeClass.mul.calls", "freepoly.FreeClass.mul.out_terms",
    "freepoly.FreeClass.mul.busy_s",
    "expr.parse.busy_s", "expr.eval_expr.self_s", "expr.render.self_s",
    "cli.run_cli.self_s",
    "trace.overhead_frac",
)
COUNT_STATS = ("calls", "out", "in_monomials", "out_terms", "misses")
UNITS = {"busy_s": "s", "self_s": "s", "distinct_frac": "ratio", "hit_frac": "ratio",
         "overhead_frac": "ratio"}


class Run:
    """Outcome of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.backend = None
        self.metrics = {}   # name -> (value, unit)
        self.notes = {}     # name -> human-readable detail
        self.spans = []

    def add_spans(self, traced_pass, spans):
        """Keep one process's spans, renumbered so that ids are unique in
        the run."""
        base = len(self.spans)
        for name, start, end, parent, job in spans:
            self.spans.append({"id": len(self.spans), "pass": traced_pass, "job": job,
                               "name": name, "start": start, "end": end,
                               "parent": None if parent is None else base + parent})

    def fail(self, what, reason):
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(f"{what}: {reason}")


# -- processes ---------------------------------------------------------

def run_python(script, args):
    """Run a benchmark script in a fresh isolated interpreter; returns its
    JSON report, or raises RuntimeError with the reason."""
    cmd = [sys.executable, "-I", "-S", os.path.join(HERE, script), *args]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"timed out after {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        raise RuntimeError(f"process exited {proc.returncode}: {tail[0]}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RuntimeError("no report from the job process")


def cold_job(run, table, argv, trace=False, job=0):
    """Run one cold job and check it against its golden `table`; returns
    its report, or None if it failed."""
    run.attempted += 1
    key = jobs.job_key(argv)
    try:
        rep = run_python("child.py", [ROOT, "1" if trace else "0", str(job), "--", *argv])
    except RuntimeError as exc:
        run.fail(key, exc)
        return None
    run.backend = rep.get("backend")
    if rep["error"]:
        run.fail(key, rep["error"])
        return None
    reason = checks.check_cold(table[key], argv, rep["code"], rep["stdout"])
    if reason:
        run.fail(key, reason)
        return None
    return rep


def session_process(run, seed, index, mode, amount):
    """Run one session process (session.py) and count its jobs; returns
    its report, or None if the process failed."""
    try:
        rep = run_python("session.py", [ROOT, str(seed), str(index), mode, str(amount)])
    except RuntimeError as exc:
        run.attempted += 1
        run.fail(f"session process {index}", exc)
        return None
    run.backend = rep.get("backend")
    run.attempted += rep["jobs"]
    run.failed += rep["failed"]
    run.reasons.extend(rep["failures"][:20 - len(run.reasons)])
    return rep


# -- statistics --------------------------------------------------------

def tail(values):
    """(value, percentile): the highest whole percentile that leaves at
    least TAIL_BEYOND samples above it, by nearest rank."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100
    p = math.floor(100 * (n - TAIL_BEYOND) / n)
    return xs[max(0, math.ceil(p * n / 100) - 1)], p


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by the Beta((n+1)p, (n+1)(1-p)) density at the
    middle of each one's share of [0, 1].  It spreads less from run to run
    than the single order statistic, most of all in the tail, where
    neighbouring job times lie far apart."""
    xs = sorted(values)
    n = len(xs)
    if p >= 1:
        return xs[-1]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logw = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log(1 - (i + 0.5) / n)
            for i in range(n)]
    top = max(logw)
    w = [math.exp(x - top) for x in logw]
    return sum(wi * x for wi, x in zip(w, xs)) / sum(w)


def _summary(setups, job_s, loop_s):
    pct = tail(job_s)[1]
    return {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(job_s) / sum(loop_s),
        "job_p50_ms": quantile(job_s, 0.5) * 1000,
        "job_tail_ms": quantile(job_s, pct / 100) * 1000,
    }, pct


def end_to_end(run, raw, scaled, refs, rss_kb, rss_note):
    """End-to-end metrics.  `raw` and `scaled` hold set-up times, job times
    and the parts of the loop's wall time, as measured and at nominal speed
    (calib.py); the metrics are the scaled ones, the raw ones go into the
    notes."""
    values, pct = _summary(*scaled)
    raw_values, _ = _summary(*raw)
    units = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_ms": "ms", "job_tail_ms": "ms"}
    run.metrics = {name: (values[name], unit) for name, unit in units.items()}
    run.metrics["peak_rss_mb"] = (rss_kb / 1024, "MB")
    n = len(raw[1])
    run.notes = {name: f"raw {raw_values[name]:.4g} {unit}" for name, unit in units.items()}
    run.notes["setup_s"] += f", median of {len(raw[0])} set-ups"
    run.notes["jobs_per_s"] += f", {n} jobs"
    run.notes["job_p50_ms"] += f", {n} samples"
    run.notes["job_tail_ms"] += f", p{pct}, {n - math.ceil(pct * n / 100)} samples beyond"
    run.notes["peak_rss_mb"] = rss_note
    run.notes["host_speed"] = (f"median reference {statistics.median(refs) * 1000:.4g} ms, "
                               f"nominal {calib.NOMINAL_S * 1000:.4g} ms")


# -- timed runs --------------------------------------------------------

def timed_cold(run, workload, seed, seconds, golden):
    table = golden.cold[workload]
    rounds = jobs.cold_rounds(workload, golden.costs[workload], seed)
    job_list = [argv for _ in range(max(1, round(seconds / ROUND_SECONDS)))
                for argv in next(rounds)]
    # untimed: writes bytecode caches so the first timed import is not a compile
    cold_job(Run(), table, job_list[0])
    reps, walls = [], []
    for argv in job_list:
        start = time.perf_counter()
        rep = cold_job(run, table, argv)
        if rep:
            reps.append(rep)
            walls.append(time.perf_counter() - start - rep["ref_s"])
    if reps:
        refs = calib.local_refs([rep["ref_s"] for rep in reps])
        raw = ([rep["import_s"] for rep in reps], [rep["job_s"] for rep in reps], walls)
        scaled = tuple([calib.scale(t, r) for t, r in zip(times, refs)] for times in raw)
        rss_kb, pct = tail([rep["maxrss_kb"] for rep in reps])
        end_to_end(run, raw, scaled, refs, rss_kb, f"p{pct} of {len(reps)} job processes")


def timed_session(run, seed, seconds):
    raw, scaled = ([], [], []), ([], [], [])   # set-ups, job times, round times
    all_refs, rss = [], []
    for index in range(SESSION_PROCESSES):
        rep = session_process(run, seed, index, "timed", seconds / SESSION_PROCESSES)
        if not rep:
            continue
        setup = rep["import_s"] + rep["warmup_s"]
        raw[0].append(setup)
        scaled[0].append(calib.scale(setup, rep["setup_ref_s"]))
        refs = calib.local_refs(rep["refs"])
        per_round = len(rep["times"]) // len(refs)
        raw[1].extend(rep["times"])
        scaled[1].extend(calib.scale(t, refs[i // per_round]) for i, t in enumerate(rep["times"]))
        raw[2].extend(rep["round_s"])
        scaled[2].extend(calib.scale(t, r) for t, r in zip(rep["round_s"], refs))
        all_refs.extend(refs)
        rss.append(rep["maxrss_kb"])
    if rss:
        end_to_end(run, raw, scaled, all_refs, max(rss),
                   f"largest of {len(rss)} session processes")


# -- traced runs -------------------------------------------------------

def _merge(summaries):
    total = {"present": set(), "counts": {}, "busy_s": {}, "self_s": {}, "memos": {},
             "distinct": {}}
    for s in summaries:
        total["present"].update(s["present"])
        for field in ("counts", "busy_s", "self_s", "distinct"):
            for k, v in s[field].items():
                total[field][k] = total[field].get(k, 0) + v
        for k, (h, m) in s["memos"].items():
            h0, m0 = total["memos"].get(k, (0, 0))
            total["memos"][k] = (h0 + h, m0 + m)
    return total


def _exact(summary):
    """The parts of a trace summary that must repeat exactly."""
    return summary["counts"], summary["distinct"], summary["memos"]


def layer_metrics(a, b, overhead):
    """Per-layer metrics from two traced passes: counts from the first
    (they must equal the second), times averaged over both."""
    out = {}
    for name in PER_LAYER:
        layer, stat = name.rsplit(".", 1)
        unit = "count" if stat in COUNT_STATS else UNITS[stat]
        if name == "trace.overhead_frac":
            value = overhead
        elif stat in ("misses", "hit_frac"):
            memo = a["memos"].get(layer)
            if memo is None:
                value = None
            elif stat == "misses":
                value = memo[1]
            else:
                value = memo[0] / max(1, memo[0] + memo[1])
        elif layer not in a["present"]:
            value = None
        elif stat in COUNT_STATS:
            value = a["counts"].get(name, 0)
        elif stat == "distinct_frac":
            value = a["distinct"].get(layer, 0) / max(1, a["counts"].get(layer + ".calls", 0))
        else:
            value = (a[stat].get(layer, 0.0) + b[stat].get(layer, 0.0)) / 2
        out[name] = (value, unit)
    return out


def traced_cold(run, workload, seed, golden):
    table = golden.cold[workload]
    job_list = next(jobs.cold_rounds(workload, golden.costs[workload], seed))[:TRACE_COLD_JOBS]
    cold_job(Run(), table, job_list[0])
    # job by job, so that drift of the host's speed hits all three alike
    plain, passes = [], ([], [])
    for j, argv in enumerate(job_list):
        plain.append(cold_job(run, table, argv))
        for p, reps in enumerate(passes):
            reps.append(cold_job(run, table, argv, trace=True, job=j))
            if reps[-1]:
                run.add_spans(p, reps[-1]["spans"])
    if run.failed:
        return
    summaries = [_merge([r["trace"] for r in reps]) for reps in passes]
    plain_s = sum(r["job_s"] for r in plain)
    traced_s = sum(r["job_s"] for r in passes[0])
    finish_trace(run, summaries, traced_s / plain_s - 1)


def traced_session(run, seed):
    plain = session_process(run, seed, 0, "trace0", TRACE_SESSION_ROUNDS)
    passes = [session_process(run, seed, 0, "trace1", TRACE_SESSION_ROUNDS) for _ in range(2)]
    if run.failed or not plain or not all(passes):
        return
    for p, rep in enumerate(passes):
        run.add_spans(p, rep["spans"])
    summaries = [_merge([rep["trace"]]) for rep in passes]
    finish_trace(run, summaries, sum(passes[0]["times"]) / sum(plain["times"]) - 1)


def finish_trace(run, summaries, overhead):
    a, b = summaries
    if _exact(a) != _exact(b):
        run.fail("trace", "counts differ between the two traced passes")
        return
    run.metrics = layer_metrics(a, b, overhead)
    run.notes = {"trace.overhead_frac": "traced job time over untraced job time, minus 1"}


# -- environment and output --------------------------------------------

def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(run, workload, seed, seconds, trace):
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "backend": run.backend,
        "nproc": os.cpu_count(), "commit": git_commit(),
    }


def report(run, env):
    print(f"perfbench {env['workload']} seed={env['seed']} seconds={env['seconds']} "
          f"trace={env['trace']}")
    print("env: " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in run.metrics.items():
        shown = "null" if value is None else f"{value:.6g}"
        note = run.notes.get(name, "")
        print(f"  {name:52s} {shown:>12s} {unit:6s} {note}")
    if "host_speed" in run.notes:
        print(f"  host speed: {run.notes['host_speed']}")
    if not env["trace"]:
        frac = run.failed / max(1, run.attempted)
        print(f"  {'ops_failed_frac':52s} {frac:>12.6g} {'ratio':6s} "
              f"{run.failed} of {run.attempted} jobs")
    for reason in run.reasons:
        print(f"  FAILED {reason}")
    correct = run.failed == 0 and bool(run.metrics)
    result = {
        "correct": correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in run.metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{env['workload']}-seed{env['seed']}-trace{env['trace']}")
    with open(stem + ".json", "w") as fh:
        json.dump({"env": env, "result": result,
                   "notes": run.notes, "failures": run.reasons}, fh, indent=1)
    if run.spans:
        with open(stem + "-spans.jsonl", "w") as fh:
            for span in run.spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "grasscoh", "__init__.py")):
        print("perfbench: no grasscoh sources under src/", file=sys.stderr)
        return 2
    try:
        golden = checks.Golden()
    except OSError as exc:
        print(f"perfbench: cannot read the golden table: {exc}", file=sys.stderr)
        return 2
    for workload in jobs.CATALOGUES:
        want = {jobs.job_key(argv) for _, argv in jobs.CATALOGUES[workload]()}
        if want != set(golden.cold.get(workload, {})):
            print(f"perfbench: golden table does not match the {workload} catalogue; "
                  "rerun record_golden.py", file=sys.stderr)
            return 2

    run = Run()
    if args.workload == "session-warm":
        if args.trace:
            traced_session(run, args.seed)
        else:
            timed_session(run, args.seed, args.seconds)
    elif args.trace:
        traced_cold(run, args.workload, args.seed, golden)
    else:
        timed_cold(run, args.workload, args.seed, args.seconds, golden)
    return report(run, environment(run, args.workload, args.seed, args.seconds, args.trace))


if __name__ == "__main__":
    sys.exit(main())
