"""One long-lived grasscoh library session for the session-warm workload.

Usage: python -I -S session.py ROOT SEED INDEX MODE AMOUNT

Imports grasscoh, runs a warm-up pass over its own draw (both count as
set-up), then runs seeded schur_mul, cup, pairing and Adams calls and
checks every result.  MODE `timed` runs whole rounds for AMOUNT seconds;
MODE `trace0` and `trace1` run AMOUNT rounds of the trace draw, the
latter under the tracer.  The host speed reference (calib.py) is timed
before the import and before every round, outside the timed spans.
Prints one JSON line.
"""

import sys
import time

WARMUP_ROUNDS = 100


def main():
    root, seed, index, mode, amount = sys.argv[1:6]
    seed, index = int(seed), int(index)
    sys.path.insert(0, root + "/src")
    sys.path.insert(0, root + "/perfbench")
    import calib

    setup_refs = [calib.reference()]
    start = time.perf_counter()
    import grasscoh  # noqa: F401  (the import is what set-up measures)
    from grasscoh import lefschetz, ring
    import_s = time.perf_counter() - start

    import jobs

    contexts = {r: ring.RingContext(*r) for r in jobs.SESSION_RINGS}

    def run(r, op, a, b, m):
        ctx = contexts[r]
        sa = ring.SchurClass(ctx, {a: 1})
        if op == "schur_mul":
            return str(ring.schur_mul(sa, ring.SchurClass(ctx, {b: 1})))
        x = ring.GrassElement.from_schur(ctx, sa)
        if op == "adams":
            return str(lefschetz.apply_adams(x, m).reduced)
        y = ring.GrassElement.from_schur(ctx, ring.SchurClass(ctx, {b: 1}))
        if op == "cup":
            return str(x.cup(y).reduced)
        return str(ring.pairing(x, y))

    jobs_per_round = len(jobs.SESSION_RINGS) * len(jobs.SESSION_OPS)
    warm = jobs.session_jobs(seed, f"warmup-{index}")
    warmup_s = 0.0
    for _ in range(WARMUP_ROUNDS):
        setup_refs.append(calib.reference())
        start = time.perf_counter()
        for _ in range(jobs_per_round):
            run(*next(warm))
        warmup_s += time.perf_counter() - start

    import json
    import resource
    from array import array

    import checks

    golden = checks.Golden()

    def check(r, op, a, b, m, out):
        if op == "pairing":
            return out == jobs.pairing_expected(r, a, b)
        if op == "adams":
            return out == jobs.adams_expected(a, m)
        return checks.digest(out) == golden.product(r, a, b)

    tracer = None
    if mode == "trace1":
        from tracer import Tracer
        tracer = Tracer.install()
        memo_before = tracer.memo_snapshot()
    stream = jobs.session_jobs(seed, "trace" if mode.startswith("trace") else f"timed-{index}")
    times = array("d")
    failures = []
    failed = 0
    refs, round_s = array("d"), array("d")
    loop_start = time.perf_counter()
    rounds = 0
    while (rounds < int(amount) if mode.startswith("trace")
           else time.perf_counter() - loop_start < float(amount)):
        refs.append(calib.reference())
        round_start = time.perf_counter()
        for _ in range(jobs_per_round):
            job = next(stream)
            if tracer is not None:
                tracer.job = len(times)
            t = time.perf_counter()
            try:
                out = run(*job)
            except Exception as exc:  # a crash is a failed job
                out = f"{type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - t)
            if not check(*job, out):
                failed += 1
                if len(failures) < 20:
                    failures.append(f"{job[1]} G{job[0]} {jobs.sigma(job[2])} "
                                    f"{jobs.sigma(job[3])} m={job[4]}: {out[:200]}")
        round_s.append(time.perf_counter() - round_start)
        rounds += 1
    report = {
        "backend": getattr(grasscoh, "backend_name", lambda: None)(),
        "import_s": import_s,
        "warmup_s": warmup_s,
        "jobs": len(times),
        "failed": failed,
        "failures": failures,
        "times": list(times),
        "refs": list(refs),
        "round_s": list(round_s),
        "setup_ref_s": sorted(setup_refs)[len(setup_refs) // 2],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["trace"] = tracer.summary(memo_before)
        report["spans"] = tracer.spans
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
