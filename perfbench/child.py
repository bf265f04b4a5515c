"""Run one grasscoh CLI job in a fresh interpreter.

Usage: python -I -S child.py ROOT TRACE JOB -- ARGV...

Times the host speed reference (calib.py, before grasscoh is imported),
the import of grasscoh and the call to `grasscoh.cli.run_cli` from
inside the process, so interpreter start-up is not part of the job
time, and prints one JSON line: exit code, captured stdout, timings,
peak RSS and, when TRACE is 1, the tracer's summary and spans.
"""

import sys
import time


def main():
    root, trace, job = sys.argv[1], sys.argv[2] == "1", int(sys.argv[3])
    argv = sys.argv[5:]
    sys.path.append(root + "/perfbench")
    import calib
    ref_s = calib.reference()
    sys.path.insert(0, root + "/src")
    start = time.perf_counter()
    import grasscoh.cli
    import_s = time.perf_counter() - start

    import io
    import json
    import resource

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer.install()
        tracer.job = job
    out = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        code = grasscoh.cli.run_cli(argv, out=out)
    except Exception as exc:  # a crash is a failed job, reported to the parent
        code, error = None, f"{type(exc).__name__}: {exc}"
    job_s = time.perf_counter() - start
    report = {
        "code": code,
        "error": error,
        "stdout": out.getvalue(),
        "backend": getattr(grasscoh, "backend_name", lambda: None)(),
        "ref_s": ref_s,
        "import_s": import_s,
        "job_s": job_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
        report["spans"] = tracer.spans
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()
