"""One round of a workload in a fresh process, so that every cache starts
cold, as it does for every `hilmod` command.

Reads a job {"ops", "trace", "setup_only"} as JSON on stdin and writes one
JSON line on stdout: the set-up time, the time of the operations, each
operation's time and output (or error), peak resident memory and, when
traced, per-layer stats.  Every time is given twice: at the reference pace
of pace.py (setup_s, run_s, op_s) and as wall time (the *_wall_s keys),
both without the pace probes.  Set-up is paced by the block of probes
taken right after it, each operation by the probes taken while it ran;
run_s is the sum over the operations.  Run by run.py with src/ on
PYTHONPATH.
"""

import json
import resource
import sys
import time


def main() -> int:
    job = json.load(sys.stdin)
    t0 = time.perf_counter()
    import workloads
    calls = workloads.setup(job["ops"])
    setup_wall_s = time.perf_counter() - t0
    import pace
    pacer = pace.Pacer()
    pacer.start()
    report = {}
    if not job["setup_only"]:
        tracer = None
        if job["trace"]:
            import tracing
            tracer = tracing.Tracer()
            report["wrapped"] = tracing.install(tracer)
        windows, outputs, errors = [], [], []
        for call in calls:
            t = time.perf_counter()
            try:
                outputs.append(call())
                errors.append(None)
            except Exception as exc:  # a failed operation is counted, not fatal
                outputs.append(None)
                errors.append("%s: %s" % (type(exc).__name__, exc))
            windows.append((t, time.perf_counter()))
    pacer.stop()
    report.update(setup_wall_s=setup_wall_s, setup_s=setup_wall_s * pacer.setup_scale())
    if not job["setup_only"]:
        ops = [pacer.window(a, b) for a, b in windows]
        report.update(run_wall_s=sum(w for w, _ in ops), run_s=sum(p for _, p in ops),
                      op_wall_s=[w for w, _ in ops], op_s=[p for _, p in ops],
                      outputs=outputs, errors=errors)
        if tracer is not None:
            report["layers"] = tracer.stats()
    report["probe_s"] = sum(pacer.durs) / len(pacer.durs)
    import hilmod
    import numpy
    report.update(rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  numpy=numpy.__version__, hilmod_file=hilmod.__file__)
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
