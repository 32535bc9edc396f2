#!/usr/bin/env python3
"""Benchmark of hilmod's four workloads, end to end or layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The seed draws the workload's inputs.  The
benchmark then runs whole rounds of those operations, each round in a fresh
worker process (cold caches), back to back in a closed loop with one
caller, until S seconds have passed.  It checks every output, shows that a
perturbed output fails its check, and prints as its last line one JSON
object {correct, attempted, failed, metrics}.

--trace 0 reports the end-to-end metrics (set-up time, round time, median
operation time, peak memory).  --trace 1 alternates traced and untraced
rounds and reports per-layer calls, work and self time from the traced
ones, and the tracing overhead.

The reported set-up, round and operation times are seconds at the
reference pace of pace.py: wall time scaled by the machine's speed, as
a probe measured it during the same window, so that the host's slow and
fast spells cancel out.  The wall times are printed on the env: line.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

SETUP_SAMPLES = 5          # set-ups timed per run, counting the rounds' own
WORKER_TIMEOUT_S = 170.0

# per-layer metrics: span name and its stats; 'work:<label>' is the span's work
# count and 'rate:<label>' that count per second of self time
LAYER_METRICS = (
    ("specfun.bessel_k_grid", ("calls", "work:values", "self_s")),
    ("specfun.gamma", ("calls", "self_s")),
    ("zeta.hurwitz_zeta", ("calls", "self_s")),
    ("zeta.phi", ("calls", "self_s")),
    ("fields.ideal_divisor_norms", ("calls", "self_s")),
    ("fields.ideal_totient_sums", ("calls", "self_s")),
    ("quadrature.gl_panel_nodes", ("calls", "self_s")),
    ("geometry.slice_embeddings", ("calls", "self_s")),
    ("eisenstein.eisenstein_direct", ("calls", "self_s", "work:pairs", "rate:pairs_per_s")),
    ("eisenstein.eisenstein_fourier", ("calls", "self_s")),
    ("domains.eisenstein_fourier_grid", ("calls", "work:points", "self_s")),
    ("domains.shadow_fraction", ("calls", "self_s")),
    ("domains.maass_selberg_numeric", ("total_s",)),
    ("equidist.cusp_section_average.unfolded", ("calls", "self_s")),
    ("equidist.cusp_section_average.horoball", ("calls", "self_s")),
    ("equidist.decay_exponent_fit", ("total_s",)),
    ("equidist.rankin_selberg_check", ("total_s",)),
)


class BenchError(Exception):
    pass


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one BLAS thread: one caller, and the pace probe measures one core
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(ops, trace=False, setup_only=False) -> dict:
    job = json.dumps({"ops": ops, "trace": trace, "setup_only": setup_only})
    proc = subprocess.run([sys.executable, str(HERE / "worker.py")], input=job,
                          capture_output=True, text=True, env=_worker_env(),
                          timeout=WORKER_TIMEOUT_S, cwd=str(ROOT))
    if proc.returncode != 0:
        raise BenchError("worker failed (exit %d):\n%s" % (proc.returncode, proc.stderr[-4000:]))
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if not pathlib.Path(report["hilmod_file"]).resolve().is_relative_to(SRC.resolve()):
        raise BenchError("hilmod imported from %s, not from %s" % (report["hilmod_file"], SRC))
    return report


def git_sha() -> str:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=str(ROOT),
                             capture_output=True, text=True, timeout=10)
        if top.returncode == 0 and pathlib.Path(top.stdout.strip()).resolve() == ROOT.resolve():
            return subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
                                  text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def layer_metrics(traced: list[dict]) -> dict:
    """Median over traced rounds of each per-layer stat."""
    out = {}
    for span, stats in LAYER_METRICS:
        for stat in stats:
            kind, _, label = stat.partition(":")
            rows = [r["layers"].get(span, {"calls": 0, "self_s": 0.0, "total_s": 0.0, "work": 0})
                    for r in traced]
            if kind == "work":
                vals, unit = [r["work"] for r in rows], "count"
            elif kind == "rate":
                vals = [r["work"] / r["self_s"] if r["self_s"] > 0 else 0.0 for r in rows]
                unit = "1/s"
            else:
                vals = [r[kind] for r in rows]
                label, unit = kind, ("count" if kind == "calls" else "s")
            out["%s.%s" % (span, label)] = (statistics.median(vals), unit)
    return out


def check_layers(workload: str, traced: list[dict]) -> list[str]:
    expected = workloads.EXPECTED_LAYERS[workload]
    calls = {span: max(r["layers"].get(span, {}).get("calls", 0) for r in traced)
             for span in expected["reached"] + expected["not_reached"]}
    problems = ["%s recorded no call" % s for s in expected["reached"] if calls[s] == 0]
    problems += ["%s was reached (%d calls)" % (s, calls[s])
                 for s in expected["not_reached"] if calls[s] > 0]
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "hilmod" / "__init__.py").is_file():
        print("error: no hilmod sources under %s" % SRC, file=sys.stderr)
        return 2
    trace = bool(args.trace)
    ops = workloads.make_inputs(args.workload, args.seed)

    # measured phase: whole rounds until the time is up
    rounds = []
    start = time.perf_counter()
    while True:
        rounds.append(run_worker(ops, trace=trace and len(rounds) % 2 == 0))
        kinds = {("layers" in r) for r in rounds}
        if time.perf_counter() - start >= args.seconds and len(kinds) == (2 if trace else 1):
            break
    setups = [r["setup_s"] for r in rounds]
    setup_walls = [r["setup_wall_s"] for r in rounds]
    while not trace and len(setups) < SETUP_SAMPLES:    # setup_s is not a traced metric
        r = run_worker(ops, setup_only=True)
        setups.append(r["setup_s"])
        setup_walls.append(r["setup_wall_s"])

    attempted = sum(len(r["errors"]) for r in rounds)
    failed = sum(e is not None for r in rounds for e in r["errors"])
    for r in rounds:
        for op, err in zip(ops, r["errors"]):
            if err is not None:
                print("failed: op %s: %s" % (json.dumps(op)[:200], err))

    # checks, outside every timed region
    import checks
    sys.path.insert(0, str(SRC))
    first = rounds[0]["outputs"]
    correct = True
    for k, r in enumerate(rounds[1:], start=1):
        if r["outputs"] != first:
            correct = False
            print("check: round %d outputs differ from round 0 (rounds must be bit-identical)" % k)
    refs = checks.references(ops)
    rows = checks.compare(ops, first, refs)
    for row in rows:
        ok = row["err"] <= row["tol"]
        correct = correct and ok
        margin = row["tol"] / row["err"] if row["err"] > 0 else float("inf")
        print("check: %-28s op %2d  err %.3e  tol %.1e  margin %9.3g  %s"
              % (row["check"], row["op"], row["err"], row["tol"], margin, "pass" if ok else "FAIL"))
    caught = any(row["err"] > row["tol"]
                 for row in checks.compare(ops, checks.perturb(ops, first), refs))
    print("selftest: perturbed output %s" % ("caught" if caught else "NOT caught"))
    correct = correct and caught

    untraced = [r for r in rounds if "layers" not in r]
    traced = [r for r in rounds if "layers" in r]
    metrics = {}
    if trace:
        print("trace: wrapped %s" % " ".join(traced[0]["wrapped"]))
        problems = check_layers(args.workload, traced)
        for p in problems:
            print("trace: %s" % p, file=sys.stderr)
        if problems:
            return 1
        for name, (value, unit) in layer_metrics(traced).items():
            metrics[name] = {"value": value, "unit": unit}
        traced_run = statistics.median(r["run_s"] for r in traced)
        metrics["trace.run_s"] = {"value": traced_run, "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": traced_run - statistics.median(r["run_s"] for r in untraced), "unit": "s"}
    else:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["run_s"] = {"value": statistics.median(r["run_s"] for r in rounds), "unit": "s"}
        metrics["op_p50_s"] = {"value": statistics.median(t for r in rounds for t in r["op_s"]),
                               "unit": "s"}
        metrics["peak_rss_mib"] = {"value": statistics.median(r["rss_mib"] for r in rounds),
                                   "unit": "MiB"}
    env = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "rounds": len(rounds), "traced_rounds": len(traced),
           "ops_per_round": len(ops), "round_run_s": [round(r["run_s"], 4) for r in rounds],
           "round_run_wall_s": [round(r["run_wall_s"], 4) for r in rounds],
           "round_probe_ms": [round(1e3 * r["probe_s"], 4) for r in rounds],
           "setup_s": [round(v, 4) for v in setups],
           "setup_wall_s": [round(v, 4) for v in setup_walls], "git_sha": git_sha(),
           "python": platform.python_version(),
           "numpy": rounds[0]["numpy"], "cores": len(os.sched_getaffinity(0)),
           "cpu_count": os.cpu_count()}
    print("env: " + json.dumps(env, sort_keys=True))
    for name, m in metrics.items():
        print("metric: %-44s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        sys.exit(1)
