#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --workload NAME [--seeds 1-10] [--seconds 10] [--trace 0|1]

For every metric it prints the median, the quartiles (statistics.quantiles,
n=4) and the spread (third minus first quartile, as a share of the median),
plus the share of failed operations.  Each run's full output is kept in
perfbench/out/<workload>-trace<T>-seed<N>.txt.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    args = ap.parse_args(argv)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    values, shares, ok = {}, [], True
    for seed in seed_list(args.seeds):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", args.seconds,
                               "--trace", args.trace], capture_output=True, text=True,
                              cwd=str(HERE.parent))
        wall = time.perf_counter() - t0
        (out_dir / ("%s-trace%s-seed%d.txt" % (args.workload, args.trace, seed))).write_text(
            proc.stdout + proc.stderr)
        if proc.returncode != 0:
            print("seed %d: exit %d\n%s" % (seed, proc.returncode, proc.stderr[-2000:]))
            ok = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        shares.append(result["failed"] / result["attempted"])
        print("seed %d: %.1f s wall, correct=%s, attempted=%d, failed=%d" % (
            seed, wall, result["correct"], result["attempted"], result["failed"]), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, ([], m["unit"]))[0].append(m["value"])
    print("%-48s %12s %12s %12s %8s" % ("metric", "median", "q1", "q3", "spread"))
    for name, (vals, unit) in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        print("%-48s %12.6g %12.6g %12.6g %8.3f  %s" % (name, med, q1, q3, spread, unit))
    print("failed share per run: %s" % sorted(set(shares)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
