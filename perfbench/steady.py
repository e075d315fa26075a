"""Steadiness check: run each workload N times, each with another seed,
and print every end-to-end metric's median, quartiles and spread
(quartile distance over median) against its bound.

Usage, from the repository root::

    python3 perfbench/steady.py --runs 10 [--workload batch ...] \\
        [--first-seed 1]

A spread above a third of the bound is flagged ``WIDE``; above the
bound, ``FAIL``.
Before each run a fresh interpreter times a fixed pure-Python loop
(median of five 1M-iteration passes); its spread is the host's own
drift, which no benchmark on this host can undercut.
The failed share (failed / attempted) must be identical in every run of
a workload.  Exit status 1 when any run fails, is incorrect, or a
spread or share check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The host-drift probe, run in a fresh interpreter before every run.
PROBE = """
import statistics, time
def once():
    t0 = time.perf_counter()
    s = 0
    for i in range(1_000_000):
        s += i * i
    return time.perf_counter() - t0
print(statistics.median(once() for _ in range(5)))
"""


def host_probe() -> float:
    return float(subprocess.run([sys.executable, "-c", PROBE],
                                capture_output=True, text=True,
                                check=True, timeout=120).stdout)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    # Exit status 1 with a result line is an incorrect run: keep it, so
    # that the summary reports it.
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    for line in lines:
        if "VIOLATION" in line:
            print(f"{workload} seed {seed}: {line}")
    return json.loads(lines[-1])


def _row(name: str, values: list, bound: str = "") -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    print(f"  {name:<14}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
          f"{spread:>9.4f}{bound:>7}", end="")
    return spread


def summarise(spec: dict, workload: str, results: list,
              probes: list) -> bool:
    ok = True
    shares = {Fraction(r["failed"], r["attempted"]) for r in results}
    if len(shares) != 1 or not all(r["correct"] for r in results):
        ok = False
    print(f"\n{workload}: {len(results)} runs, failed share "
          f"{', '.join(str(s) for s in sorted(shares))}, all correct "
          f"{all(r['correct'] for r in results)}")
    print(f"  {'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'spread':>9}{'bound':>7}")
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        spread = _row(m["name"], values, f"{m['bound']:.2f}")
        flag = ""
        if spread > m["bound"]:
            flag, ok = "FAIL", False
        elif spread > m["bound"] / 3:
            flag = "WIDE"
        print(f" {flag}")
    _row("host loop s", probes)
    print("  (host drift)")
    return ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)
    ok = True
    for workload in args.workload or names:
        results, probes = [], []
        for i in range(args.runs):
            seed = args.first_seed + i
            probes.append(host_probe())
            t0 = time.perf_counter()
            try:
                results.append(run_once(workload, seed, args.seconds))
            except (RuntimeError, subprocess.TimeoutExpired,
                    json.JSONDecodeError) as exc:
                print(f"{workload} seed {seed}: {exc}")
                ok = False
                continue
            print(f"{workload} seed {seed}: "
                  f"{time.perf_counter() - t0:.1f} s", flush=True)
        if len(results) >= 2:
            ok &= summarise(spec, workload, results, probes)
        else:
            ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
