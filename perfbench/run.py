"""End-to-end benchmark of the reproduction: one command, four workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload batch --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
runs the workload untraced, then again with spans and counters on, and
prints the per-layer metrics plus the tracing overhead; the spans go to
``.bench_out/trace-<workload>-<seed>.json`` (Chrome-trace JSON).  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (name -> value and unit, with
names and units from ``BENCHMARK.json``).  The exit status is 1 when a
correctness check failed; the result line then says ``"correct":
false``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, seconds: float, traced: bool):
    """Run one workload; returns ``(Outcome, tracer)``."""
    import spans
    import workloads

    tr = spans.Tracer() if traced else spans.OFF
    return workloads.WORKLOADS[workload](seed, seconds, tr), tr


def main(argv=None) -> int:
    spec = _spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    t0 = time.perf_counter()
    base, _ = run(args.workload, args.seed, args.seconds, False)
    outcomes = [base]
    if args.trace:
        traced, tr = run(args.workload, args.seed, args.seconds, True)
        outcomes.append(traced)
        wanted = spec["per_layer"]
        values = {m["name"]: traced.layer.get(m["name"], 0)
                  for m in wanted}
        values["trace.overhead_pct"] = 100.0 * (
            base.metrics["ops_per_s"] / traced.metrics["ops_per_s"] - 1.0)
        path = tr.write_chrome(
            ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.json")
        print(f"trace: {len(tr.spans)} spans written to "
              f"{path.relative_to(ROOT)}")
        for layer, secs in sorted(tr.self_times().items()):
            print(f"  self time {layer:<16} {secs:10.4f} s")
    else:
        wanted = spec["end_to_end"]
        values = dict(base.metrics)

    for i, outcome in enumerate(outcomes):
        tag = "traced " if i else ""
        for note in outcome.notes:
            print(f"{tag}{note}")
        for v in outcome.violations:
            print(f"{tag}VIOLATION: {v}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    for name, m in metrics.items():
        print(f"{name:<26} {m['value']:>16.6g} {m['unit']}")
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    print(f"operations: {attempted} attempted, {failed} failed; "
          f"run took {time.perf_counter() - t0:.1f} s")
    correct = not any(o.violations for o in outcomes)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
