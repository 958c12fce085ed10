"""One workload in a fresh interpreter; started by run.py, not by hand.

Prints its set-up time once it has imported numpy and afrelay, generated the
workload's inputs and warmed up; with --setup-only it stops there. Set-up
is timed from this module's first statement, so the interpreter's own start,
which no code of this repository runs, is left out. Otherwise it repeats
the workload's round until --seconds have passed (with --trace 1, untraced
and traced rounds alternate), gates the outputs after the timed region, and
prints one JSON object with everything run.py reports.

Between rounds it starts SETUP_PROBES set-up-only copies of itself, spread
evenly over the timed period, so that the set-up samples see the same speed
phases of the machine as the rounds do. Probe time does not count towards
--seconds and lies outside every round's timer.
"""

from __future__ import annotations

import time

SETUP_START = time.monotonic()

import argparse
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import tracer as tracing
from workloads import WORKLOADS, Cli, Gate

ROOT = Path(__file__).resolve().parent.parent
TAIL_LADDER = (90.0, 75.0, 50.0)
SETUP_PROBES = 20


def nearest_rank(sorted_values, pct):
    k = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[k - 1], len(sorted_values) - k


def tail(values):
    """p90 of the values, lowered until 10 samples lie beyond it (tiny runs)."""
    vals = sorted(values)
    for pct in TAIL_LADDER:
        value, beyond = nearest_rank(vals, pct)
        if beyond >= 10:
            return value, pct, beyond
    value, beyond = nearest_rank(vals, 50.0)
    return value, 50.0, beyond


def import_package():
    import afrelay
    import afrelay.cli  # noqa: F401  (not imported by the package itself)

    src = (ROOT / "src").resolve()
    if src not in Path(afrelay.__file__).resolve().parents:
        raise SystemExit(f"afrelay imported from {afrelay.__file__}, not from {src}")
    return afrelay


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    pkg = import_package()
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out_dir)
    try:
        cls = WORKLOADS[args.workload]
        if cls is Cli:
            work = cls(pkg, args.seed, args.size, tmp)
        else:
            work = cls(pkg, args.seed, args.size)
        work.warm_up()
        print(json.dumps({"setup_s": time.monotonic() - SETUP_START}), flush=True)
        if args.setup_only:
            return 0
        result = measure(pkg, work, args, sys.argv[1:] if argv is None else list(argv))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


def probe_setup(argv) -> float:
    """Set up once in a fresh copy of this worker; return the set-up time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), *argv, "--setup-only"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=60, check=True)
    return json.loads(out.stdout.splitlines()[0])["setup_s"]


def measure(pkg, work, args, argv) -> dict:
    tr = tracing.Tracer(pkg) if args.trace else None
    plain, traced, setups = [], [], []
    clock = time.perf_counter
    start = clock()
    probe_s = 0.0

    def probe_due():
        measured = clock() - start - probe_s
        return len(setups) < SETUP_PROBES and measured >= len(setups) * args.seconds / SETUP_PROBES

    while True:
        while probe_due():
            t0 = clock()
            setups.append(probe_setup(argv))
            probe_s += clock() - t0
        on = tr is not None and len(plain) > len(traced)
        if on:
            tr.install()
        t0 = clock()
        record = work.run_round()
        wall = clock() - t0
        if on:
            tr.uninstall()
            traced.append((wall, tr.take(), record))
        else:
            plain.append((wall, record))
        work.settle()
        if clock() - start - probe_s >= args.seconds and plain and (tr is None or traced):
            break
    while len(setups) < SETUP_PROBES:
        setups.append(probe_setup(argv))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    gate = Gate()
    work.gate(gate, len(plain) + len(traced))

    ops = [t for _, rec in plain for t in rec["ops"]]
    walls = [w for w, _ in plain]
    tail_s, pct, beyond = tail(ops)
    # Totals over the run, not medians: the machine's speed drifts in bursts,
    # and a median of round times jumps between the two speeds.
    rates = {}
    for key in plain[0][1]["rates"]:
        units = sum(rec["rates"][key][0] for _, rec in plain)
        rates[key] = units / sum(rec["rates"][key][1] for _, rec in plain)
    e2e = {
        "wall_s": sum(walls) / len(walls),
        "op_p50_s": float(np.median(ops)),
        "op_tail_s": tail_s,
        "throughput_per_s": rates[work.throughput],
        "peak_rss_mb": rss_mb,
    }
    rates["failed_ratio"] = gate.problem_ratio
    out = {
        "setup_probes_s": setups,
        "e2e": e2e,
        "workload_metrics": rates,
        "samples": {
            "rounds": len(plain), "ops": len(ops), "op_tail_percentile": pct,
            "op_samples_beyond_tail": beyond, "throughput_per_s": work.throughput,
            "round_walls_s": walls,
        },
        "gate": gate.summary(),
        "sizes": work.sizes,
        "versions": {"python": platform.python_version(), "numpy": np.__version__},
    }
    if tr is not None:
        out["trace"] = trace_report(plain, traced, args)
    return out


def trace_report(plain, traced, args) -> dict:
    rounds = [(wall, tracing.aggregate(spans), rec["counts"]) for wall, spans, rec in traced]
    metrics = tracing.layer_metrics(rounds)
    metrics["trace.overhead_ratio"] = (float(np.mean([w for w, _, _ in traced])) /
                                       float(np.mean([w for w, _ in plain])))
    first = rounds[0][1]

    def counts(layers):
        return [layers.get(name, {}).get(key) for name, key in tracing.COUNT_METRICS]

    path = Path(args.out_dir) / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for i, (wall, spans, _) in enumerate(traced):
            t0 = spans[0][1] if spans else 0.0
            fh.write(json.dumps({
                "round": i, "wall_s": wall,
                "spans": [[n, s - t0, e - t0, p] for n, s, e, p, _ in spans],
            }) + "\n")
    layers = {}
    for name in sorted(first):
        layers[name] = {k: v for k, v in first[name].items() if k not in ("self_s", "total_s")}
        layers[name]["self_s"] = float(np.median([ls.get(name, {}).get("self_s", 0.0)
                                                  for _, ls, _ in rounds]))
    return {
        "metrics": {k: {"value": v, "unit": tracing.layer_unit(k)} for k, v in metrics.items()},
        "traced_rounds": len(traced),
        "untraced_rounds": len(plain),
        "counts_repeat_across_rounds": all(counts(ls) == counts(first) for _, ls, _ in rounds),
        "layers": layers,
        "spans_file": os.path.relpath(path, ROOT),
    }


if __name__ == "__main__":
    sys.exit(main())
