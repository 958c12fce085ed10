"""afrelay benchmark: one workload per call, each in fresh interpreters.

    python3 perfbench/run.py --workload {analytic,waveform,cli} --seed N \\
        --seconds S --trace {0,1} [--size tiny]

Run from anywhere inside a checkout that holds src/afrelay; nothing needs to
be installed or built. The program is imported from the checkout's src/.

Set-up (import, input generation, warm-up) is measured in the interpreter
that runs the timed rounds and in the fresh set-up-only interpreters it
starts between rounds; setup_s is the median. With --trace 0 the last
stdout line carries the end-to-end metrics, with --trace 1 the per-layer
metrics of the traced rounds (untraced and traced rounds alternate, which
also gives the tracing overhead). The lines before it, all starting with
'#', give the provenance, the workload-specific figures (vg/fg points/s,
blocks/s, MC trials/s, scaling efficiency, validate time, failed ratio),
the samples behind each timing, and any problem the gate found. Everything is also
written to .perfbench_out/ in the checkout. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("analytic", "waveform", "cli")
# every process this run starts has ended by then, well inside 180 s
DEADLINE_S = 165.0

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_tail_s": "s",
             "throughput_per_s": "1/s", "peak_rss_mb": "MB"}
WORKLOAD_UNITS = {"vg_points_per_s": "1/s", "fg_points_per_s": "1/s", "blocks_per_s": "1/s",
                  "mc_trials_per_s": "1/s", "mc_scaling_eff": "ratio",
                  "cli_validate_s": "s", "failed_ratio": "ratio"}


class BenchError(RuntimeError):
    pass


def spawn_worker(args, deadline) -> tuple[float, dict]:
    """Run worker.py; return its set-up time and its result."""
    env = dict(os.environ)
    # Byte code is cached in the checkout whatever the caller's environment
    # says, so after a checkout's first run set-up imports from the cache
    # instead of compiling every module again.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--out-dir", str(OUT)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker ran past the deadline")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if len(lines) < 2:
        raise BenchError("worker printed no result")
    return json.loads(lines[0])["setup_s"], json.loads(lines[-1])


def provenance(args, load_at_start) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            sha = None
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((idx / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "loadavg_at_start": list(load_at_start),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the self-test's small inputs")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "afrelay" / "__init__.py").is_file():
        print(f"error: no afrelay sources under {SRC}", file=sys.stderr)
        return 2

    load_at_start = os.getloadavg()
    deadline = time.monotonic() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    try:
        filled = OUT / "pycache" / f"filled-{args.workload}"
        if not filled.exists():
            # a workload's first run in a checkout fills the byte-code cache
            # with a tiny untimed run, so no measured interpreter compiles
            spawn_worker(argparse.Namespace(**{**vars(args), "size": "tiny", "seconds": 1}), deadline)
            filled.touch()
        setup_s, result = spawn_worker(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups = [setup_s] + result["setup_probes_s"]

    prov = provenance(args, load_at_start)
    prov.update(result["versions"])
    prov["sizes"] = result["sizes"]
    samples = dict(result["samples"])
    samples["setup_runs"] = len(setups)
    samples["setup_s_each"] = setups
    e2e = {"setup_s": statistics.median(setups), **result["e2e"]}
    gate = result["gate"]

    lines = [f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
             f"trace={args.trace} size={args.size}",
             "# provenance " + json.dumps(prov, sort_keys=True),
             "# samples " + json.dumps(samples)]
    if args.trace:
        tr = result["trace"]
        metrics = tr["metrics"]
        lines.append(f"# traced rounds {tr['traced_rounds']}, untraced {tr['untraced_rounds']}; "
                     f"counts repeat across rounds: {tr['counts_repeat_across_rounds']}; "
                     f"spans in {tr['spans_file']}; work inside --workers child processes "
                     "is invisible to the trace")
        for name, layer in tr["layers"].items():
            lines.append(f"# layer {name} " + json.dumps(layer))
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    for name, value in result["workload_metrics"].items():
        lines.append(f"# {args.workload} {name} = {value:.6g} {WORKLOAD_UNITS[name]}")
    lines.append("# gate " + json.dumps(gate))
    final = {"correct": gate["correct"], "attempted": gate["attempted"], "failed": gate["failed"],
             "metrics": metrics}
    record = {"provenance": prov, "samples": samples, "end_to_end": e2e,
              "workload_metrics": result["workload_metrics"], "gate": gate, "result": final}
    if args.trace:
        record["trace"] = result["trace"]
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
