"""Self-test of the benchmark harness at a tiny size.

    python3 perfbench/selftest.py

For every workload run.py offers, including `analytic`, which BENCHMARK.json
leaves out: an untraced run must print exactly the
end-to-end metrics with their units, all non-zero; two traced runs must print
exactly the per-layer metrics with their units, and the exact work counts
must be equal between them. Takes about a minute; exits 1 on any failure.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("analytic", "waveform", "cli")

EXACT_COUNTS = ("special_math.quad.evals", "special_math.dft.points",
                "bussgang.sel_apply.samples", "link_budget.sndr.elements",
                "simulator.waveform_chain.blocks")


def run(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace}: exit {out.returncode}\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_shape(result: dict, declared: list, what: str, nonzero: bool) -> list:
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{what}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)):
        errors.append(f"{what}: attempted/failed {result['attempted']}/{result['failed']}")
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(got) != set(want):
        errors.append(f"{what}: missing {sorted(set(want) - set(got))}, "
                      f"extra {sorted(set(got) - set(want))}")
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            continue
        if m["unit"] != unit:
            errors.append(f"{what}: {name} unit {m['unit']} != {unit}")
        if not math.isfinite(m["value"]) or (nonzero and m["value"] == 0):
            errors.append(f"{what}: {name} = {m['value']}")
    return errors


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for name in WORKLOADS:
        plain = run(name, 0)
        errors += check_shape(plain, bench["end_to_end"], f"{name} trace=0", nonzero=True)
        first, second = run(name, 1), run(name, 1)
        for i, traced in enumerate((first, second)):
            errors += check_shape(traced, bench["per_layer"], f"{name} trace=1 #{i + 1}",
                                  nonzero=False)
        for key in EXACT_COUNTS:
            a, b = first["metrics"][key]["value"], second["metrics"][key]["value"]
            if a != b:
                errors.append(f"{name}: {key} differs between runs: {a} vs {b}")
        counts = {k: first["metrics"][k]["value"] for k in EXACT_COUNTS}
        print(f"{name}: correct={plain['correct']} failed={plain['failed']}/{plain['attempted']} "
              f"counts {counts}")
    for e in errors:
        print("FAIL", e)
    print("selftest:", "PASS" if not errors else f"FAIL ({len(errors)})")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
