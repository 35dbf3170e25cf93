#!/usr/bin/env python3
"""crocodai benchmark runner.

    python3 perfbench/run.py --workload relay-traffic --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py                 # every workload of BENCHMARK.json, seed 0
    python3 perfbench/run.py --workload cdp-book   # not in BENCHMARK.json; runs only when named

Runs each workload in its own process, one after another, with the BLAS
thread count pinned to 1, against the package in this checkout's `src/`.
Prints every metric of BENCHMARK.json by name and unit (the end-to-end
metrics with `--trace 0`, the per-layer ones with `--trace 1`; a per-layer
metric of a layer the workload does not reach reads 0) and, as the last
line, one JSON object with `correct`, `attempted`, `failed` and `metrics`.
Exits 1 when a check failed and 2 when the checkout is incomplete.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

from common import terminate

ROOT = Path(__file__).resolve().parents[1]
CHILD_TIMEOUT_S = 170  # keeps a single-workload run under three minutes
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_workload(name: str, args) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED)
    cmd = [sys.executable, str(ROOT / "perfbench" / "workload.py"), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    # own process group, so a timeout also stops the price generator it may be running
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{name}: no result within {CHILD_TIMEOUT_S} s") from None
    finally:
        if proc.poll() is None:  # give it a moment to remove its work directory
            os.killpg(proc.pid, signal.SIGTERM)
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{name}: workload process exited with {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    signal.signal(signal.SIGTERM, terminate)
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="default: every workload of BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in ("BENCHMARK.json", "src/crocodai/__init__.py", "scripts/make_synthetic_prices.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: checkout at {ROOT} lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    names = [w["name"] for w in bench["workloads"]] if args.workload is None else [args.workload]
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        result = run_workload(name, args)
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"{name}: env {json.dumps(result['env'], sort_keys=True)}")
        for problem in result["failures"]:
            print(f"{name}: FAILED {problem}")
        print(f"{name}: failed_share {result['failed'] / result['attempted']:.6g} "
              f"({result['failed']} of {result['attempted']} operations), passes {result['passes']}, "
              f"host speed scales {', '.join(f'{k:.3f}' for k in result['host_scales'])}")
        for metric in wanted:
            value = result["metrics"].get(metric["name"], 0 if args.trace else None)
            if value is None:
                raise SystemExit(f"{name}: workload reports no metric {metric['name']!r}")
            key = metric["name"] if len(names) == 1 else f"{name}.{metric['name']}"
            metrics[key] = {"value": value, "unit": metric["unit"]}
            raw = (result["unscaled_metrics"] or {}).get(metric["name"])
            print(f"{name}: {metric['name']} {value:.6g} {metric['unit']}"
                  + (f" (unscaled {raw:.6g})" if raw is not None and raw != value else ""))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
