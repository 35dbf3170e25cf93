"""One workload in its own process: set up, run passes, check, report.

Started by `run.py`, one process per workload; prints one JSON object as
its last line of standard output and writes the same record, with the
environment, to `.perfbench_out/` in the checkout.

An untraced run makes the workload's minimum number of passes and then
more while the next one still ends within `--seconds`. When it made two or
more, their decisions and outputs must be equal. Its times are scaled to the
nominal host speed (see `common.HostSpeed`); the record keeps them unscaled
too. A traced run makes one untraced pass and one traced pass, unscaled,
which must also agree; the difference of their wall times is the tracing
overhead.
"""

import time

_T0 = time.process_time()  # set-up time starts before the heavy imports

from common import HOST  # noqa: E402

HOST.start()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import crocodai  # noqa: E402
from common import REF_INTERVAL_S, REF_NOMINAL_S, clock, p50, p99, terminate  # noqa: E402
from protocol import CdpBook, RelayTraffic  # noqa: E402
from risk import McTable, RiskCli  # noqa: E402
from spans import CLI_SPANS, WRAPPED, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = {w.name: w for w in (McTable, RiskCli, CdpBook, RelayTraffic)}
GENESIS_REPEATS = 5
MIN_COVERAGE = 0.9

SPAN_NAMES = sorted({name for _, _, name, _ in WRAPPED} | set(CLI_SPANS))


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "crocodai").glob("*.py"))


def environment(args, workload) -> dict:
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "machine": platform.machine(),
        "sizes": workload.sizes(),
        "repo.src_lines": src_lines(),
        "host_reference": {"interval_s": REF_INTERVAL_S, "nominal_s": REF_NOMINAL_S,
                           "samples": len(HOST.samples)},
    }


def set_up(workload) -> tuple[float, float]:
    """Imports, inputs from the seed, fitted model and genesis world; returns
    the time scaled to the nominal host speed, and unscaled.

    The genesis world is cheap and is built several times, taking the
    median; the price CSV and the model fit are made once, since repeating
    them would not fit the run's time.
    """
    workload.prepare()
    children = resource.getrusage(resource.RUSAGE_CHILDREN)  # the price generator
    seconds = clock() - _T0 + children.ru_utime + children.ru_stime  # no sample ran before _T0
    genesis = getattr(workload, "genesis", None)
    if genesis is not None:
        times = []
        for _ in range(GENESIS_REPEATS):
            t0 = clock()
            genesis()
            times.append(clock() - t0)
        seconds += p50(times)
    return seconds * HOST.scale(0), seconds


def layer_metrics(tracer: Tracer, workload, reference, traced) -> tuple[dict, list[str]]:
    end = traced.start + traced.wall
    spans = [s for s in tracer.spans if s[1] >= traced.start and s[2] <= end]
    durations: dict[str, list[float]] = {name: [] for name in SPAN_NAMES}
    errors: dict[str, int] = {}
    for name, start, stop, _, _, error in spans:
        durations[name].append(stop - start)
        if error is not None:
            errors[name] = errors.get(name, 0) + 1
    metrics: dict[str, float] = {}
    for name, values in durations.items():
        metrics[f"{name}.s"] = sum(values)
        metrics[f"{name}.calls"] = len(values)
        metrics[f"{name}.p50_us"] = p50(values) * 1e6 if values else 0.0
        metrics[f"{name}.p99_us"] = p99(values) * 1e6 if values else 0.0
    withdraws = durations["stablecoin.withdraw_stablecoins"]
    refused = errors.get("stablecoin.withdraw_stablecoins", 0)
    metrics["stablecoin.withdraw_stablecoins.accept_ratio"] = (
        (len(withdraws) - refused) / len(withdraws) if withdraws else 0.0
    )
    metrics.update(tracer.counters)
    metrics.update(traced.counts)
    if "relay.rejected.StaleNonceError" in traced.counts:
        metrics["relay.governance_refused"] = traced.counts["relay.rejected.StaleNonceError"]
    covered = sum(stop - start for _, start, stop, parent, _, _ in spans if parent < 0)
    metrics["trace.coverage"] = covered / traced.wall
    metrics["trace.overhead_s"] = traced.wall - reference.wall
    metrics["repo.src_lines"] = src_lines()

    problems = [f"traced run: no call reached {name}" for name in workload.SPANS
                if not durations[name]]
    if metrics["trace.coverage"] < MIN_COVERAGE:
        problems.append(f"traced run: top-level spans cover {metrics['trace.coverage']:.3f} "
                        f"of the pass, below {MIN_COVERAGE}")
    return metrics, problems


def end_to_end(passes, scales, setup_s: float, peak_rss_mb: float) -> dict:
    """`wall_s` and `ops_per_s` are medians over passes, so a burst of
    machine noise inside one pass does not carry into the run's result.
    Every pass replays the same steps, so a step's time is the least of its
    times over the passes: the host adds to each pass something else, the
    program's own cost is the same. The step percentiles are taken over
    those per-step times. With `scales`, each pass is scaled by the host
    speed during it and each step by the speed around it; without, the
    figures are unscaled CPU time."""
    walls = [p.wall * k for p, k in zip(passes, scales)] if scales else [p.wall for p in passes]
    per_pass = [[HOST.step_seconds(s) for s in p.steps] if scales else [s[0] for s in p.steps]
                for p in passes]
    step_times = [min(times) for times in zip(*per_pass)]
    return {
        "setup_s": setup_s,
        "wall_s": p50(walls),
        "peak_rss_mb": peak_rss_mb,
        "ops_per_s": p50([p.ops / w for p, w in zip(passes, walls)]),
        "step_p50_ms": p50(step_times) * 1e3,
        "step_p99_ms": p99(step_times) * 1e3,
    }


def run_in_child(workload, scaled: bool, tracer: Tracer = None):
    """One pass in a forked child, so that every pass starts from the heap
    that set-up left: in one process, passes after the first ran 10-50%
    slower as the heap fragmented. The child runs the host reference when
    `scaled`, and the tracer's wrappers when given one, and sends back the
    pass, its reference samples and its spans."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            first = len(HOST.samples)
            if scaled:
                HOST.start()
            if tracer is not None:
                tracer.install()
            result = workload.run_pass(tracer)
            HOST.stop()
            spans = (tracer.spans, dict(tracer.counters)) if tracer is not None else None
            payload, code = (result, HOST.samples[first:], spans), 0
        except BaseException as exc:
            payload = f"pass failed in its process: {type(exc).__name__}: {exc}"
        finally:
            try:
                with os.fdopen(write_end, "wb") as fh:
                    pickle.dump(payload, fh)
            finally:
                os._exit(code)  # never runs the parent's clean-up
    os.close(write_end)
    try:
        with os.fdopen(read_end, "rb") as fh:
            payload = pickle.load(fh)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.waitpid(pid, 0)
    if isinstance(payload, str):
        raise RuntimeError(payload)
    result, samples, spans = payload
    HOST.samples += samples
    if spans is not None:
        tracer.spans, counters = spans
        tracer.counters.update(counters)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, terminate)  # so the work directory is removed

    if not Path(crocodai.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"crocodai imported from {crocodai.__file__}, not from this checkout")
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, ROOT, work)
        setup_s, setup_unscaled = set_up(workload)
        HOST.stop()  # each pass runs the reference in its own process
        tracer = None
        if args.trace:
            reference = run_in_child(workload, scaled=False)
            tracer = Tracer()
            tracer.pass_id = 1
            traced = run_in_child(workload, scaled=False, tracer=tracer)
            passes, scales, spent = [reference, traced], [1.0, 1.0], None
        else:
            # stop before a pass that would end past --seconds, after the minimum
            passes, scales, spent = [], [], []
            begin = time.perf_counter()
            while len(passes) < workload.MIN_PASSES or (
                time.perf_counter() - begin + p50(spent) <= args.seconds
            ):
                first, t0 = len(HOST.samples), time.perf_counter()
                passes.append(run_in_child(workload, scaled=True))
                spent.append(time.perf_counter() - t0)
                scales.append(HOST.scale(first))
        peak_rss_mb = max(resource.getrusage(who).ru_maxrss
                          for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0
        problems = [msg for p in passes for msg in p.failures]
        failed = sum(p.failed for p in passes)
        attempted = sum(p.attempted for p in passes)
        if len({p.digest for p in passes}) != 1:
            problems.append("passes with the same seed made different decisions or outputs")
            failed += 1
        final = workload.final_checks()
        problems += final
        failed += len(final)
        attempted += 1  # the comparison of passes and the checks after them

        unscaled = None
        if args.trace:
            metrics, trace_problems = layer_metrics(tracer, workload, reference, traced)
            problems += trace_problems
            failed += len(trace_problems)
        else:
            metrics = end_to_end(passes, scales, setup_s, peak_rss_mb)
            unscaled = end_to_end(passes, None, setup_unscaled, peak_rss_mb)
        record = {
            "workload": args.workload,
            "correct": not problems,
            "attempted": attempted,
            "failed": failed,
            "failures": problems,
            "passes": len(passes),
            "pass_walls": [p.wall for p in passes],
            "pass_wall_clock": spent,
            "host_scales": scales,
            "metrics": metrics,
            "unscaled_metrics": unscaled,
            "env": environment(args, workload),
        }
    finally:
        HOST.stop()
        shutil.rmtree(work, ignore_errors=True)

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if tracer is not None:
        tracer.write(out / f"{stem}-spans.jsonl")
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
