"""Closed-loop benchmark of the access-time command line.

Run from the repository root:

    python3 perfbench/run.py --workload all_pairs --seed 1 --seconds 20 --trace 0

One client calls ``access_time.cli.main(argv)`` in this process, checks the
answer and only then sends the next request.  ``--trace 0`` times unpatched
code and reports the end-to-end metrics; ``--trace 1`` wraps the package's
layer functions, reports per-layer calls and times, replays the same requests
untraced to measure the tracing overhead, and re-measures the ROADMAP
reference points.  The last line of stdout is the result as one JSON object;
the first line holds the machine facts, and an untraced run prints its
latencies in plain seconds in between.  Workloads and metrics are described
in ``perfbench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
import tracing
import workloads
from workloads import Request

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: fresh interpreters timed per run for ``setup_s``, after one untimed warm-up
SETUP_SAMPLES = 7
SETUP_CODE = ("import time; t = time.perf_counter(); import access_time.cli as cli; "
              "cli.build_parser(); print(time.perf_counter() - t, cli.__file__)")

END_TO_END_UNITS = {
    "setup_s": "s",
    "request_ref.p50": "ref",
    "request_ref.p90": "ref",
    "throughput_per_ref": "req/ref",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

#: the traced run's exact-count probe: one matrix, 9 columns, 10 SCC checks
PROBE = Request(("bounds", "--chain", '{"family":"path","n":8}'), "bounds", "probe", 64.0)
PROBE_COUNTS = {"hitting.matrix": 1, "hitting.column": 9, "hitting.scc": 10}

#: ROADMAP baselines in seconds (default BLAS threads), re-measured in traced runs
ROADMAP_REFERENCE_S = {
    "ref.hitting_matrix.path513": 7.0,
    "ref.compute.path512": 8.3,
    "ref.bounds.cube9": 7.4,
    "ref.simulate.path10_100k": 4.6,
}


def load_package():
    """Import the package from this checkout's ``src``; exit non-zero if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import access_time.cli as cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import access_time from {SRC}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: access_time was imported from {cli.__file__}, not {SRC}")
    return cli


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _caches() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / name) for name in ("level", "type", "size"))
        if level and kind and size and kind.strip() != "Instruction":
            out[f"L{level.strip()}"] = size.strip()
    return out


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def machine_facts(args) -> dict:
    import numpy
    import scipy

    cpuinfo = _read("/proc/cpuinfo") or ""
    meminfo = _read("/proc/meminfo") or ""
    model = next((l.split(":", 1)[1].strip() for l in cpuinfo.splitlines()
                  if l.startswith("model name")), "unknown")
    mem = next((l.split(":", 1)[1].strip() for l in meminfo.splitlines()
                if l.startswith("MemTotal")), "unknown")
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": _caches(),
        "mem_total": mem,
        "blas": blas,
        "blas_threads_pinned": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "roadmap_reference_s": ROADMAP_REFERENCE_S,
    }


def measure_setup() -> float:
    """Median time of ``import access_time.cli`` + ``build_parser()`` in fresh interpreters."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for sample in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        seconds, path = proc.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up imported access_time from {path}")
        if sample:  # the first interpreter compiles bytecode and warms the file cache
            times.append(float(seconds))
    return statistics.median(times)


def _calls(cli):
    return lambda argv: cli.main(argv)  # looked up per call, so traced runs see the wrapper


def untraced_run(cli, args, reference: harness.Reference) -> tuple[dict, list]:
    setup_s = measure_setup()
    main = _calls(cli)
    harness.execute(main, PROBE)  # let lazy imports inside the package finish
    outcomes = harness.closed_loop(main, workloads.rounds(args.workload, args.seed), args.seconds,
                                   reference)
    print(json.dumps({"seconds": harness.in_seconds(outcomes)}))
    metrics = {"setup_s": setup_s, **harness.end_to_end(outcomes),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    return {k: (metrics[k], END_TO_END_UNITS[k]) for k in END_TO_END_UNITS}, outcomes


def probe_counts(cli) -> tuple[dict, harness.Outcome]:
    tracer = tracing.Tracer()
    installed = tracing.Installation(tracer)
    try:
        outcome = harness.execute(_calls(cli), PROBE)
    finally:
        installed.uninstall()
    return {name: tracer.layers[name].calls for name in PROBE_COUNTS}, outcome


def reference_points(cli, seed: int) -> tuple[dict, list[str]]:
    """The ROADMAP's four baselines, timed on unpatched code."""
    from access_time.chains import ChainSpec, build_chain
    from access_time.hitting import hitting_time_matrix

    problems = []
    chain = build_chain(ChainSpec("path", n=512))
    start = time.perf_counter()
    M = hitting_time_matrix(chain)
    seconds = {"ref.hitting_matrix.path513": time.perf_counter() - start}
    if abs(float(M.values.max()) - 512.0**2) > workloads.VALUE_REL_TOL * 512.0**2:
        problems.append("ref.hitting_matrix.path513: wrong maximum")
    path10 = '{"family":"path","n":10}'
    requests = {
        "ref.compute.path512": Request(("compute", "--chain", '{"family":"path","n":512}', "--mu",
                                        "dirac:0", "--nu", "dirac:512", "--closed-form"),
                                       "compute", "ref"),
        "ref.bounds.cube9": Request(("bounds", "--chain", '{"family":"hypercube","n":9}'), "bounds",
                                    "ref", workloads.max_hitting("hypercube", 9)),
        "ref.simulate.path10_100k": Request(
            ("simulate", "--chain", path10, "--mu", "dirac:0", "--nu", "dirac:10",
             "--samples", "100000", "--seed", str(seed)),
            "simulate", "ref", workloads.rule_mean("path", 10, None, "dirac:0", "dirac:10")),
    }
    for name, request in requests.items():
        outcome = harness.execute(_calls(cli), request)
        seconds[name] = outcome.seconds
        if outcome.wrong:
            problems.append(f"{name}: {outcome.verdict} (exit {outcome.rc})")
    metrics = {}
    for name, value in seconds.items():
        metrics[f"{name}_s"] = (value, "s")
        metrics[f"{name}.vs_roadmap"] = (value / ROADMAP_REFERENCE_S[name], "ratio")
    return metrics, problems


def layer_metrics(tracer: tracing.Tracer, outcomes: list, overhead: float) -> dict:
    layers = tracer.layers
    metrics = {}
    for name, layer in layers.items():
        metrics[f"{name}.calls"] = (layer.calls, "count")
        metrics[f"{name}.total_s"] = (layer.total_s, "s")
        metrics[f"{name}.self_s"] = (layer.self_s, "s")
    reports = layers["access.family_report"].calls
    flops = sum(2.0 / 3.0 * (n - 1) ** 3 for n in tracer.column_sizes)
    column_s = layers["hitting.column"].self_s
    steps = 0.0
    for outcome in outcomes:
        if outcome.request.check == "simulate" and outcome.verdict != workloads.FAIL:
            report = json.loads(outcome.stdout)
            steps += report["samples"] * report["mean_T"]
    kernel_s = layers["simulate.kernel"].total_s
    metrics.update({
        "hitting.column.direct_calls": (tracer.direct_columns, "count"),
        "hitting.scc.per_chain": (layers["hitting.scc"].calls / max(1, tracer.checked_chains),
                                  "calls/chain"),
        "access.rebuilds_per_pair": (layers["chains.build"].calls / reports if reports else 0.0,
                                     "ratio"),
        "hitting.lu.flops": (flops, "flop"),
        "hitting.lu.bytes": (sum(8.0 * (n - 1) ** 2 for n in tracer.column_sizes), "B"),
        "hitting.lu.gflops": (flops / column_s / 1e9 if column_s else 0.0, "Gflop/s"),
        "simulate.useful_steps": (steps, "steps"),
        "simulate.steps_per_s": (steps / kernel_s if kernel_s else 0.0, "steps/s"),
        "trace.overhead_frac": (overhead, "ratio"),
    })
    return metrics


def traced_run(cli, args, reference: harness.Reference) -> tuple[dict, list, list[str]]:
    problems = []
    counts, probe = probe_counts(cli)
    if counts != PROBE_COUNTS or probe.verdict != workloads.OK:
        problems.append(f"probe {' '.join(PROBE.argv)}: counts {counts}, verdict {probe.verdict}")
    main = _calls(cli)
    tracer = tracing.Tracer()
    installed = tracing.Installation(tracer)
    try:
        problems += [f"{name}: no binding wrapped" for name, n in installed.bindings.items() if not n]
        outcomes = harness.closed_loop(main, workloads.rounds(args.workload, args.seed),
                                       args.seconds, reference, tracer)
        tracer.start_request()
        problems += [f"{binding}: missed by the wrapper" for binding in installed.missed()]
    finally:
        installed.uninstall()
    problems += [f"{binding}: wrapper left after the traced run" for binding in tracing.wrappers_left()]
    replay = harness.run_requests(main, [o.request for o in outcomes], reference)
    problems += [f"replay {' '.join(o.request.argv)}: {o.verdict}" for o in replay if o.wrong]
    overhead = sum(harness.relative_latency(outcomes)) / sum(harness.relative_latency(replay)) - 1
    metrics = layer_metrics(tracer, outcomes, overhead)
    ref_metrics, ref_problems = reference_points(cli, args.seed)
    metrics.update(ref_metrics)
    return metrics, outcomes, problems + ref_problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in BLAS_THREAD_VARS:  # must precede the first numpy import
        os.environ[var] = str(BLAS_THREADS)
    os.chdir(ROOT)
    cli = load_package()
    Path(workloads.WORK_DIR).mkdir(exist_ok=True)
    print(json.dumps({"facts": machine_facts(args)}))

    reference = harness.Reference()
    if args.trace:
        metrics, outcomes, problems = traced_run(cli, args, reference)
    else:
        metrics, outcomes = untraced_run(cli, args, reference)
        problems = []
    problems += [f"{' '.join(o.request.argv)}: {o.verdict} (exit {o.rc}) {o.stderr[-200:]}"
                 for o in outcomes if o.wrong]
    for line in problems[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    failed = sum(o.failed for o in outcomes)
    if failed:
        print(f"perfbench: {failed} of {len(outcomes)} requests failed", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
