"""accsim benchmark: one workload per process, or all of them.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 bench/run.py --workload all [--seed <n>] [--seconds <s>]

Run from the repository root; the program is imported from ``src/``.  With
``--trace 0`` the end-to-end metrics are measured with tracing off; with
``--trace 1`` the same workload runs traced and reports per-layer metrics,
then repeats its rounds untraced to give the tracing overhead.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench_out"
WORKLOAD_NAMES = ("onramp-sweep", "desk-train", "onramp-decide")
SETUP_REPEATS = 3
END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "vehicle_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="timed seconds (default: run_seconds of "
                        "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = json.loads(
            (ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def print_table(title: str, metrics: dict, notes=()) -> None:
    print(f"== {title}")
    for name, m in metrics.items():
        note = "  (absent)" if name in notes else ""
        print(f"  {name:36s} {m['value']:>16.6f} {m['unit']}{note}")


def run_one(args) -> int:
    # One process, one thread of Python work: no worker pool, no BLAS threads.
    os.environ["ACCSIM_WORKERS"] = "1"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import accsim
    if Path(accsim.__file__).resolve().parent != SRC / "accsim":
        print(f"error: accsim imported from {accsim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from accsim import agents, harness, rlcore, scenario, simcore
    from tracing import METRIC_UNITS, SETUP, Tracer
    from timing import summarize
    from workloads import WORKLOADS, measure
    import_s = time.perf_counter() - _START

    workload = WORKLOADS[args.workload](args.seed, OUT)
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(simcore, agents, rlcore, scenario, harness)
        tracer.phase = SETUP
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.phase = None

    m = measure(workload, seconds=args.seconds, tracer=tracer)
    errors, attempted, failed = m.errors, m.ops, m.failed
    if tracer is not None:
        tracer.uninstall()
        untraced = measure(workload, rounds=m.rounds)
        errors += untraced.errors
        attempted += untraced.ops
        failed += untraced.failed
        values, absent = tracer.layer_metrics(
            m.ops, m.timed_s, untraced.timed_s, m.vehicle_steps)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in METRIC_UNITS.items()}
        tracer.save(OUT / f"trace-{args.workload}.npz")
    else:
        absent = []
        values = {
            "ops_per_s": statistics.median(m.round_ops_per_s),
            "op_p50_ms": summarize(m.op_seconds.values)["p50"] * 1e3,
            "vehicle_steps_per_s": statistics.median(m.round_units_per_s),
            "setup_s": import_s + statistics.median(setup_s),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    errors += workload.final_checks()
    workload.close()

    ops = summarize(m.op_seconds.values)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{m.rounds} rounds, {m.ops} ops in {m.timed_s:.3f} s timed; "
          "op ms " + " ".join(f"{k}={v * 1e3:.4f}" if k != "n"
                              else f"sampled={v}" for k, v in ops.items())
          + "; round ops/s " + " ".join(
              f"{x:.4g}" for x in m.round_ops_per_s[:8]))
    for err in errors[:20]:
        print(f"CHECK FAILED: {err}")
    print_table(args.workload, metrics, absent)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced."""
    results = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"error: {name} --trace {trace} exited "
                      f"{proc.returncode}", file=sys.stderr)
                return proc.returncode
            results[f"{name}/trace{trace}"] = json.loads(
                proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{key}/{metric}": value
                    for key, r in results.items()
                    for metric, value in r["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "accsim" / "__init__.py").is_file():
        print(f"error: no accsim sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
