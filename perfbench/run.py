"""Run one torusdyn benchmark workload and print its metrics.

    python3 perfbench/run.py --workload check_all --seed 1 --seconds 20 --trace 0

The program is imported from `src/` of the checkout this file sits in.
Set-up time is measured in fresh interpreters; then whole rounds of the
workload's operations run in this single process until the next round
would overrun `--seconds`.  Each operation's result is checked after it is
timed.  `wall_s` and `cpu_s` are means over the run's untraced rounds: the
shared host's CPU speed drifts over seconds, and the mean of a run's few
rounds averages that drift over the whole run where their median would
keep a single round's share of it.  With `--trace 0` the last line of
standard output is a JSON object with the end-to-end metrics; with
`--trace 1` untraced and traced rounds alternate and the JSON holds the
per-layer metrics, after a per-layer table with self times and the
tracing overhead.
"""

import os

# one BLAS thread, set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
READY = "import torusdyn.cli; print('ready', flush=True)"


def import_program():
    """Import torusdyn from this checkout's src/, or exit 2."""
    sys.path.insert(0, str(SRC))
    try:
        import torusdyn
    except ImportError as exc:
        print("cannot import torusdyn from %s: %s" % (SRC, exc), file=sys.stderr)
        sys.exit(2)
    if SRC not in Path(torusdyn.__file__).resolve().parents:
        print("torusdyn was imported from %s, not %s" % (torusdyn.__file__, SRC), file=sys.stderr)
        sys.exit(2)


def measure_setup() -> float:
    """Median time from starting a fresh interpreter to torusdyn.cli
    imported (with numpy and scipy) and ready."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", READY], stdout=subprocess.PIPE, env=env, cwd=str(ROOT), text=True
        )
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            print("set-up interpreter failed", file=sys.stderr)
            sys.exit(2)
        times.append(t1 - t0)
    return statistics.median(times)


def run_round(ops, tracer=None):
    """Run every operation once.  Returns (wall, cpu, failed) where wall and
    cpu cover only the timed calls."""
    wall = cpu = 0.0
    failed = 0
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            if op.prepare is not None:
                op.prepare()
            error = None
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as exc:  # a raising operation is a failed one
                error = exc
            wall += time.perf_counter() - t0
            cpu += time.process_time() - c0
            if error is None:
                try:
                    op.check(result)
                except Exception as exc:
                    error = exc
            if error is not None:
                failed += 1
                print("operation %s failed: %s: %s" % (op.name, type(error).__name__, error), file=sys.stderr)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return wall, cpu, failed


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    setup_s = measure_setup()
    import tracing

    workdir = ROOT / ".perfbench_work" / ("%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        ops = workloads.build(args.workload, args.seed, workdir, args.size)
        rounds = {False: [], True: []}  # traced? -> [(wall, cpu)]
        tracers = []
        attempted = failed = 0
        spent = []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(rounds[False]) > len(rounds[True])
            tracer = tracing.Tracer() if traced else None
            t0 = time.perf_counter()
            wall, cpu, bad = run_round(ops, tracer)
            spent.append(time.perf_counter() - t0)
            rounds[traced].append((wall, cpu))
            if len(spent) == 1:
                # later rounds only add allocator fragmentation, and how many
                # of them fit depends on the machine's speed
                peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if tracer is not None:
                tracers.append(tracer)
            attempted += len(ops)
            failed += bad
            elapsed = time.perf_counter() - start
            need_traced = args.trace and not rounds[True]
            if not need_traced and elapsed + statistics.median(spent) > args.seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    walls = [w for w, _ in rounds[False]]
    cpus = [c for _, c in rounds[False]]
    mean_wall = statistics.fmean(walls)
    q1, med, q3 = quartiles(walls)
    print("workload %s seed %d: %d rounds, %d operations, %d failed"
          % (args.workload, args.seed, len(spent), attempted, failed))
    print("  wall_s mean %.4f (median %.4f, q1 %.4f, q3 %.4f) over %d untraced rounds: %s"
          % (mean_wall, med, q1, q3, len(walls), " ".join("%.3f" % w for w in walls)))
    if not args.trace:
        metrics = {
            "wall_s": (mean_wall, "s"),
            "cpu_s": (statistics.fmean(cpus), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    else:
        per_round = [t.metrics() for t in tracers]
        traced_wall = statistics.fmean(w for w, _ in rounds[True])
        metrics = {
            name: (statistics.median(r[name] for r in per_round), tracing.unit(name)) for name in per_round[0]
        }
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - mean_wall, "s")
        print_layer_table(tracers[len(tracers) // 2], traced_wall, mean_wall)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def print_layer_table(tracer, traced_wall, untraced_wall):
    print("  %-12s %10s %10s %8s" % ("layer", "incl_s", "self_s", "spans"))
    for layer, (incl, own, n) in tracer.layer_table().items():
        print("  %-12s %10.4f %10.4f %8d" % (layer, incl, own, n))
    print("  traced wall %.4f s, untraced %.4f s, overhead %.4f s (%.1f%%)"
          % (traced_wall, untraced_wall, traced_wall - untraced_wall,
             100.0 * (traced_wall - untraced_wall) / untraced_wall))


if __name__ == "__main__":
    import_program()
    sys.exit(main())
