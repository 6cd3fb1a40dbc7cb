"""Benchmark runner for capcont: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload diamond --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all

The runner imports capcont from the checkout's ``src`` directory and calls
``capcont.cli.main(argv)`` in-process, one CLI command per op, each op
issued when the previous one returns. Set-up builds the workload's inputs
from the seed; then identical rounds of the workload's op list repeat
while another round fits in ``--seconds`` (at least one round). Every op's
report is checked; any check failure makes the exit code nonzero.

Each op's time is rescaled by the host-speed probe in ``speed.py``,
sampled around and during it. Rounds are identical, so an op's time is
then its best over the run's untraced rounds and ``wall_s`` is the best
round. The unscaled round times are printed alongside.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` untraced and traced rounds alternate, and it carries the
per-layer metrics of the traced rounds plus the tracing overhead (best
traced minus best untraced round). Lines before it show each metric with its
unit and sample count, and the machine.
"""

import os

# Pin BLAS/OpenMP to one thread before numpy is first imported: on two
# cores the default pool doubles SDP time without changing any result.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

WORKLOAD_NAMES = ("diamond", "discontinuity", "harness", "capacity")
SETUP_REPS = 3
# Untimed first op: argument parsing, LAPACK and the SDP's basis caches
# warm up on it, not on the first timed op.
WARMUP_ARGV = ("norm", "diamond", "--a", "identity:d=2", "--b", "depolarizing:d=2,p=0.1", "--json")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "certified_share": "ratio",
    "peak_rss_mb": "MB",
}

# In a fresh interpreter: the import's seconds, then the host-speed probe there.
IMPORT_PROBE = ("import time; t = time.perf_counter(); import capcont; "
                "d = time.perf_counter() - t; import speed; print(d, speed.probe_s())")


def machine_info() -> dict:
    import numpy
    import scipy

    blas = "unknown"
    try:
        dep = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def time_import() -> tuple[float, float]:
    """Raw and speed-scaled seconds for ``import capcont`` in a fresh interpreter."""
    path = [str(SRC), str(HERE), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    raw, probe = (float(x) for x in proc.stdout.split()[-2:])
    return raw, raw * speed.REF_PROBE_S / probe


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile over the closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def run_op(cli, argv) -> tuple[float, float, int, str]:
    """Run ``cli.main(argv)``, looked up per call so a traced round sees the span.

    Returns start and end times, exit code and stdout. An exception escaping
    main is what a CLI process would die of: exit 1.
    """
    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception:
            traceback.print_exc()
            code = 1
    return t0, perf_counter(), code, out.getvalue()


def parse_result(stdout: str) -> dict | None:
    try:
        return json.loads(stdout)["result"]
    except (json.JSONDecodeError, KeyError, TypeError):
        return None


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import capcont.cli

    work = WORK / f"{name}-{seed}"
    workload = workloads.WORKLOADS[name]()
    setup, setup_raw = [], []
    tracer = tracing.Tracer() if trace else None
    walls = {False: [], True: []}  # traced? -> scaled round times
    raw_walls = []  # untraced rounds, unscaled
    best = {}  # op index -> its best scaled untraced time
    attempted, failed, errors = 0, 0, []
    with speed.Probe() as probe:
        for _ in range(SETUP_REPS):
            raw_import, scaled_import = time_import()
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            probe.sample()
            t0 = perf_counter()
            ops = workload.build(work, seed)
            t1 = perf_counter()
            probe.sample()
            setup.append(scaled_import + probe.scaled(t0, t1))
            setup_raw.append(raw_import + t1 - t0)

        run_op(capcont.cli, WARMUP_ARGV)
        start = perf_counter()
        while True:
            traced = tracer is not None and len(walls[False]) > len(walls[True])
            if traced:
                tracer.install()
            try:
                probe.sample()
                outcomes = []
                for op in ops:
                    outcomes.append(run_op(capcont.cli, op.argv))
                    probe.sample()
            finally:
                if traced:
                    tracer.uninstall()
            scaled = [probe.scaled(t0, t1) for t0, t1, _, _ in outcomes]
            walls[traced].append(sum(scaled))
            if not traced:
                raw_walls.append(sum(t1 - t0 for t0, t1, _, _ in outcomes))
                for i, dt in enumerate(scaled):
                    best[i] = min(best.get(i, dt), dt)
            for op, (_, _, code, stdout) in zip(ops, outcomes):
                result = parse_result(stdout)
                attempted += 1
                failed += workloads.op_failed(code, result)
                if result is not None:
                    errors.extend(f"{' '.join(op.argv)}: {e}" for e in workload.check(op, result))
            round_s = outcomes[-1][1] - outcomes[0][0]
            if walls[tracer is not None] and perf_counter() - start + round_s > seconds:
                break

    best = list(best.values())
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": min(walls[False]),
            "op_p50_s": percentile(best, 50),
            "op_p90_s": percentile(best, 90),
            "certified_share": 1.0 - failed / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        samples = {"setup_s": len(setup), "wall_s": len(walls[False]),
                   "op_p50_s": len(best), "op_p90_s": len(best),
                   "certified_share": attempted, "peak_rss_mb": 1}
    else:
        overhead = min(walls[True]) - min(walls[False])
        metrics = tracing.layer_metrics(tracer, len(walls[True]), overhead)
        units = tracing.PER_LAYER_UNITS
        samples = {name: len(walls[True]) for name in units}
        samples["trace.overhead_s"] = len(walls[True]) + len(walls[False])
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "machine": machine_info(),
        "ops_per_round": len(ops),
        "round_s": {"untraced": walls[False], "traced": walls[True],
                    "untraced_unscaled": raw_walls},
        "setup_unscaled_s": setup_raw,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "errors": errors,
        "metrics": {k: {"value": v, "unit": units[k], "samples": samples[k]}
                    for k, v in metrics.items()},
    }


def print_report(report: dict) -> None:
    print(f"# capcont benchmark: workload {report['workload']}, seed {report['seed']}, "
          f"trace {report['trace']}, {report['ops_per_round']} ops per round")
    print(f"# machine: {json.dumps(report['machine'], sort_keys=True)}")
    print(f"# round seconds: {json.dumps(report['round_s'])}")
    print(f"# ops: attempted {report['attempted']}, failed {report['failed']}, "
          f"failed_share {report['failed_share']:.4f} "
          f"({report['failed']}/{report['attempted']})")
    for name, m in report["metrics"].items():
        print(f"# {name:32s} {m['value']:14.6f} {m['unit']:6s} samples {m['samples']}")
    for e in report["errors"]:
        print(f"# CHECK FAILED: {e}", file=sys.stderr)
    line = {
        "correct": not report["errors"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in report["metrics"].items()},
    }
    print(json.dumps(line), flush=True)


def run_all(args) -> int:
    """Each workload in its own process, so each has its own peak RSS."""
    code = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.out:
            argv += ["--out", str(Path(args.out).with_suffix("")) + f"-{name}.json"]
        code = max(code, subprocess.run(argv, timeout=600).returncode)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full report as JSON to this file")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "capcont" / "__init__.py").is_file():
        print(f"perfbench: no capcont package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print_report(report)
    return 1 if report["errors"] else 0


if __name__ == "__main__":
    sys.exit(main())
