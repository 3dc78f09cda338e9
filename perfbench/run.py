"""Benchmark of the fairvae reproduction.

One run, in a fresh process, of one workload:

    python3 perfbench/run.py --workload train_fairvae_dnn_wide --seed 1 \
        --seconds 40 --trace 0

prints the environment, one line per metric, and as its last line a JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``. ``--workload all`` runs every workload, each in its
own process; ``--self-test`` runs every workload at tiny sizes and shows
that each correctness check rejects a corrupted output. See README.md.
"""

import os
import sys
import time

START = time.perf_counter()
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "BLIS_NUM_THREADS")
for _var in THREAD_VARS:  # before numpy loads its BLAS
    os.environ[_var] = "1"
os.environ.pop("FAIRVAE_OUTPUT_ROOT", None)

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_HELPERS = 2  # extra fresh processes that only set up, for the median

END_TO_END = {"setup_s": "s", "run_s": "s", "rows_per_s": "rows/s",
              "eval_s": "s", "peak_rss_mb": "MB"}


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0], "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "nproc": os.cpu_count(), "loadavg_at_start": list(os.getloadavg()),
    }


def run_workload(name, seed, seconds, trace, size="full"):
    """Set up, run whole rounds for ``seconds`` and check each; returns
    (result, info, workload, tracer) with the workload's outputs on disk.

    ``setup_s`` is the median over this process and ``SETUP_HELPERS`` fresh
    ones of the seconds from the process's first line to a loaded dataset."""
    import layertrace
    import workloads
    from oracle import CheckFailed

    import_s = time.perf_counter() - START
    workload = workloads.WORKLOADS[name](size, seed, OUT)  # writes missing inputs
    correct, attempted, failed = True, 0, 0
    with layertrace.Tracer(full=bool(trace)) as tracer:
        t0 = time.perf_counter()
        try:
            workload.setup()
        except CheckFailed as exc:
            print(f"CHECK FAILED in set-up: {exc}", file=sys.stderr)
            correct = False
        setup = [import_s + time.perf_counter() - t0]
        if size == "full":
            setup += [_setup_helper(name, seed) for _ in range(SETUP_HELPERS)]
        rounds = []
        while True:
            index = len(rounds)
            tracer.where = ("round", index)
            t0 = time.perf_counter()
            result = workload.run_round(tracer, index)
            rounds.append((time.perf_counter() - t0, result))
            attempted += result.attempted
            failed += result.failed
            try:
                workload.check_round(tracer, index)
            except CheckFailed as exc:
                print(f"CHECK FAILED in round {index}: {exc}", file=sys.stderr)
                correct = False
            timed = sum(t for t, _ in rounds)
            if not correct or timed + statistics.median(t for t, _ in rounds) > seconds:
                break
    if trace:
        metrics = tracer.layer_metrics(len(rounds))
        units = layertrace.layer_metric_units()
        tracer.write_spans(os.path.join(OUT, f"spans-{name}-s{seed}.jsonl"))
    else:
        med = lambda values: statistics.median(list(values))
        metrics = {
            "setup_s": med(setup),
            "run_s": med(t for t, _ in rounds),
            "rows_per_s": med(r.rows / r.rows_seconds if r.rows_seconds else 0.0
                              for _, r in rounds),
            "eval_s": med(r.eval_seconds for _, r in rounds),
            "peak_rss_mb": layertrace.max_rss_mb(),
        }
        units = END_TO_END
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    info = {"workload": name, "seed": seed, "rounds": len(rounds),
            "round_s": [t for t, _ in rounds], "setup_s": setup,
            "train_s": [r.rows_seconds for _, r in rounds],
            "eval_s": [r.eval_seconds for _, r in rounds],
            "import_s": import_s, "test_metrics": workload.notes}
    return result, info, workload, tracer


def _setup_helper(name, seed) -> float:
    """Seconds from start to ready of a fresh process that only sets up."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, cwd=ROOT, check=True)
    return float(proc.stdout.split()[-1])


def setup_only(name, seed) -> int:
    import workloads
    import_s = time.perf_counter() - START
    workload = workloads.WORKLOADS[name]("full", seed, OUT)
    t0 = time.perf_counter()
    workload.setup()
    print(import_s + time.perf_counter() - t0)
    return 0


def run_all(args) -> int:
    import workloads
    status = 0
    summary = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        summary[name] = result
        print(f"{name}: correct={result['correct']} attempted={result['attempted']}"
              f" failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:40s} {entry['value']:14.6g} {entry['unit']}")
        if not result["correct"] or result["failed"]:
            status = 1
    print(json.dumps(summary))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)  # one set-up, for the median
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "fairvae", "__init__.py")):
        print(f"error: no fairvae sources under {os.path.join(ROOT, 'src')}; run "
              "the benchmark from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    os.makedirs(OUT, exist_ok=True)
    if args.self_test:
        import selftest
        return selftest.main(run_workload)
    if args.workload == "all":
        return run_all(args)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)} or all")
    if args.setup_only:
        return setup_only(args.workload, args.seed)
    print(json.dumps({"environment": environment()}))
    result, info, workload, _ = run_workload(args.workload, args.seed,
                                             args.seconds, args.trace)
    workload.close()
    print(json.dumps(info))
    for metric, entry in result["metrics"].items():
        print(f"{metric} {entry['value']!r} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
