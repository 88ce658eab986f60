"""hygraph benchmark: one workload per process, one caller in a closed loop.

Run from the repository root::

    python3 perfbench/run.py --workload train-large --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --tiny --seconds 0 --trace 1

The program under test is imported from ``src/`` of the same checkout.  A
run writes its seeded inputs, times ``setup`` (loading or generating the
graphs) three times, then one warm-up call of each operation; ``setup_s`` is
the median setup plus the warm-up.  It then calls the workload's operations
one after another, each starting when the previous one returns, in whole
passes over each kind's (train, sample, construct) operations until every
kind has had its share of ``--seconds`` and one pass at least.  Each kind's
figure pools all calls of each of its operations.  Every output is
checked; an operation that raises or fails a check counts as failed.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs one untraced pass for the reference outputs, then calls every
operation once untraced and once with the tracer installed, back to back,
and prints the per-layer metrics of the traced calls and how much tracing
slowed them.  The last line of standard output is the JSON result; the
lines before it record the environment and a per-operation summary.
"""

import argparse
import contextlib
import ctypes
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("suite-small", "train-large", "sample-large", "construct-hyper")
SETUP_REPEATS = 3
KINDS = ("train", "sample", "construct")
WORK = {"train": "epochs", "sample": "draws", "construct": "draws"}


def limit_blas_threads() -> int:
    """Run BLAS and OpenMP on one thread, below ``nproc``; return ``nproc``.

    The single caller keeps one core busy; extra BLAS threads only contend
    with it for the other cores, and they widened the run-to-run spread.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def import_program() -> None:
    """Import hygraph from this checkout's ``src``, or exit with an error."""
    src = os.path.join(ROOT, "src")
    sys.path[:0] = [src, HERE]
    try:
        import hygraph
    except ImportError as e:
        sys.exit(f"perfbench: cannot import hygraph from {src}: {e}")
    if not os.path.abspath(hygraph.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: hygraph resolved to {hygraph.__file__}, not {src}")


def blas_threads() -> int | None:
    """Ask the loaded OpenBLAS how many threads it uses, if it says."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args, nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "tiny": args.tiny, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "nproc": nproc,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
    }


class Record:
    """Timings and check results of the calls of one measurement."""

    def __init__(self, reference: dict | None = None):
        self.times: dict[str, list[float]] = {}  # seconds of each successful call
        self.first = reference if reference is not None else {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, what: str, reasons: list[str]) -> None:
        self.failed += 1
        self.failures += [f"{what}: {r}" for r in reasons]

    def run(self, op):
        """Call ``op`` once; return its seconds, or None if it failed."""
        from workloads import CaptureDraws

        first = op.name not in self.first
        self.attempted += 1
        capture = CaptureDraws() if first else contextlib.nullcontext()
        gc.collect()  # each call starts from the same collector state
        try:
            with capture:
                start = time.perf_counter()
                result = op.call()
                elapsed = time.perf_counter() - start
        except Exception:  # an operation that raises is counted, not fatal
            trace = traceback.format_exc()
            print(trace, file=sys.stderr)
            self.fail(op.name, [trace.strip().splitlines()[-1]])
            return None
        reasons = list(result.failures)
        if first:
            self.first[op.name] = result
            if op.verify is not None:
                reasons += op.verify(result, capture.draws)
        elif result.digest != self.first[op.name].digest:
            reasons.append("output bytes differ from the first call")
        if reasons:
            self.fail(op.name, reasons)
            return None
        self.times.setdefault(op.name, []).append(elapsed)
        return elapsed


def measure(workload, seconds: float, record: Record) -> None:
    """Whole passes over each kind's operations until each kind has had its
    share of ``seconds``, and one pass at least.

    The next call always goes to the kind that is furthest behind its share,
    so every kind is spread over the whole run.
    """
    ops = {kind: [op for op in workload.ops if op.kind == kind] for kind in KINDS}
    budget = {kind: seconds * workload.shares[kind] for kind in KINDS}
    spent = dict.fromkeys(KINDS, 0.0)
    step = dict.fromkeys(KINDS, 0)  # next operation of the kind's current pass

    def due(kind):
        return step[kind] or spent[kind] < budget[kind] or spent[kind] == 0.0

    while pending := [kind for kind in KINDS if ops[kind] and due(kind)]:
        kind = min(pending, key=lambda k: spent[k] / max(budget[k], 1e-9))
        start = time.perf_counter()
        record.run(ops[kind][step[kind]])
        spent[kind] += time.perf_counter() - start
        step[kind] = (step[kind] + 1) % len(ops[kind])


def end_to_end(workload, record: Record) -> dict[str, float]:
    """Each kind's work over the summed mean call time of its operations.

    Pooling every call of a long run averages the speed swings of a shared
    machine, where a median or a fastest call would jump between its fast and
    slow spells.
    """
    mean_s = {name: sum(t) / len(t) for name, t in record.times.items()}

    def kind_total(kind):
        done = [op for op in workload.ops if op.kind == kind and op.name in mean_s]
        work = sum(getattr(record.first[op.name], WORK[kind]) for op in done)
        return work, sum(mean_s[op.name] for op in done)

    def rate(kind):
        work, seconds = kind_total(kind)
        return work / seconds if seconds else 0.0

    accuracies = [a for op in workload.ops if op.name in record.times
                  for a in record.first[op.name].accuracies]
    return {
        "train_epochs_per_s": rate("train"),
        "sample_draws_per_s": rate("sample"),
        "construct_s": kind_total("construct")[1],
        "accuracy": sum(accuracies) / len(accuracies) if accuracies else 0.0,
    }


def trace_overhead(workload, record: Record, tracer) -> dict[str, float]:
    """Call each operation once untraced and once traced, alternating which
    goes first, and report how much slower each kind's traced calls were.

    The pairs run back to back, so both calls of a pair see the machine in
    the same state.  The traced calls are the spans ``tracer`` reports.
    """
    traced = Record(reference=record.first)
    seconds = {kind: [0.0, 0.0] for kind in KINDS}
    for i, op in enumerate(workload.ops):
        times = {}
        for on in ((False, True) if i % 2 == 0 else (True, False)):
            if on:
                tracer.install()
                try:
                    times[on] = traced.run(op)
                finally:
                    tracer.uninstall()
            else:
                times[on] = record.run(op)
        if None not in times.values():
            seconds[op.kind][0] += times[False]
            seconds[op.kind][1] += times[True]
    record.attempted += traced.attempted
    record.failed += traced.failed
    record.failures += [f"traced {f}" for f in traced.failures]
    record.times.update({f"traced {name}": t for name, t in traced.times.items()})
    metric = {"train": "train_epochs_per_s", "sample": "sample_draws_per_s",
              "construct": "construct_s"}
    return {f"trace.{metric[kind]}.overhead_frac": on / off - 1.0 if off else 0.0
            for kind, (off, on) in seconds.items()}


def run_workload(args, spec: dict) -> int:
    from tracer import Tracer
    from workloads import WORKLOADS, warm_up

    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        inputs = WORKLOADS[args.workload](args.seed, args.tiny, workdir)
        setup_times = []
        workload = None
        for _ in range(SETUP_REPEATS):
            workload = None
            gc.collect()
            start = time.perf_counter()
            workload = inputs.setup()
            setup_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        warm_up(workload)
        warm_s = time.perf_counter() - start
        # Keep the inputs out of every later collection, so that an
        # operation's collector cost depends on what it allocates itself.
        gc.collect()
        gc.freeze()

        record = Record()
        # A traced run reports no end-to-end metric: one pass gives the
        # reference outputs, and the tracing overhead is measured in pairs.
        measure(workload, 0 if args.trace else args.seconds, record)
        metrics = end_to_end(workload, record)
        if not args.trace and all(len(t) == 1 for t in record.times.values()):
            record.run(workload.ops[0])  # every run checks that a repeat gives the same bytes
        metrics["setup_s"] = median(setup_times) + warm_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        if args.trace:
            tracer = Tracer()
            overhead = trace_overhead(workload, record, tracer)
            metrics = {**tracer.layer_metrics(), **overhead}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = {m["name"] for m in wanted} ^ set(metrics)
    if missing:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")
    mses = [v for result in record.first.values() for v in result.mses]
    summary = {
        "error_rate": record.failed / record.attempted,
        "mse": sum(mses) / len(mses) if mses else None,
        "failures": record.failures[:20],
        "op_seconds": {name: [round(x, 4) for x in t] for name, t in record.times.items()},
        "setup_s_each": setup_times,
        "warm_up_s": warm_s,
    }
    print(json.dumps({"summary": summary}))
    print(json.dumps({
        "correct": record.failed == 0,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        status = max(status, subprocess.run(argv, check=False).returncode)
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-check sizes: every path runs in seconds")
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)

    nproc = limit_blas_threads()
    os.chdir(ROOT)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    import_program()
    print(json.dumps({"env": environment(args, nproc)}))
    sys.stdout.flush()
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
