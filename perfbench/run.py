"""Repository benchmark: crawl_bulk, crawl_deep and curate, closed loop.

    python3 perfbench/run.py --workload crawl_bulk --seed 1 --seconds 12 --trace 0

One client runs one iteration at a time against a local Ray cluster of
``nproc`` CPUs, from the root of a source checkout. Set-up (Ray start,
seeded inputs and their reference, one untimed warm-up iteration) is
timed as ``setup_s``; then iterations run until ``--seconds`` have
passed, each in a fresh run directory and each checked against the
reference. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json (medians
over iterations). ``--trace 1`` alternates untraced and traced
iterations and reports the per-layer metrics, ``trace_overhead_s``
(traced minus untraced median ``job_s``) and the host's noise; the
spans are written to ``.perfbench/traces/``. README.md in this
directory says what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE = "vat_abcd_crawler_ray"

ITERATION_TIMEOUT_S = 60.0
PROCESS_DEADLINE_S = 170.0  # the whole run must end within 180 s
RAY_OBJECT_STORE_BYTES = 512 * 1024 * 1024


class IterationTimeout(Exception):
    pass


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise ``IterationTimeout`` in the main thread after ``seconds``."""

    def on_alarm(_signum, _frame):
        raise IterationTimeout(f"iteration exceeded {seconds:.0f} s")

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def nproc() -> int:
    """CPUs as ``nproc`` counts them: the affinity set, capped by
    ``OMP_NUM_THREADS`` when that is set."""
    n = len(os.sched_getaffinity(0))
    omp = os.environ.get("OMP_NUM_THREADS", "")
    return min(n, int(omp)) if omp.isdigit() and int(omp) > 0 else n


def cpu_ticks() -> list[int]:
    with open("/proc/stat") as fh:
        return [int(v) for v in fh.readline().split()[1:]]


def steal_pct(before: list[int], after: list[int]) -> float:
    delta = [b - a for a, b in zip(before, after)]
    return 100.0 * delta[7] / max(sum(delta), 1)  # field 8 of "cpu" is steal


def loadavg() -> float:
    with open("/proc/loadavg") as fh:
        return float(fh.read().split()[0])


def child_pids() -> list[int]:
    me, out = os.getpid(), []
    for d in os.listdir("/proc"):
        if d.isdigit():
            with contextlib.suppress(OSError):
                with open(f"/proc/{d}/stat") as fh:
                    if int(fh.read().rsplit(")", 1)[1].split()[1]) == me:
                        out.append(int(d))
    return out


def processes_named(prefix: str) -> int:
    n = 0
    for d in os.listdir("/proc"):
        if d.isdigit():
            with contextlib.suppress(OSError):
                with open(f"/proc/{d}/cmdline", "rb") as fh:
                    n += fh.read().startswith(prefix.encode())
    return n


def settle(workload, timeout: float = 5.0) -> None:
    """Between iterations: collect garbage and let the actors the last
    iteration dropped finish exiting, so their teardown is not timed
    as part of the next iteration."""
    gc.collect()
    end = time.monotonic() + timeout
    while any(map(processes_named, workload.transient_actors)) and time.monotonic() < end:
        time.sleep(0.05)


def wait_children(timeout: float = 20.0) -> None:
    """Wait until the processes this one started (Ray's) have exited."""
    end = time.monotonic() + timeout
    while child_pids() and time.monotonic() < end:
        with contextlib.suppress(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        time.sleep(0.1)


def use_checkout() -> None:
    """Import the package from this checkout, in the driver (sys.path)
    and in Ray's workers, which start from a fresh interpreter
    (PYTHONPATH)."""
    sys.path[:0] = [ROOT, HERE]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )


def ray_temp_dir(work: str) -> str:
    """Ray's session dir inside the checkout when its socket paths fit
    the 107-byte AF_UNIX limit (Ray appends about 64 bytes), else a
    fresh system temp dir."""
    d = os.path.join(work, f"ray-{os.getpid()}")
    if len(d) <= 40:
        return d
    import tempfile

    return tempfile.mkdtemp(prefix="pb-ray-")


@contextlib.contextmanager
def ray_session(work: str, ncpu: int):
    """A local Ray cluster of ``ncpu`` CPUs; yields its start time in
    seconds. On exit the cluster is stopped, its processes waited for
    and its session dir removed."""
    import ray
    from ray.data import DataContext

    temp_dir = ray_temp_dir(work)
    try:
        t0 = time.perf_counter()
        ray.init(
            address="local",
            num_cpus=ncpu,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            object_store_memory=RAY_OBJECT_STORE_BYTES,
            _temp_dir=temp_dir,
        )
        init_s = time.perf_counter() - t0
        ctx = DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.execution_options.verbose_progress = False
        yield init_s
    finally:
        ray.shutdown()
        wait_children()
        shutil.rmtree(temp_dir, ignore_errors=True)


def run_iteration(workload, run_dir: str, tracer=None):
    """One checked iteration: (sample or None, failure text, timed out)."""
    try:
        with time_limit(ITERATION_TIMEOUT_S):
            sample = workload.iterate(run_dir, tracer)
    except IterationTimeout as exc:
        return None, str(exc), True
    except Exception:
        return None, traceback.format_exc(), False
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        settle(workload)
    return sample, "; ".join(sample.problems), False


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, PACKAGE, "__init__.py")):
        print(f"perfbench: no {PACKAGE} package under {ROOT}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    watchdog = threading.Timer(PROCESS_DEADLINE_S, os._exit, args=(3,))
    watchdog.daemon = True
    watchdog.start()

    use_checkout()
    import workloads
    from spans import Tracer

    if not os.path.abspath(workloads.cli.__file__).startswith(ROOT + os.sep):
        print(f"perfbench: {PACKAGE} was imported from outside {ROOT}", file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench")
    scratch = os.path.join(work, f"run-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    ncpu, load0, ticks0 = nproc(), loadavg(), cpu_ticks()
    workload = workloads.make(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    samples: dict[bool, list] = {False: [], True: []}  # traced? -> samples
    failures: list[str] = []
    attempted = 0

    def attempt(traced: bool):
        nonlocal attempted
        attempted += 1
        if tracer is not None:
            tracer.iteration = attempted
        sample, problem, timed_out = run_iteration(
            workload, os.path.join(scratch, f"iter-{attempted}"),
            tracer if traced else None,
        )
        if problem:
            failures.append(problem)
            print(f"perfbench: iteration {attempted} failed: {problem}", file=sys.stderr)
        return sample, timed_out

    try:
        # stdout carries the result only
        with contextlib.redirect_stdout(sys.stderr), ray_session(work, ncpu) as ray_init_s:
            t0 = time.perf_counter()
            workload.prepare(os.path.join(scratch, "inputs"))
            prepare_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            attempt(traced=False)  # warm-up: untimed, but checked
            warmup_s = time.perf_counter() - t0
            setup_s = ray_init_s + prepare_s + warmup_s

            deadline = time.perf_counter() + args.seconds
            traced = False
            while True:
                sample, timed_out = attempt(traced)
                if sample is not None:
                    samples[traced].append(sample)
                if timed_out:
                    break  # the cluster may be wedged; report what we have
                if time.perf_counter() >= deadline and (not args.trace or samples[True]):
                    break
                traced = bool(args.trace) and not traced
            micro = workload.microbench() if args.trace else {}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    host = {
        "host.nproc": ncpu,
        "host.loadavg_start": load0,
        "host.steal_pct": steal_pct(ticks0, cpu_ticks()),
    }
    untraced = samples[False]
    values = {
        "job_s": median(s.job_s for s in untraced),
        "items_per_s": median(s.items / s.job_s for s in untraced),
        "first_commit_s": median(s.first_commit_s for s in untraced),
        "driver_peak_rss_mb": median(s.rss_mb for s in untraced),
        "setup_s": setup_s,
    }
    if args.trace:
        traced_samples = samples[True]
        values = {"ray.init_s": ray_init_s, "ray.warmup_s": warmup_s, **host, **micro}
        names = {k for s in traced_samples for k in s.layers}
        for k in names:
            values[k] = median(s.layers.get(k, 0.0) for s in traced_samples)
        values["trace_overhead_s"] = median(s.job_s for s in traced_samples) - median(
            s.job_s for s in untraced
        )
        os.makedirs(os.path.join(work, "traces"), exist_ok=True)
        tracer.dump(os.path.join(work, "traces", f"{args.workload}-seed{args.seed}.json"))

    failed = len(failures)
    summary = {
        "workload": args.workload,
        "iterations": attempted,
        "failed_frac": failed / attempted,
        "setup_parts_s": {"ray_init": ray_init_s, "prepare": prepare_s, "warmup": warmup_s},
        "job_s_samples": [s.job_s for s in untraced],
        **host,
    }
    print("perfbench:", json.dumps(summary, sort_keys=True))
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in wanted
    }
    print(json.dumps({
        "correct": failed == 0 and bool(untraced),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


if __name__ == "__main__":
    sys.exit(main())
