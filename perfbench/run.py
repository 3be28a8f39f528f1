"""The repository benchmark: one workload, one seed, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload serve_fresh --seed 1 --seconds 25 --trace 0

``--trace 0`` sets the workload up five times (``setup_s`` is the
median), drives it for ``--seconds`` with no instrumentation loaded, then
checks every answer against an independent oracle and prints the
end-to-end metrics.  ``--trace 1`` splits ``--seconds`` into three equal
phases over the same inputs: one untraced, then two with layer wrappers
installed.  It prints the per-layer metrics of the first traced phase,
the tracing overhead against the untraced phase, and which counters
repeated exactly across the two traced phases.

Every metric is printed by name with its unit; the last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  A
full record with provenance lands in ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 5
LATE_NS = 1_000_000  # a send more than 1 ms past its due time is late
DRAIN_TIMEOUT_S = 60.0
SLICES = 5
MIN_BEYOND = 10

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "ops_per_s": "1/s",
    "cpu_ms_per_op": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Op:
    """One request, tick or propagation, with its timestamps (ns)."""

    __slots__ = ("payload", "due", "submit_start", "submit_end", "resolved",
                 "thread", "gen_thread", "response")

    def __init__(self, payload):
        self.payload = payload
        self.response = None
        self.resolved = None


class _Pending:
    """Counts outstanding responses; wakes the driver when all are in."""

    def __init__(self, count):
        self.left = count
        self.lock = threading.Lock()
        self.done = threading.Event()
        if count == 0:
            self.done.set()

    def callback(self, op):
        def resolved(response):
            op.resolved = time.perf_counter_ns()
            op.thread = threading.get_ident()
            op.response = response
            with self.lock:
                self.left -= 1
                if self.left == 0:
                    self.done.set()
        return resolved


def drive_open(workload, payloads):
    """Send each payload at its due time on a fixed-rate schedule.

    Nothing waits on a response: a stall delays later answers, never later
    sends.  (Poisson arrivals were tried and spread the latency figures
    two to three times wider from seed to seed on a 2-core box.)
    """
    ops = [Op(p) for p in payloads]
    pending = _Pending(len(ops))
    gen = threading.get_ident()
    interval = 1e9 / workload.rate
    start = time.perf_counter_ns() + 2_000_000
    for i, op in enumerate(ops):
        op.due = start + int(i * interval)
        delay = op.due - time.perf_counter_ns()
        if delay > 0:
            time.sleep(delay * 1e-9)
        op.gen_thread = gen
        op.submit_start = time.perf_counter_ns()
        future = workload.submit(op.payload)
        op.submit_end = time.perf_counter_ns()
        future.add_done_callback(pending.callback(op))
    pending.done.wait(DRAIN_TIMEOUT_S)
    return ops


def drive_closed(workload, payloads, seconds):
    """One caller: propagate, read the answer after timing, repeat."""
    ops = []
    gen = threading.get_ident()
    stop = time.perf_counter_ns() + int(seconds * 1e9)
    for payload in payloads:
        if time.perf_counter_ns() >= stop:
            break
        op = Op(payload)
        op.gen_thread = op.thread = gen
        op.due = op.submit_start = time.perf_counter_ns()
        state = workload.run(payload)
        op.submit_end = op.resolved = time.perf_counter_ns()
        op.response = workload.answer(state)
        ops.append(op)
    return ops


def cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def split_inputs(workload, seed, count):
    """The seed's warm-up payloads, and an iterator over the rest."""
    stream = iter(workload.inputs(seed, count))
    return [next(stream) for _ in range(workload.warmup)], stream


class Phase:
    """One set-up → drive → tear-down → oracle-check pass."""

    def __init__(self, workload, seed, seconds, recorder=None):
        self.workload = workload
        closed = workload.rate is None
        count = 0 if closed else max(int(workload.rate * seconds), 1)
        warm, payloads = split_inputs(workload, seed, count)
        if not closed:
            payloads = list(payloads)

        t0 = time.perf_counter()
        workload.setup(warm)
        self.setup_s = time.perf_counter() - t0
        journal = getattr(workload, "durable_root", None)
        if recorder is not None:
            from tracing import install, segment_bytes

            journal_before = segment_bytes(journal) if journal else 0
            install(recorder)
        cpu0 = cpu_seconds()
        try:
            if closed:
                self.ops = drive_closed(workload, payloads, seconds)
            else:
                self.ops = drive_open(workload, payloads)
        finally:
            if recorder is not None:
                recorder.uninstall()
        self.cpu_s = cpu_seconds() - cpu0
        self.rss_mb = peak_rss_mb()
        self.report, self.registry_stats = workload.teardown()
        self.journal_growth = 0
        if recorder is not None and journal:
            self.journal_growth = segment_bytes(journal) - journal_before
        self.failed, self.wrong = workload.check(self.ops)

    def latencies_ms(self):
        return sorted((op.resolved - op.due) * 1e-6 for op in self.ops
                      if op.resolved is not None)

    def end_to_end(self):
        """The end-to-end metrics, and how the tail was taken.

        Ops, in send order, are cut into as many equal slices (at most
        five) as keep ten samples beyond the tail percentile in each; both
        latency figures are medians of the slices' own, so a stall
        confined to one slice moves neither.
        """
        done = [op for op in self.ops if op.resolved is not None]
        pct = self.workload.tail_percentile
        n = len(done)
        slices = max(min(SLICES, int(n * (100 - pct) / 100 / MIN_BEYOND)), 1)
        p50s, tails = [], []
        for i in range(slices):
            part = sorted((op.resolved - op.due) * 1e-6 for op in
                          done[i * n // slices:(i + 1) * n // slices])
            rank = max(math.ceil(pct / 100.0 * len(part)), 1)  # nearest rank
            p50s.append(statistics.median(part))
            tails.append(part[rank - 1])
        span_ns = max(op.resolved for op in done) - min(op.due for op in done)
        return {
            "latency_p50_ms": statistics.median(p50s),
            "latency_tail_ms": statistics.median(tails),
            "ops_per_s": n / (span_ns * 1e-9),
            "cpu_ms_per_op": self.cpu_s * 1e3 / max(n, 1),
            "peak_rss_mb": self.rss_mb,
        }, {
            "tail_percentile": pct,
            "samples": n,
            "slices": slices,
            "samples_beyond_tail_per_slice": n // slices - rank,
        }

    def lateness(self):
        late = [op.submit_start - op.due for op in self.ops
                if op.submit_start is not None]
        return {
            "max_ms": max(late, default=0) * 1e-6,
            "late_share": (sum(1 for x in late if x > LATE_NS) / len(late)
                           if late else 0.0),
        }


def _git_sha():
    """HEAD of the repository rooted here, or None outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _source_digest():
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def _fs_type(path):
    """Filesystem type of the mount holding ``path`` (from /proc/mounts)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as handle:
            for line in handle:
                fields = line.split()
                mount = fields[1]
                if (path == mount or path.startswith(mount.rstrip("/") + "/")) \
                        and len(mount) > len(best):
                    best, kind = mount, fields[2]
    except OSError:
        pass
    return kind


def provenance(args, workload, mode, lateness):
    import numpy

    from workloads import WORK_DIR

    os.makedirs(WORK_DIR, exist_ok=True)
    return {
        "git_sha": _git_sha(),
        "source_digest": _source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mode": mode,
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": workload.params,
        "journal_fs": _fs_type(WORK_DIR),
        "generator_lateness": lateness,
    }


def _mode(seconds):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            full = json.load(handle)["run_seconds"]
    except (OSError, ValueError, KeyError):
        return "unknown"
    return "full" if seconds >= full else "smoke"


def run_untraced(workload, args):
    setups = []
    for _ in range(SETUPS - 1):
        t0 = time.perf_counter()
        workload.setup(split_inputs(workload, args.seed, 0)[0])
        setups.append(time.perf_counter() - t0)
        workload.teardown()
    phase = Phase(workload, args.seed, args.seconds)
    setups.append(phase.setup_s)
    metrics, tail = phase.end_to_end()
    metrics["setup_s"] = statistics.median(setups)
    extra = dict(tail)
    extra["setup_runs_s"] = setups
    extra["latencies_ms"] = phase.latencies_ms()
    return [phase], metrics, extra


def run_traced(workload, args):
    from tracing import COUNTERS, Recorder, layer_metrics

    third = args.seconds / 3.0
    base = Phase(workload, args.seed, third)
    traced = []
    for _ in range(2):
        recorder = Recorder()
        phase = Phase(workload, args.seed, third, recorder)
        reference = None
        if workload.rate is None:
            reference = _serial_reference(workload, phase)
        phase.layers = layer_metrics(
            recorder, phase.ops, phase.report, workload.first_tier,
            phase.registry_stats, reference, phase.journal_growth)
        traced.append(phase)
    metrics = dict(traced[0].layers)
    untraced_p50 = base.end_to_end()[0]["latency_p50_ms"]
    traced_p50 = traced[0].end_to_end()[0]["latency_p50_ms"]
    metrics["trace.overhead_share"] = (traced_p50 - untraced_p50) / untraced_p50
    first, second = traced[0].layers, traced[1].layers
    used = [name for name in COUNTERS if first[name] or second[name]]
    repeated = [name for name in used if first[name] == second[name]]
    metrics["trace.deterministic_counters"] = len(repeated)
    extra = {
        "deterministic_counters": repeated,
        "varying_counters": [n for n in used if n not in repeated],
        "unused_counters": [n for n in COUNTERS if n not in used],
        "untraced_p50_ms": untraced_p50,
        "traced_p50_ms": traced_p50,
    }
    return [base] + traced, metrics, extra


def _serial_reference(workload, phase):
    """Serial runs of the traced ops' evidence, for the process tier."""
    from tracing import Recorder, install

    from repro.sched.serial import SerialExecutor

    workload.setup([])
    recorder = Recorder()
    install(recorder)
    try:
        for op in phase.ops:
            workload.run(op.payload, executor=SerialExecutor())
    finally:
        recorder.uninstall()
        workload.teardown()
    return recorder.spans


def stop_helper_processes():
    """Wait for the helper ``multiprocessing`` starts for shared memory.

    The process tier's arena registers with multiprocessing's resource
    tracker, a child process that would otherwise outlive this one by a
    moment.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if callable(stop):
        stop()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"error: no program source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]()
    runner = run_traced if args.trace else run_untraced
    phases, metrics, extra = runner(workload, args)

    attempted = sum(len(p.ops) for p in phases)
    failed = sum(p.failed for p in phases)
    wrong = sum(p.wrong for p in phases)
    extra["error_rate"] = failed / attempted if attempted else 1.0
    extra["wrong_answers"] = wrong
    mode = _mode(args.seconds)
    record = {
        "provenance": provenance(args, workload, mode, phases[0].lateness()),
        "metrics": metrics,
        "extra": extra,
    }
    if args.trace:
        from tracing import unit
    else:
        unit = END_TO_END.get
    for name, value in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit(name)}")
    print(f"{'error_rate':36s} {extra['error_rate']:14.6g} share")
    if "tail_percentile" in extra:
        print(f"latency_tail_ms is p{extra['tail_percentile']}: the median "
              f"over {extra['slices']} slices of {extra['samples']} samples "
              f"({extra['samples_beyond_tail_per_slice']} beyond it per "
              f"slice)")
    if args.trace:
        print("counters repeating exactly across two traced runs: "
              + ", ".join(extra["deterministic_counters"]))
    print("provenance " + json.dumps(record["provenance"], sort_keys=True))

    stop_helper_processes()
    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    out = os.path.join(
        results, f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True, default=str)

    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value,
                           "unit": unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
