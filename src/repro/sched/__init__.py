"""Executors that run a task graph against a propagation state.

All executors produce numerically equivalent results; they differ in *how*
tasks are ordered, interleaved, and mapped onto hardware:

* :class:`SerialExecutor` — reference topological execution.
* :class:`CollaborativeExecutor` — the paper's Algorithm 2 on real Python
  threads: per-thread Allocate/Fetch/Partition/Execute modules around a
  shared global task list and per-thread local ready lists.
* :class:`WorkStealingExecutor` — per-thread deques with steal-when-empty
  (the Section 8 future-work direction).
* :class:`ProcessSharedMemoryExecutor` — Algorithm 2 across worker
  *processes* with all potential tables in ``multiprocessing``
  shared memory (zero-copy numpy views), the one executor that escapes
  the GIL and can therefore show genuine multicore wall-clock speedup.

The threaded executors are GIL-bound, so they demonstrate scheduling
correctness and load balance rather than speedup; for wall-clock speedup
use the process executor on sufficiently large tables (see
``benchmarks/bench_real_executors.py``), or the multicore simulator in
:mod:`repro.simcore`, which replays these policies (plus the paper's
level- and data-parallel baselines) over the same task graphs with a
calibrated cost model.

Fault tolerance: :class:`ResilientExecutor` wraps any executor in a
degradation cascade (processes → threads → serial) with numerical health
guards and a log-space underflow rescue; :class:`FaultPlan` injects
deterministic crashes/delays/corruption for testing the recovery paths,
and the process executor natively supports per-task deadlines, bounded
retry with backoff, and arena-preserving pool restarts after a crash.
"""

from repro.sched.stats import ExecutionStats, SpanRecord
from repro.sched.serial import SerialExecutor
from repro.sched.collaborative import CollaborativeExecutor
from repro.sched.workstealing import WorkStealingExecutor
from repro.sched.process import ProcessSharedMemoryExecutor
from repro.sched.faults import (
    FaultPlan,
    FaultRecord,
    HealthReport,
    TaskExecutionError,
    check_state_health,
    scan_tables,
)
from repro.sched.resilient import DegradationRecord, ResilientExecutor

__all__ = [
    "ExecutionStats",
    "SpanRecord",
    "SerialExecutor",
    "CollaborativeExecutor",
    "WorkStealingExecutor",
    "ProcessSharedMemoryExecutor",
    "FaultPlan",
    "FaultRecord",
    "HealthReport",
    "TaskExecutionError",
    "check_state_health",
    "scan_tables",
    "DegradationRecord",
    "ResilientExecutor",
]
