"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ldd --seed 0 --seconds 30 --trace 0

Runs from the root of a source checkout (it imports ``repro`` from
``src/``), in one process, with every thread pool pinned to one
thread.  The workload's fixed op list is issued one op at a time
(closed loop, one client) and repeated, in whole passes, at least
``MIN_PASSES`` times and while another pass fits in ``--seconds``.
Each op is checked after its timed region; an op that raises or breaks
its guarantee is counted as failed and the run goes on.

Times are host-normalised CPU seconds.  An op's raw time is the
process's CPU time (``time.process_time``), which leaves out time the
host hands the vCPU to other guests.  The host's speed still drifts:
on the shared 2-vCPU reference VM the same code ran about 1.5x slower
for minutes at a time, which moves whole runs.  So a fixed calibration
kernel (an interpreter loop and a numpy gather, no ``repro`` code) is
timed before the first op and after every op, and each op's time is
scaled by ``CAL_REF_S`` over the mean of the two calibrations around
it: the time the op would take on a host that runs the kernel in
``CAL_REF_S``.  A change to the program moves the op, not the kernel.
An op's time is then the median of its passes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
pass twice, untraced and traced (alternating which goes first), checks
that both give identical outputs, and prints the per-layer metrics of
the traced passes plus a per-layer table.  The last line of standard
output is always one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# Pinned before numpy/scipy load their thread pools.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ["REPRO_KERNEL_WORKERS"] = "1"
for _var in ("REPRO_OBS", "REPRO_ARTIFACT_STORE"):
    os.environ.pop(_var, None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: How many times set-up is repeated; ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Passes over the op list an untraced run makes at least; each op's
#: time is the median of its passes.
MIN_PASSES = 2
#: CPU time of ``_calibrate`` on the reference VM when it is quiet.  It
#: only fixes the unit: normalised times read as seconds on that host.
CAL_REF_S = 0.0115

_CAL_RNG = np.random.default_rng(0)
_CAL_DATA = _CAL_RNG.random(1 << 18)
_CAL_IDX = _CAL_RNG.integers(0, 1 << 18, 1 << 18)
_CAL_OUT = np.empty(1 << 18)


def _calibrate() -> float:
    """CPU time of a fixed kernel that exercises the interpreter and memory."""
    c0 = time.process_time()
    acc = 0
    for i in range(60000):
        acc += i * i % 7
    for _ in range(4):
        np.take(_CAL_DATA, _CAL_IDX, out=_CAL_OUT)
        np.cumsum(_CAL_OUT, out=_CAL_OUT)
    return time.process_time() - c0


@dataclass
class OpResult:
    label: str
    n: int
    wall_s: float
    cpu_s: float
    ok: bool
    ratio: float = float("nan")
    digest: str = ""
    error: str = ""
    ref_s: float = float("nan")  # cpu_s, host-normalised


def _fingerprint(seed: int) -> Dict[str, object]:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(),
        "seed": seed,
    }


def _git_commit() -> str:
    """HEAD of the checkout read from ``.git`` files, or "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _run_op(op, tracer=None, op_id: int = 0) -> OpResult:
    """Time one op, then check it outside the timed region."""
    case = op.case
    c0, t0 = time.process_time(), time.perf_counter()
    try:
        with tracer.op_span(op_id) if tracer else contextlib.nullcontext():
            out = case.solve(case.instance, op.seed)
    except Exception:  # noqa: BLE001 - a failing op is a measured outcome
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        return OpResult(case.label, case.n, wall, cpu, False, error=traceback.format_exc(limit=3))
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    try:
        with tracer.check_span(op_id) if tracer else contextlib.nullcontext():
            ratio, digest = case.check(case, out)
    except Exception:  # noqa: BLE001 - a failed check is a measured outcome
        return OpResult(case.label, case.n, wall, cpu, False, error=traceback.format_exc(limit=3))
    return OpResult(case.label, case.n, wall, cpu, True, ratio, digest)


def _normalise(cpu_s: float, cal_before: float, cal_after: float) -> float:
    return cpu_s * CAL_REF_S / ((cal_before + cal_after) / 2)


def _setup(workloads, name: str, seed: int, size: str) -> Tuple[list, float]:
    """Repeat set-up; return the last cases and the median normalised set-up time."""
    times = []
    cases = None
    for _ in range(SETUP_REPEATS):
        before = _calibrate()
        t0 = time.process_time()
        cases = workloads.setup(name, seed, size)
        workloads.warmup(name, seed)
        cpu = time.process_time() - t0
        times.append(_normalise(cpu, before, _calibrate()))
    return cases, statistics.median(times)


def _timed_pass(ops, cal: List[float]) -> List[OpResult]:
    """One pass over ``ops``, each op normalised by the calibrations around it."""
    batch = []
    cal.append(_calibrate())
    for op in ops:
        result = _run_op(op)
        cal.append(_calibrate())
        result.ref_s = _normalise(result.cpu_s, cal[-2], cal[-1])
        batch.append(result)
    return batch


def _merge_passes(passes: List[List[OpResult]]) -> Tuple[List[OpResult], int]:
    """Per op: the median of its passes, failed unless every pass agreed.

    Every pass runs the same ops with the same seeds, so the outputs
    must be identical.  Also returns how many ops passed their checks
    every time but gave different outputs.
    """
    merged = []
    mismatches = 0
    for runs in zip(*passes, strict=True):
        first = runs[0]
        ok = all(r.ok for r in runs)
        error = "".join(r.error for r in runs)
        if ok and len({r.digest for r in runs}) != 1:
            ok, error = False, "output differs between passes of the same op\n"
            mismatches += 1
        merged.append(OpResult(first.label, first.n, statistics.median(r.wall_s for r in runs),
                               statistics.median(r.cpu_s for r in runs), ok, first.ratio,
                               first.digest, error, statistics.median(r.ref_s for r in runs)))
    return merged, mismatches


def _end_to_end(ops: List[OpResult], setup_s: float) -> Dict[str, Tuple[float, str]]:
    passed = [r for r in ops if r.ok]
    return {
        "setup_s": (setup_s, "s"),
        "vertices_per_ref_s": (sum(r.n for r in passed) / sum(r.ref_s for r in ops), "1/s"),
        "solve_geomean_ref_s": (statistics.geometric_mean(r.ref_s for r in ops), "s"),
        # With no op passing (the run is then incorrect) a finite
        # sentinel keeps the output valid JSON.
        "approx_ratio_worst": (max((r.ratio for r in passed), default=1e9), "ratio"),
        "ok_frac": (len(passed) / len(ops), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _print_ops(results: List[OpResult], tag: str = "") -> None:
    for r in results:
        status = "ok" if r.ok else "FAILED"
        print(f"  op {tag}{r.label:22s} n={r.n:6d} wall={r.wall_s:8.4f}s cpu={r.cpu_s:8.4f}s "
              f"ref={r.ref_s:8.4f}s ratio={r.ratio:.4f} {status}")
        if r.error:
            print(r.error, file=sys.stderr)


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: str = "full") -> Tuple[dict, List[str]]:
    import workloads

    cases, setup_s = _setup(workloads, workload, seed, size)
    ops = workloads.op_list(workload, seed, cases, size)
    print(f"workload {workload}: {len(ops)} ops per pass, setup_s={setup_s:.4f}")
    if not trace:
        passes: List[List[OpResult]] = []
        cal: List[float] = []
        t_start = time.perf_counter()
        while True:
            batch = _timed_pass(ops, cal)
            _print_ops(batch)
            passes.append(batch)
            elapsed = time.perf_counter() - t_start
            if len(passes) >= MIN_PASSES and elapsed * (1 + 1 / len(passes)) > seconds:
                break
        merged, mismatches = _merge_passes(passes)
        print(f"calibration: median {statistics.median(cal):.5f}s over {len(cal)} samples, "
              f"CAL_REF_S={CAL_REF_S}s")
        failed = sum(not r.ok for batch in passes for r in batch) + mismatches
        metrics = _end_to_end(merged, setup_s)
        return _result(failed == 0, len(ops) * len(passes), failed, metrics), []
    return _run_traced(workload, seed, seconds, ops)


def _run_traced(workload: str, seed: int, seconds: float, ops) -> Tuple[dict, List[str]]:
    import repro.obs as obs
    from tracing import Tracer, per_pass

    tracer = Tracer()
    collector = obs.Collector()
    plain: List[OpResult] = []
    traced: List[OpResult] = []
    passes = 0
    t_start = time.perf_counter()
    while True:
        for with_trace in ((True, False) if passes % 2 else (False, True)):
            if with_trace:
                tracer.install()
                try:
                    with obs.collect(collector):
                        batch = [_run_op(op, tracer, passes * len(ops) + i)
                                 for i, op in enumerate(ops)]
                finally:
                    tracer.uninstall()
                traced.extend(batch)
                _print_ops(batch, "traced ")
            else:
                batch = [_run_op(op) for op in ops]
                plain.extend(batch)
                _print_ops(batch, "plain  ")
        passes += 1
        if (time.perf_counter() - t_start) * (1 + 1 / passes) > seconds:
            break

    identical = all(
        p.ok and t.ok and p.digest == t.digest for p, t in zip(plain, traced, strict=True)
    )
    op_wall = sum(r.wall_s for r in traced)
    uneven: List[str] = []
    metrics: Dict[str, Tuple[Optional[float], str]] = dict(tracer.layer_metrics(passes, uneven))
    counters = collector.counter_table()
    gauges = collector.gauge_table()

    def count(name: str, total: int) -> Tuple[int, str]:
        return per_pass(total, passes, name, uneven), "count"

    hits, misses = counters.get("artifacts.hit", 0), counters.get("artifacts.miss", 0)
    local_n = sorted(tracer.local_n)
    metrics.update({
        "graphs.csr.ball.words_retired": count(
            "graphs.csr.ball.words_retired", counters.get("csr.ball.words_retired", 0)),
        "graphs.csr.ball.peak_frontier_edges": (
            gauges.get("csr.ball.peak_frontier_edges", {}).get("max", 0), "count"),
        "local.gather_ball.ball_vertices": count("local.gather_ball.ball_vertices", tracer.ball_vertices),
        "ilp.instance.restrict.rows_built": count("ilp.instance.restrict.rows_built", tracer.rows_built),
        "ilp.exact.local_n.p50": (statistics.median(local_n) if local_n else 0, "count"),
        "ilp.exact.local_n.max": (max(local_n, default=0), "count"),
        "ilp.exact.cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "ilp.mwu.iterations": count("ilp.mwu.iterations", counters.get("mwu.iterations", 0)),
        "ilp.mwu.oracle_calls": count("ilp.mwu.oracle_calls", counters.get("mwu.oracle_calls", 0)),
        "core.unattributed_s": (tracer.unattributed_s / passes, "s"),
        "obs.trace_overhead_frac": (op_wall / sum(r.wall_s for r in plain) - 1.0, "ratio"),
    })
    table = tracer.table(passes, op_wall)
    out_dir = HERE / "out"
    tracer.dump(out_dir / f"spans-{workload}-seed{seed}.json")
    for name, target in sorted(tracer.absent.items()):
        print(f"ABSENT layer entry {name}: symbol {target} not found", file=sys.stderr)
    if not identical:
        print("traced outputs differ from untraced outputs", file=sys.stderr)
    for name in uneven:
        print(f"work count {name} differs between passes of the same ops", file=sys.stderr)
    attempted = len(plain) + len(traced)
    failed = sum(not r.ok for r in plain + traced)
    return _result(identical and failed == 0 and not uneven, attempted, failed, metrics), table


def _result(correct: bool, attempted: int, failed: int, metrics) -> dict:
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input sizes; 'smoke' is the tiny variant of the smoke check")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {src}: run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"unknown workload {args.workload!r}; choose from {workloads.NAMES}", file=sys.stderr)
        return 2
    print("env " + json.dumps(_fingerprint(args.seed), sort_keys=True))
    result, table = run(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    for line in table:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
