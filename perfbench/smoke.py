"""Smoke check of the benchmark at tiny sizes.

    python3 perfbench/smoke.py

Runs every workload traced (``run.py --size smoke --trace 1``) twice
with the same seed and fails (exit 1, listing each problem) unless:

* each run reports ``correct`` (outputs checked, traced == untraced);
* each layer's ``.calls`` is > 0 or == 0 on each workload exactly as
  :data:`EXPECT` predicts;
* every work count (``.calls`` and the program's own counters) is the
  same in both runs;
* an entry point whose symbol is missing is reported absent, by name,
  instead of crashing the traced run or reading zero.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SEED = 0

#: Which layers (or single entry points) must run on which workload:
#: ">0" means at least one call, "==0" none.  Workloads left out are
#: not asserted.  ``decomp`` is not asserted on ``ldd``: its phase 3
#: runs only when phase 2 leaves a residual, and on these inputs it
#: usually does not.
EXPECT: Dict[str, Dict[str, str]] = {
    "graphs.csr": {"ldd": ">0"},
    "graphs.csr.all_ball_sizes": {"ldd": ">0", "ilp": "==0"},
    "local.gather": {"ldd": ">0", "ilp": ">0"},
    "decomp": {"ilp": ">0"},
    "core.carve": {"ldd": ">0", "ilp": ">0"},
    "ilp.instance": {"ilp": ">0", "ldd": "==0"},
    "ilp.exact": {"ilp": ">0", "ldd": "==0"},
    "ilp.exact.milp_solve": {"ilp": ">0"},
    "ilp.exact.max_weight_independent_set": {"ilp": ">0"},
    "ilp.mwu": {"ilp": ">0", "ldd": "==0"},
    "ilp.certificates": {"ilp": ">0", "ldd": "==0"},
}

#: Per-layer metrics that are timings or timing ratios, not counts.
TIMED_SUFFIXES = (".self_s", "unattributed_s", "trace_overhead_frac")


def _traced_run(workload: str) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "0", "--trace", "1", "--size", "smoke"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def _calls(metrics: dict, prefix: str) -> int:
    return sum(
        entry["value"] or 0
        for name, entry in metrics.items()
        if name.endswith(".calls") and (name.startswith(prefix + ".") or name == prefix + ".calls")
    )


def check_runs(workloads) -> List[str]:
    problems = []
    for workload in workloads:
        first, second = _traced_run(workload), _traced_run(workload)
        for tag, result in (("first", first), ("second", second)):
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload}: {tag} run not correct ({result['failed']} failed)")
        metrics = first["metrics"]
        for name, entry in metrics.items():
            if entry["value"] is None:
                problems.append(f"{workload}: {name} is absent")
        for layer, expected in EXPECT.items():
            rule = expected.get(workload)
            if rule is None:
                continue
            calls = _calls(metrics, layer)
            if (rule == ">0") != (calls > 0):
                problems.append(f"{workload}: {layer} has {calls} calls, expected {rule}")
        for name, entry in metrics.items():
            if name.endswith(TIMED_SUFFIXES):
                continue
            again = second["metrics"][name]["value"]
            if entry["value"] != again:
                problems.append(f"{workload}: {name} is {entry['value']} then {again}")
        print(f"{workload}: checked {len(metrics)} per-layer metrics", flush=True)
    return problems


def check_drift() -> List[str]:
    """A missing symbol is reported absent and by name, not as zero."""
    import tracing

    saved = tracing.ENTRY_POINTS
    tracing.ENTRY_POINTS = saved + (
        ("ilp.instance", "gone", "repro.ilp.instance:PackingInstance.no_such_method"),
        ("ilp.gone", "gone", "repro.no_such_module:no_such_function"),
    )
    try:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.uninstall()
        metrics = tracer.layer_metrics(1, [])
    finally:
        tracing.ENTRY_POINTS = saved
    problems = []
    for name in ("ilp.instance.gone", "ilp.gone.gone"):
        if name not in tracer.absent:
            problems.append(f"drift: {name} not reported absent")
        if metrics.get(f"{name}.calls", (0,))[0] is not None:
            problems.append(f"drift: {name}.calls reads a number instead of absent")
    return problems


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    problems = check_drift() + check_runs(workloads.NAMES)
    for line in problems:
        print("FAIL " + line)
    print("smoke check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
