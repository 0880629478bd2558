"""Print every benchmark metric, per workload, from one command.

    python3 perfbench/report.py [--seed 0] [--seconds 20] [--workload ldd ...]

For each workload this runs ``run.py`` twice, each in its own process:
untraced for the end-to-end metrics, then traced for the per-layer
metrics.  It prints one end-to-end table (every metric by name and
unit, one column per workload, with the op count) and then, per
workload, the traced per-layer table: each wrapped entry point's calls,
self time and share of op wall time, with the unattributed residual as
its own row.  Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> List[str]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload}: run.py exited with {out.returncode}")
    return out.stdout.strip().splitlines()


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workload", nargs="*", choices=names, default=names)
    args = parser.parse_args(argv)

    plain, traced = {}, {}
    for workload in args.workload:
        plain[workload] = _run(workload, args.seed, args.seconds, 0)
        traced[workload] = _run(workload, args.seed, args.seconds, 1)

    print(f"end-to-end metrics (seed {args.seed}, untraced)")
    width = 14
    print(f"{'metric':24s} {'unit':8s}" + "".join(f"{w:>{width}s}" for w in args.workload))
    results = {w: json.loads(lines[-1]) for w, lines in plain.items()}
    for metric in spec["end_to_end"]:
        cells = "".join(
            f"{results[w]['metrics'][metric['name']]['value']:>{width}.4g}" for w in args.workload
        )
        print(f"{metric['name']:24s} {metric['unit']:8s}{cells}")
    print(f"{'ops attempted':24s} {'count':8s}"
          + "".join(f"{results[w]['attempted']:>{width}d}" for w in args.workload))
    print(f"{'ops failed':24s} {'count':8s}"
          + "".join(f"{results[w]['failed']:>{width}d}" for w in args.workload))
    print(f"{'correct':24s} {'':8s}"
          + "".join(f"{str(results[w]['correct']):>{width}s}" for w in args.workload))

    for workload, lines in traced.items():
        result = json.loads(lines[-1])
        print(f"\nper-layer, {workload} (traced; correct={result['correct']}, "
              f"trace overhead {result['metrics']['obs.trace_overhead_frac']['value']:+.1%})")
        start = next(i for i, line in enumerate(lines) if line.startswith("entry "))
        for line in lines[start:-1]:
            print(line)
        for metric in spec["per_layer"]:
            name = metric["name"]
            if name.endswith((".calls", ".self_s")):
                continue
            entry = result["metrics"][name]
            print(f"  {name:46s} {entry['value']!s:>14} {entry['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
