"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload pipeline_short --seed 7 --seconds 25 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/`. Human-readable lines (machine, sizes, every metric with its unit,
and with `--trace 1` the span table) come first; the last line of stdout
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
Exits 1 when a correctness check fails and 2 when the checkout has no
source to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    config = blas.get("openblas configuration", "")
    threads = next((w for w in config.split() if w.startswith("MAX_THREADS")), "")
    return f"{blas.get('name')} {blas.get('version')} {threads}".strip()


def header(args, sizes) -> list:
    import numpy as np

    pinned = ",".join(f"{v}={os.environ.get(v)}" for v in BLAS_THREAD_VARS[:3])
    return [
        f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
        f"# cpu={_cpu_model()!r} nproc={os.cpu_count()} python={platform.python_version()}"
        f" numpy={np.__version__} blas={_blas()!r} {pinned}",
        f"# sizes={sizes}",
    ]


def table(rows) -> list:
    return [f"{name:40s} {value:>14.6g} {unit}" for name, (value, unit) in rows.items()]


def span_table(run) -> list:
    """Every span of the traced units, by self time, with its share of the
    traced wall time of one unit."""
    tracer = run.tracer
    repeats = run.notes["repeats"][0]
    wall = sum(tracer.self_s.values()) / repeats
    lines = [f"{'span (per unit)':40s} {'calls':>10s} {'self_s':>10s} {'share':>7s}"]
    for name in sorted(tracer.self_s, key=tracer.self_s.get, reverse=True):
        s = tracer.self_s[name] / repeats
        lines.append(
            f"{name:40s} {tracer.calls[name] / repeats:10.0f} {s:10.4f} {s / wall:7.1%}"
        )
    for name, s in sorted(run.setup_tracer.self_s.items()):
        lines.append(f"{'set-up: ' + name:40s} {run.setup_tracer.calls[name]:10d} {s:10.4f}")
    if run.missing_hooks:
        lines.append(f"# call points not found: {', '.join(run.missing_hooks)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipeline_short", "train_long", "decode_long"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "streamctc" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness

    WORK.mkdir(exist_ok=True)
    run = harness.Run(args.workload, args.seed, args.seconds, bool(args.trace), str(WORK))
    try:
        metrics, attempted, failed = run.execute()
    finally:
        if not any(WORK.iterdir()):
            WORK.rmdir()
    correct = not run.errors

    for line in header(args, harness.FULL):
        print(line)
    print("\n".join(table(metrics)))
    print("\n".join(table(run.notes)))
    print("# unit_s=" + " ".join(f"{t:.4f}" for t in run.unit_times))
    if args.trace:
        print("\n".join(span_table(run)))
    for error in run.errors:
        print(f"CHECK FAILED: {error}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    for name in BLAS_THREAD_VARS:
        os.environ[name] = "1"
    sys.exit(main())
