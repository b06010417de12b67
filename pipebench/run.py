"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 pipebench/run.py --workload table2 --seed 7 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` makes the same untraced run, then repeats the workload
with the layer wrappers and :class:`repro.obs.ResourceSampler` on, and
prints the per-layer metrics; the span tree (JSON and Chrome trace) and
a table of each layer's share of the timed wall land in
``pipebench/out/``. ``--small`` shrinks every workload for the tests.

The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the line before it stamps the environment (core count, versions, git
sha, seeds). The process re-executes itself once with BLAS/OpenMP pools
at one thread and a fixed ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "pipebench" / "out"

PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}

#: (name, unit) of every end-to-end metric, in BENCHMARK.json order.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("fit_s", "s"),
    ("resolve_s", "s"),
    ("op_p50_s", "s"),
    ("op_p75_s", "s"),
    ("peak_rss_mb", "MB"),
    ("f1_mean", "ratio"),
]


def pin_environment() -> None:
    """Re-execute with pinned thread pools and hash seed, unless pinned."""
    if all(os.environ.get(key) == value for key, value in PINNED_ENV.items()):
        return
    os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **PINNED_ENV})


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["table2", "scale10-pool2", "ingest-stream"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--small", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    parser.add_argument("--out-dir", type=Path, default=OUT_DIR)
    return parser.parse_args(argv)


def git_sha() -> str:
    """The checked-out commit read from ``.git``; "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args, size) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seeds": {"benchmark": args.seed, "generator": size.world_seed},
        "mode": "small" if args.small else "full",
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "env": {key: os.environ.get(key) for key in PINNED_ENV},
    }


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest finished child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def quartile3(values: list[float]) -> float:
    return statistics.quantiles(values, n=4)[2]


def end_to_end_values(outcome, seconds) -> dict[str, float]:
    """Every end-to-end time of ``outcome``, an interval's length taken by
    ``seconds(start, end)`` (:meth:`HostClock.seconds`, or raw)."""

    def median(intervals) -> float:
        return statistics.median(seconds(*interval) for interval in intervals)

    ops = [seconds(*op.window) for op in outcome.ops]
    return {
        "setup_s": median(outcome.setup),
        "wall_s": median(outcome.passes),
        "fit_s": median(outcome.fit),
        "resolve_s": median(outcome.resolve),
        "op_p50_s": statistics.median(ops),
        "op_p75_s": quartile3(ops),
    }


def end_to_end_metrics(outcome, clock, peak_mb: float) -> dict:
    values = end_to_end_values(outcome, clock.seconds)
    values["peak_rss_mb"] = peak_mb
    values["f1_mean"] = statistics.fmean(outcome.f1.values()) if outcome.f1 else 0.0
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"pipebench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # Imports (numpy, scipy, the whole program) happen here, before any
    # workload timer starts.
    from pipebench import ledger, workloads
    from pipebench.hostclock import HostClock

    mode = "small" if args.small else "full"
    size = workloads.SIZES[args.workload][mode]
    run = workloads.WORKLOADS[args.workload]

    with HostClock() as clock:
        outcome = run(args.seed, args.seconds, size)
        outcomes = [outcome]
        if args.trace:
            traced, metrics = ledger.traced_run(args, run, size, outcome, clock)
            outcomes.append(traced)
        else:
            metrics = end_to_end_metrics(outcome, clock, peak_rss_mb())

    attempted = sum(len(o.ops) for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = [p for o in outcomes for p in o.problems]
    problems += [op.error for o in outcomes for op in o.ops if op.error]
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    info = stamp(args, size)
    info["fail_frac"] = failed / attempted if attempted else 0.0
    info["raw_s"] = end_to_end_values(outcome, lambda start, end: end - start)
    info["host_factor"] = {
        "timed": statistics.median(clock.factor(*i) for i in outcome.passes),
        "samples": len(clock.samples),
    }
    args.out_dir.mkdir(parents=True, exist_ok=True)
    (args.out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.result.json").write_text(
        json.dumps({"stamp": info, "sizes": outcome.info, "passes": len(outcome.passes),
                    "problems": problems, **result}, indent=2) + "\n"
    )
    for problem in problems:
        print(f"pipebench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({"stamp": info, "sizes": outcome.info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    pin_environment()
    sys.exit(main())
