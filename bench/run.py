"""latebench benchmark: one command, three workloads, every metric with its unit.

    python3 bench/run.py --workload query-filler30 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the benchmark imports `latebench` from the
checkout's `src/` and nothing else. `--trace 0` prints the end-to-end metrics,
`--trace 1` a separate traced run that prints the per-layer metrics and
writes its spans to `bench/out/`. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}. See README.md in
this directory for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("query-filler30", "query-filler0", "cli-roundtrip")

# One BLAS thread: the hot-path products are a few dozen rows by 128, and the
# machine is shared, so a second thread adds variance and no speed.
# LATEBENCH_THREADS is left to the program's default on purpose.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the smoke tests")
    return parser.parse_args(argv)


def _git_commit() -> str:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def provenance(args, numpy) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "latebench").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "blas_threads": BLAS_THREADS, "latebench_threads": "program default (unset)",
        "numpy": numpy.__version__, "blas": blas, "python": platform.python_version(),
        "commit": _git_commit(), "src_sha256": src.hexdigest(),
    }


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.seconds <= 0:
        sys.stderr.write("bench: --seconds must be positive\n")
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("LATEBENCH_THREADS", None)
    sys.dont_write_bytecode = True  # write nothing under src/

    src = ROOT / "src"
    if not (src / "latebench" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no latebench sources under {src}; run from a full checkout\n")
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import numpy

    import latebench
    if Path(latebench.__file__).resolve().parent != (src / "latebench").resolve():
        sys.stderr.write(f"bench: imported latebench from {latebench.__file__}, not {src}\n")
        return 2

    import cli_roundtrip
    import queries
    from harness import END_TO_END, OUT_DIR, PER_LAYER, SIZES, Clock, Tally, Tracer, median

    info = provenance(args, numpy)
    for key, value in info.items():
        print(f"info {key} {value}")
    tally, clock = Tally(), Clock()
    tracer = Tracer() if args.trace else None
    size = SIZES[args.size]
    if args.workload == "cli-roundtrip":
        values, notes = cli_roundtrip.run(size, args.seed, args.seconds, tracer, tally, clock)
    else:
        values, notes = queries.run(args.workload, size, args.seed, args.seconds, tracer, tally,
                                    clock)
    values["machine.calibration_ms"] = median(clock.calibrations) * 1e3

    if tracer is not None:
        table = PER_LAYER
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path, info)
        notes.append(f"spans {len(tracer.spans)} written to {path.relative_to(ROOT)}")
        # A layer the workload never calls did no work: 0.
        metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                   for name, unit in table.items()}
    else:
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {name: {"value": float(values[name]), "unit": unit}
                   for name, unit in END_TO_END.items()}
    notes.append(f"calibration kernel median {values['machine.calibration_ms']:.4f} ms over "
                 f"{len(clock.calibrations)} runs (reference speed: 1 ms)")
    for line in notes:
        print(line)
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']!r} {metric['unit']}")
    print(f"metric failed_frac {tally.failed / max(tally.attempted, 1)!r} fraction "
          f"({tally.failed} of {tally.attempted} operations)")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
