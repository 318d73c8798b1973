"""Benchmark of the ramk retrieval pipeline: build, search and search-sp.

Run from the root of a checkout::

    python3 perfbench/run.py --workload search --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                      # every workload, each in its own process

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` wraps the library's layer functions in span recorders
and prints the per-layer table instead, with the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
(environment, sha256 of the index file and of the rankings, failures,
per-layer breakdown) goes to ``.bench_out/``, spans of a traced run to
``.bench_out/*.spans.jsonl``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools are sized when numpy loads: pin them first.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("build", "search", "search-sp")
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"

# End-to-end metrics (name -> unit), reported by every workload.  Timings
# are taken at their slow end (p90 of durations, p10 of rates): the shared
# host flips between a fast and a slower speed mode for seconds to tens of
# seconds, a median moves with the share of the run spent in each mode, and
# the slow end, which every run visits, stays put (see README).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
    "train_s_p90": "s",
    "build_images_per_s_p10": "images/s",
    "index_bytes_per_image": "B",
    "index_load_ms_p90": "ms",
    "query_ms_p90": "ms",
    "map_medium": "mAP",
    "map_hard": "mAP",
}
# Printed and recorded, but not in the result line: the medians, and the
# query p99, which follows the host's rarer, slowest episodes.
RECORDED_ONLY = {
    "train_s_p50": "s",
    "build_images_per_s_p50": "images/s",
    "index_load_ms_p50": "ms",
    "query_ms_p50": "ms",
    "query_ms_p99": "ms",
}


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "tiny"),
                        help="corpus sizes; tiny is for the benchmark's own smoke test")
    return parser.parse_args(argv)


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "seed": seed,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _run_one(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from workloads import run_workload

    logging.basicConfig(level=logging.ERROR)  # the library's progress logs would swamp stderr

    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass  # another run is still using it
    run = out["run"]
    metrics = dict(out["metrics"])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["success_rate"] = (run.attempted - len(run.failures)) / max(run.attempted, 1)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "environment": _environment(args.seed),
        "attempted": run.attempted,
        "failures": run.failures,
        "sha256": run.sha256,
        "index_bytes_per_image": run.bytes_per_image,
        "sample_counts": {name: len(values) for name, values in run.samples.items()},
        "samples": run.samples,
        "end_to_end": {
            name: {"value": metrics[name], "unit": unit} for name, unit in {**END_TO_END, **RECORDED_ONLY}.items()
        },
    }
    for failure in run.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, digest in sorted(run.sha256.items()):
        print(f"sha256 {name} {digest}")

    if args.trace:
        layers, overhead = out["layers"], out["overhead"]
        record.update(per_layer=layers, tracing_overhead=overhead, missing_wrappers=run.tracer.missing)
        result_metrics = _print_layers(layers, overhead, run.tracer.missing)
        run.tracer.write(OUT_DIR / f"{stem}.spans.jsonl")
    else:
        print(f"{'metric':<24}{'value':>16}  unit   (n = samples)")
        for name, unit in {**END_TO_END, **RECORDED_ONLY}.items():
            n = record["sample_counts"].get(_sample_name(name), "")
            print(f"{name:<24}{metrics[name]:>16.6g}  {unit:<9}{n}")
        result_metrics = {name: record["end_to_end"][name] for name in END_TO_END}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": result_metrics,
    }
    print(json.dumps(result))
    return 0


def _sample_name(metric: str) -> str:
    return re.sub(r"_p[0-9]+$", "", metric)


def _print_layers(layers: dict, overhead: dict, missing: list[str]) -> dict:
    print(f"{'layer metric':<34}{'value':>13}  {'unit':<6}{'base':>6}  per unit of each phase  ->  moves")
    for name, row in layers.items():
        phases = " ".join(f"{p}={v:.4g}" for p, v in sorted(row.get("per_phase", {}).items()) if v)
        base = row.get("base", "")
        print(f"{name:<34}{row['value']:>13.6g}  {row['unit']:<6}{base:>6}  {phases or '-'}  ->  {row['moves']}")
    pct = 100.0 * (overhead["traced_op_ms_p50"] / overhead["untraced_op_ms_p50"] - 1.0)
    print(
        f"tracing overhead: {pct:+.2f}% (median op {overhead['traced_op_ms_p50']:.4g} ms traced over "
        f"{overhead['traced_ops']} ops vs {overhead['untraced_op_ms_p50']:.4g} ms untraced over "
        f"{overhead['untraced_ops']} ops)"
    )
    for target in missing:
        print(f"missing wrapper target: {target}")
    metrics = {name: {"value": row["value"], "unit": row["unit"]} for name, row in layers.items()}
    metrics["trace.overhead_pct"] = {"value": pct, "unit": "%"}
    metrics["trace.missing_wrappers"] = {"value": len(missing), "unit": "count"}
    return metrics


def _run_all(args: argparse.Namespace) -> int:
    """Each workload in its own process, so peak_rss_mb is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "ramk" / "__init__.py").is_file():
        print(f"error: no ramk sources under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
