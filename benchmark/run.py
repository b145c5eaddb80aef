"""Benchmark harness for evseen.

    python3 benchmark/run.py --workload enhance|train|calibrate --seed N --seconds S --trace 0|1

Run from the repository root.  With ``--trace 0`` it sets the workload up
several times, runs one warm-up round where the workload needs one, then for S
seconds alternates rounds of the workload with rounds of each other workload,
and reports every end-to-end metric as a median.  With ``--trace 1`` it alternates untraced and traced
rounds of the workload alone for S seconds, reports per-layer metrics from the
traced ones, prints the tracing overhead, and writes every span to
``.bench_out/trace-<workload>-seed<N>.json``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# one BLAS thread, set before numpy loads: the process stays within nproc, and on a
# shared 2-vCPU host a second BLAS thread widened the run-to-run spread
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
os.environ["EVSEEN_THREADS"] = "1"  # prompt sweeps stay on the calling thread
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Ops  # noqa: E402

SETUPS = 7  # set-ups per run; setup_s is their median


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _warm_up(workload, ops: Ops) -> None:
    if workload.warmup:
        workload.round(ops, {})


def _setups(workload, seed: int, workdir: Path, tracer: Tracer | None = None) -> tuple[list[float], list[int]]:
    times, roots = [], []
    for _ in range(SETUPS):
        root = tracer.begin("setup") if tracer else None
        start = time.perf_counter()
        workload.setup(seed, workdir)
        times.append(time.perf_counter() - start)
        if tracer:
            tracer.end(root)
            roots.append(root)
    return times, roots


def measure(name: str, seed: int, seconds: float, workdir: Path) -> tuple[Ops, dict]:
    """Every end-to-end metric, from the workload ``name`` and the other two.

    After one round of its own, the workload's peak RSS is read: operations
    start from a collected heap, so later rounds do not raise it.  The other
    workloads are then set up and warmed up, and for ``seconds`` rounds run in
    cycles that alternate this workload with each of the others, so every
    metric's samples spread over the whole measured stretch of the run.
    """
    ops = Ops()
    workload = WORKLOADS[name]()
    setup_times, _ = _setups(workload, seed, workdir / name)
    workload.reference()
    workload.check_once(ops)
    _warm_up(workload, ops)
    samples: dict[str, list[float]] = {}
    workload.round(ops, samples)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    others = [WORKLOADS[other]() for other in WORKLOADS if other != name]
    for other in others:
        other.setup(seed, workdir / other.name)
        other.reference()
        _warm_up(other, ops)
    turns = itertools.cycle(others)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        next(turns).round(ops, samples)
        workload.round(ops, samples)
    metrics = {k: statistics.median(v) for k, v in samples.items()}
    metrics["setup_s"] = statistics.median(setup_times)
    metrics["peak_rss_mb"] = peak_rss_mb
    return ops, metrics


def measure_traced(name: str, seed: int, seconds: float, workdir: Path, trace_path: Path) -> tuple[Ops, dict]:
    tracer = Tracer()
    ops = Ops()
    workload = WORKLOADS[name]()
    tracer.install()
    _, setup_roots = _setups(workload, seed, workdir / name, tracer)
    tracer.uninstall()
    workload.reference()
    workload.check_once(ops)
    _warm_up(workload, ops)
    plain: dict[str, list[float]] = {}
    traced: dict[str, list[float]] = {}
    round_roots: list[int] = []
    start = time.perf_counter()
    while not round_roots or time.perf_counter() - start < seconds:
        workload.round(ops, plain)
        tracer.install()
        ops.tracer = tracer
        root = tracer.begin("round")
        workload.round(ops, traced)
        tracer.end(root)
        ops.tracer = None
        tracer.uninstall()
        round_roots.append(root)
    metrics = tracer.per_layer(round_roots, setup_roots)
    overhead = {}
    for key in sorted(plain):
        a, b = statistics.median(plain[key]), statistics.median(traced[key])
        overhead[key] = {"untraced": a, "traced": b, "traced_over_untraced": b / a}
        print(f"tracing overhead {key}: untraced {a:.6g}, traced {b:.6g} ({100.0 * (b / a - 1.0):+.2f}%)")
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(
        json.dumps({"workload": name, "seed": seed, "overhead": overhead, "per_layer": metrics, "spans": tracer.dump()}),
        encoding="utf-8",
    )
    print(f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}")
    return ops, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = _spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
            ops, metrics = measure_traced(args.workload, args.seed, args.seconds, workdir, trace_path)
        else:
            ops, metrics = measure(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"no value measured for {missing}")
    result = {
        "correct": not ops.problems,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
