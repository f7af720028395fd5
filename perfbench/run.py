"""BinaryShield benchmark: run one workload, or all three, and report.

One workload::

    python3 perfbench/run.py --workload broadcast --seed 1 --seconds 24 --trace 0

prints a ``detail`` line (environment stamp and the per-request-kind
figures: answer_p50_ms, detect_p99_ms, failed_frac, ...) and then, as the
last line, the result object: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.

Every workload, each in a fresh process::

    python3 perfbench/run.py --seed 1 --seconds 24 [--trace 1]

prints each metric by name with its unit, per workload. Traced runs write
their spans to ``.perfbench_out/``; inputs live in working directories there
that are removed when each process ends.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import bootstrap

WORKLOADS = ("backfill", "broadcast", "live")
SEGMENTS = 4

# (name, unit); BENCHMARK.json lists the same names.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
)
PER_LAYER = (
    ("redaction.redact_us", "us"),
    ("redaction.detect_calls_per_redact", "calls/redact"),
    ("redaction.entities_per_prompt", "entities/prompt"),
    ("embeddings.embed_us", "us"),
    ("fingerprint.quantize_us", "us"),
    ("fingerprint.randomize_us", "us"),
    ("protocol.encode_frame_us", "us"),
    ("protocol.ingest_detection_self_us", "us"),
    ("protocol.decode_frame_us", "us"),
    ("protocol.broadcast_self_us", "us"),
    ("cli.fingerprint_self_s", "s"),
    ("kernels.scan_distances_us", "us"),
    ("kernels.scan_bytes_per_s", "B/s"),
    ("kernels.rows_to_words_ms", "ms"),
    ("store.matrix_rebuilds_per_search", "rebuilds/search"),
    ("store.search_threshold_self_us", "us"),
    ("store.matches_per_answer", "matches/answer"),
    ("store.rows_scanned_per_search", "rows/search"),
    ("store.search_topk_self_us", "us"),
    ("store.insert_us", "us"),
    ("store.load_snapshot_s", "s"),
    ("store.bytes_per_entry", "B/entry"),
    ("self.cli_us_per_op", "us/op"),
    ("self.redaction_us_per_op", "us/op"),
    ("self.embeddings_us_per_op", "us/op"),
    ("self.fingerprint_us_per_op", "us/op"),
    ("self.protocol_us_per_op", "us/op"),
    ("self.store_us_per_op", "us/op"),
    ("self.kernels_us_per_op", "us/op"),
    ("self.unattributed_us_per_op", "us/op"),
    ("trace.spans_per_op", "spans/op"),
    ("trace.overhead_frac", "ratio"),
    ("loadgen.lag_p99_ms", "ms"),
)


def environment() -> dict:
    """Stamp for every result: figures from different backends or
    machines are not comparable."""
    import importlib.util

    import numpy

    from binaryshield import kernels

    return {"backend": kernels.active_backend(),
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "machine": platform.machine()}


def run_segment(args) -> int:
    """One process's share of a run, over the inputs in ``args.segment``;
    prints its raw outcome."""
    import workloads
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    outcome = workloads.WORKLOADS[args.workload].run(
        args.seed, args.seconds, Path(args.segment), tracer=tracer)
    if tracer is not None:
        tracer.write(bootstrap.OUT_DIR / f"spans-{args.workload}-seed{args.seed}.csv")
    print(json.dumps(dataclasses.asdict(outcome)))
    return 0


def run_segments(args):
    """The window split across fresh interpreters, run one after another,
    each with its own inputs and set-up. This process writes each one's
    inputs before starting it, so the memory that generating them takes is
    not in the measured process's peak. A process's speed on a shared host
    depends on where it lands (core, page placement) and holds for its
    lifetime, so pooling SEGMENTS processes per untraced run keeps that draw
    from deciding the whole run. A traced run is one process."""
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    n = 1 if args.trace else SEGMENTS
    outcomes = []
    for i in range(n):
        seed = args.seed if args.trace else args.seed * SEGMENTS + i
        workdir = bootstrap.OUT_DIR / f"work-{os.getpid()}-{i}"
        workdir.mkdir(parents=True)
        try:
            workload.prepare(seed, args.seconds / n, workdir)
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                   "--seed", str(seed), "--seconds", str(args.seconds / n),
                   "--trace", str(args.trace), "--segment", str(workdir)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"segment {i} exited with code {proc.returncode}")
        outcomes.append(workloads.Outcome(**json.loads(proc.stdout.splitlines()[-1])))
    return workloads.merge(outcomes)


def run_one(args) -> int:
    bootstrap.prepare()
    if args.segment:
        return run_segment(args)
    import workloads

    outcome = run_segments(args)
    metrics, figures = workloads.report(args.workload, outcome)
    detail = dict(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=environment(), attempted=outcome.attempted,
                  failed=outcome.failed, metrics=metrics, **figures)
    if outcome.per_layer is not None:
        detail["per_layer"] = outcome.per_layer
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (bootstrap.OUT_DIR / f"detail-{tag}.json").write_text(
        json.dumps(detail, indent=1, sort_keys=True) + "\n", "utf-8")
    values = outcome.per_layer if args.trace else metrics
    table = PER_LAYER if args.trace else END_TO_END
    result = {"correct": outcome.failed == 0 and outcome.attempted > 0,
              "attempted": outcome.attempted, "failed": outcome.failed,
              "metrics": {name: {"value": float(values.get(name, 0.0)), "unit": unit}
                          for name, unit in table}}
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


# Figures the all-workloads summary prints, per workload, by request kind.
SUMMARY = {
    "backfill": (("setup_s", "s"), ("throughput_ops_s", "prompts/s"),
                 ("prompt_p50_ms", "ms"), ("prompt_p90_ms", "ms"), ("call_p50_ms", "ms"),
                 ("peak_rss_mb", "MiB"), ("failed_frac", "ratio")),
    "broadcast": (("setup_s", "s"), ("throughput_ops_s", "answers/s"),
                  ("answer_p50_ms", "ms"), ("answer_p90_ms", "ms"),
                  ("answer_p99_ms", "ms"), ("peak_rss_mb", "MiB"), ("failed_frac", "ratio")),
    "live": (("setup_s", "s"), ("throughput_ops_s", "requests/s"),
             ("answer_p50_ms", "ms"), ("answer_p99_ms", "ms"),
             ("detect_p50_ms", "ms"), ("detect_p90_ms", "ms"), ("detect_p99_ms", "ms"),
             ("peak_rss_mb", "MiB"), ("failed_frac", "ratio")),
}


def run_all(args) -> int:
    """Each workload in a fresh interpreter, then one table."""
    status = 0
    print(f"{'workload':<10} {'metric':<36} {'value':>14}  unit")
    for workload in WORKLOADS:
        for trace in ([0, 1] if args.trace else [0]):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.stderr.write(proc.stderr)
                print(f"{workload:<10} failed with exit code {proc.returncode}")
                status = 1
                continue
            detail = json.loads(lines[-2])["detail"]
            result = json.loads(lines[-1])
            if trace:
                rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
            else:
                flat = dict(detail, **detail["metrics"])
                rows = [(name, flat[name], unit) for name, unit in SUMMARY[workload]]
                env = detail["env"]
                print(f"{workload:<10} {'env':<36} backend={env['backend']} "
                      f"numba={env['numba_importable']} nproc={env['nproc']} "
                      f"python={env['python']} numpy={env['numpy']}")
            for name, value, unit in rows:
                print(f"{workload:<10} {name:<36} {value:>14.6g}  {unit}")
            if not result["correct"]:
                status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--segment", metavar="DIR",
                        help="run one process's share over the inputs in DIR "
                             "and print its raw outcome")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        return run_one(args) if args.workload else run_all(args)
    except bootstrap.MissingSource as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
