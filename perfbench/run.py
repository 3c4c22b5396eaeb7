"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload seq_focal --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` runs the same window untraced and then traced, and reports
the per-layer metrics (plus the tracing overhead between the two).  The
last stdout line is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it carries host metadata, the seed and the raw samples.
A broken correctness check or regime guard exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from layers import ENGINE_PHASES, KERNEL_FUNCTIONS, LayerTrace  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

#: The seed reserved for confirming a claimed gain after tuning on others.
HELD_OUT_SEED = 7919

DIST_BARRIERS = (
    "step_start", "boundary_exchange", "tiebreak_exchange",
    "concentration_exchange", "step_end",
)

#: Metric names and units, in report order, as BENCHMARK.json lists them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _p90(values) -> float:
    """90th percentile, interpolated within the samples: a simulation
    workload has only a few runs (3 to 8 in a 20 s window), and the
    default method extrapolates past the slowest one."""
    if len(values) < 2:
        return _median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(out) -> dict:
    """Every end-to-end metric, for any workload (see README.md)."""
    if out.loop_s > 0:  # serve: closed-loop throughput
        jobs_per_s = out.completed / out.loop_s
        steps_per_s = jobs_per_s * out.steps_per_unit
    else:
        # Runs cycle through different problems: total work / total time.
        steps_per_s = (
            out.steps_per_unit * len(out.work_s) / sum(out.work_s)
            if out.work_s else 0.0
        )
        jobs_per_s = (
            len(out.latency_s) / sum(out.latency_s) if out.latency_s else 0.0
        )
    return {
        "steps_per_s": steps_per_s,
        "member_steps_per_s": steps_per_s * out.members,
        "jobs_per_s": jobs_per_s,
        "job_latency_p50_s": _median(out.latency_s),
        "job_latency_p90_s": _p90(out.latency_s),
        "setup_s": _median(out.setup_s),
        "peak_rss_mb": out.peak_rss_mb,
        "ok_frac": 1.0 - out.failed / max(out.attempted, 1),
    }


def per_layer(out, trace: LayerTrace, untraced) -> dict:
    """Every per-layer metric; layers a workload does not use read 0."""
    steps = trace.count("engine.reduce")
    units = len(out.latency_s) or 1

    def per_step_ms(name):
        return 1000.0 * trace.total(name) / steps if steps else 0.0

    def mean_ms(name):
        n = trace.count(name)
        return 1000.0 * trace.total(name) / n if n else 0.0

    m = {}
    for p in ENGINE_PHASES:
        m[f"engine.{p}.ms_per_step"] = per_step_ms(f"engine.{p}")
        m[f"engine.{p}.skips"] = trace.skips.get(f"engine.{p}", 0) / units
    m["activity.sweep.calls"] = trace.count("activity.sweep") / units
    m["activity.sweep.ms_per_call"] = mean_ms("activity.sweep")
    m["activity.active_frac_mean"] = (
        statistics.fmean(out.active_frac) if out.active_frac else 0.0
    )
    for name, _, _ in KERNEL_FUNCTIONS:
        m[f"kernels.{name}.ms_per_step"] = per_step_ms(f"kernels.{name}")
        m[f"kernels.{name}.calls"] = trace.count(f"kernels.{name}") / units
    m["kernels.stats_vector.voxels_per_step"] = (
        trace.voxels_scanned / steps if steps else 0.0
    )
    m["dist.coord_serial.ms_per_step"] = (
        per_step_ms("dist.phase_reduce") - per_step_ms("dist.finish_step")
    )
    dist = out.dist
    for b in DIST_BARRIERS:
        m[f"dist.wait.{b}.max_s"] = dist.get("waits", {}).get(b, 0.0)
    m["dist.busy.max_s"] = dist.get("busy_max", 0.0)
    m["dist.busy.mean_s"] = dist.get("busy_mean", 0.0)
    m["dist.imbalance"] = dist.get("imbalance", 0.0)
    m["dist.strips.pulled"] = dist.get("pulled", 0.0)
    m["dist.strips.skipped"] = dist.get("skipped", 0.0)

    serve = out.serve
    waits = [
        1000.0 * (t["segment_in"] - t["submitted"])
        for t in trace.job_times.values()
        if "segment_in" in t and "submitted" in t
    ]
    counts = serve.get("counts", {})
    m["serve.admit.ms"] = mean_ms("serve.admit")
    m["serve.queue_wait.p50_ms"] = _median(waits)
    m["serve.queue_wait.p90_ms"] = _p90(waits)
    m["serve.build_sim.ms"] = mean_ms("serve.build_sim")
    m["serve.segment.s"] = mean_ms("serve.segment") / 1000.0
    m["serve.cache_put.ms"] = mean_ms("serve.cache_put")
    m["serve.journal_append.ms"] = mean_ms("serve.journal_append")
    m["serve.journal_appends_per_job"] = (
        trace.count("serve.journal_append") / out.completed
        if out.completed else 0.0
    )
    m["serve.first_event.ms"] = 1000.0 * _median(serve.get("first_event", []))
    m["serve.result_tail.ms"] = 1000.0 * _median(serve.get("tails", []))
    m["serve.cache_hits"] = counts.get("cache_hits", 0)
    m["serve.retries"] = counts.get("retries", 0)
    m["serve.rejected"] = counts.get("rejected", 0)
    m["failed_frac"] = out.failed / max(out.attempted, 1)
    # Traced against untraced, per unit of work.
    if out.loop_s > 0:
        base = untraced.completed / untraced.loop_s
        traced = out.completed / out.loop_s
        m["trace_overhead_frac"] = base / traced - 1.0 if traced else 0.0
    else:
        base = _median(untraced.work_s)
        m["trace_overhead_frac"] = _median(out.work_s) / base - 1.0 if base else 0.0
    return m


def measure(workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full", inject: dict | None = None):
    """Run one workload; returns ``(result, detail, layer_trace)``.

    The self-tests pass ``size="tiny"`` for speed and ``inject`` (see
    :class:`LayerTrace`) to slow a kernel by a known amount.
    """
    fn = WORKLOADS[workload]
    sizing = SIZES[size]
    with LayerTrace(inject=inject, functions=False):
        untraced = fn(seed, seconds, sizing)
    outcomes = [untraced]
    layer_trace = None
    if trace:
        layer_trace = LayerTrace(inject=inject)
        with layer_trace:
            traced = fn(seed, seconds, sizing, trace=layer_trace)
        outcomes.append(traced)
        values = per_layer(traced, layer_trace, untraced)
        units = LAYER_UNITS
    else:
        values = end_to_end(untraced)
        units = END_TO_END_UNITS
    if values.keys() != units.keys():
        raise RuntimeError(
            "computed metrics differ from BENCHMARK.json: "
            f"{sorted(values.keys() ^ units.keys())}"
        )
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    guards = [g for o in outcomes for g in o.guard_failures]
    errors = [e for o in outcomes for e in o.errors]
    result = {
        "correct": failed == 0 and not guards,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "size": size,
        "seconds": seconds,
        "units": len(untraced.latency_s),
        "guard_failures": guards,
        "errors": errors[:20],
        "samples": {
            "setup_s": untraced.setup_s,
            "work_s": untraced.work_s,
            "latency_s": untraced.latency_s,
        },
    }
    return result, detail, layer_trace


def _stop_helpers() -> None:
    """Stop every process this run started and wait for each to end.

    The dist workers are joined by ``DistSimCov.close``; any still listed
    here are reaped.  Creating shared memory also starts multiprocessing's
    resource-tracker process, which would otherwise outlive this one
    until it notices the closed pipe.
    """
    import multiprocessing as mp
    from multiprocessing import resource_tracker

    for proc in mp.active_children():
        proc.join(timeout=5.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
    resource_tracker._resource_tracker._stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from repro.obs.runmeta import run_metadata

    # Scratch files (the serve journal) stay inside the checkout.
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}_", dir=scratch)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    try:
        result, detail, _ = measure(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    finally:
        _stop_helpers()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()  # only when no other run still uses it
        except OSError:
            pass
    detail["meta"] = run_metadata(config=args.workload, seed=args.seed)
    print(json.dumps(detail, default=float))
    print(json.dumps(result))
    for problem in detail["guard_failures"] + detail["errors"]:
        print(f"perfbench: {problem}", file=sys.stderr)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
