"""Every named metric is emitted, and every wrapper sees calls.

``run.measure`` takes the metric names and units from BENCHMARK.json and
raises if the values it computed name any other set, so a run that
returns at all emitted every named metric with its unit.

A wrapper that patches only the defining module misses by-name imports
(``stats_vector`` in ``repro.engine.sequential`` and
``repro.dist.backend``); the per-workload call checks below catch that.
"""

import json
from pathlib import Path

import pytest

import run
from layers import ENGINE_PHASES, KERNEL_FUNCTIONS
from workloads import WORKLOADS

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)

WRAPPED = (
    [f"engine.{p}" for p in ENGINE_PHASES]
    + [f"kernels.{name}" for name, _, _ in KERNEL_FUNCTIONS]
    + [
        "activity.sweep", "dist.phase_reduce", "dist.finish_step",
        "serve.admit", "serve.build_sim", "serve.segment",
        "serve.cache_put", "serve.journal_append",
    ]
)

#: Wrapped names each workload must reach.
EXPECTED = {
    "seq_focal": ["kernels.stats_vector", "activity.sweep", "engine.tile_sweep",
                  "kernels.resolve_moves", "kernels.rng.counter_hash"],
    "dist_focal": ["kernels.stats_vector", "dist.phase_reduce",
                   "dist.finish_step"],
    "ensemble_dense": ["kernels.stats_vectors", "kernels.tcell_intents",
                       "kernels.rng.poisson"],
    "serve_miss": ["serve.admit", "serve.build_sim", "serve.segment",
                   "serve.cache_put", "serve.journal_append",
                   "kernels.stats_vector"],
}


@pytest.fixture(scope="module")
def traced():
    return {
        w: run.measure(w, seed=3, seconds=0.5, trace=True, size="tiny")
        for w in WORKLOADS
    }


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics_emitted(workload):
    result, _, _ = run.measure(workload, seed=3, seconds=0.5, trace=False,
                                  size="tiny")
    assert result["correct"], result
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name


def test_per_layer_metrics_emitted(traced):
    for workload, (result, _, _) in traced.items():
        assert result["correct"], (workload, result)


def test_every_wrapper_records_calls(traced):
    for workload, names in EXPECTED.items():
        trace = traced[workload][2]
        for name in names:
            assert trace.count(name) > 0, (workload, name)
    reached = set()
    for _, _, trace in traced.values():
        reached.update(n for n, c in trace.calls.items() if c > 0)
    assert set(WRAPPED) <= reached, sorted(set(WRAPPED) - reached)


def test_wrappers_are_removed(traced):
    import repro.core.stats
    import repro.dist.backend
    import repro.engine.sequential
    import repro.serve.runner

    original = repro.core.stats.stats_vector
    assert not hasattr(original, "__wrapped__")
    assert repro.engine.sequential.stats_vector is original
    assert repro.dist.backend.stats_vector is original
    assert not hasattr(repro.serve.runner.run_segment, "__wrapped__")
