"""The steps_per_s bound catches a slowed kernel, and only where it runs.

The slowdown is a busy-wait inside the benchmark's own ``stats_vector``
wrapper, so no program code changes.  Each call gains twice the bound's
share of one ``seq_focal`` step, enough to clear run-to-run noise.
``ensemble_dense`` reduces with ``stats_vectors`` and must stay
unflagged.
"""

import json
from pathlib import Path

import run

SPEC = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}["steps_per_s"]
SECONDS = 8


def _steps_per_s(workload, inject=None):
    result, _, _ = run.measure(workload, seed=5, seconds=SECONDS,
                                  trace=False, inject=inject)
    assert result["correct"], result
    return result["metrics"]["steps_per_s"]["value"]


def _flagged(base, changed):
    return changed < base * (1.0 - BOUND)


def test_stats_vector_slowdown_flags_seq_focal_only():
    base = _steps_per_s("seq_focal")
    # seq_focal calls stats_vector once per step.
    inject = {"kernels.stats_vector": 2 * BOUND / base}
    assert _flagged(base, _steps_per_s("seq_focal", inject))
    base = _steps_per_s("ensemble_dense")
    assert not _flagged(base, _steps_per_s("ensemble_dense", inject))
