"""Property test: batching N runs never changes any of them.

For randomized small 2D and 3D parameterizations, batch sizes, seeds,
sweep values and activity-gate settings (tile shape, sweep period,
gating on/off), every member of a batched :class:`EnsembleSimCov` run
must be **bitwise identical** to the solo sequential run with the same
(params, seed, gate settings) — same voxel state and same time series,
and the same gate mask after every step.
This is the contract that lets the ensemble backend exist: randomness is
keyed ``(member_seed, stream, step, voxel)``, elementwise double/int ops
are batch-invariant, and the union gate region is a bitwise-invisible
superset per member (DESIGN.md §4d).
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.model import SequentialSimCov
from repro.core.params import SimCovParams
from repro.engine.ensemble import EnsembleSimCov, expand_sweep

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

STATE_FIELDS = (
    "epi_state", "epi_timer", "virions", "chemokine",
    "tcell", "tcell_tissue_time", "tcell_bound_time",
)
SERIES_FIELDS = (
    "healthy", "incubating", "expressing", "apoptotic", "dead",
    "tcells_tissue", "virions_total", "chemokine_total",
    "tcells_vasculature", "extravasations", "binds", "moves",
)

STEPS = 25


def _random_params(draw):
    ndim = draw(st.sampled_from([2, 3]))
    side = draw(
        st.integers(min_value=10, max_value=20) if ndim == 2
        else st.integers(min_value=6, max_value=9)
    )
    foi = draw(st.integers(min_value=0, max_value=3))
    return SimCovParams.fast_test(
        dim=(side,) * ndim, num_infections=foi, num_steps=STEPS,
    ).with_(
        infectivity=draw(st.floats(min_value=0.0, max_value=1.0)),
        tcell_initial_delay=draw(st.integers(min_value=0, max_value=15)),
        tcell_generation_rate=draw(st.floats(min_value=0.0, max_value=40.0)),
        extravasate_fraction=draw(st.floats(min_value=0.0, max_value=0.6)),
    )


def _random_gate(draw, dim):
    """Gate settings shared by the batched run and its solo references:
    tile shape, sweep period (default, 1 = refresh mode, or 2) and
    gating on/off."""
    return {
        "active_gating": draw(st.booleans()),
        "tile_shape": tuple(
            draw(st.integers(min_value=2, max_value=min(8, s))) for s in dim
        ),
        "sweep_period": draw(st.sampled_from([None, 1, 2])),
    }


def _assert_batched_matches_solo(members, seeds, gate):
    ens = EnsembleSimCov(members, seeds=seeds, **gate)
    solos = [
        SequentialSimCov(
            members[b] if isinstance(members, list) else members,
            seed=int(seed), **gate,
        )
        for b, seed in enumerate(seeds)
    ]
    for step in range(STEPS):
        ens.step()
        for b, solo in enumerate(solos):
            solo.step()
            assert np.array_equal(ens.gate.mask[b], solo.gate.mask), (
                f"member {b} gate mask diverged at step {step}"
            )
    for b, solo in enumerate(solos):
        for f in SERIES_FIELDS:
            assert np.array_equal(
                ens.member_series[b].field(f), solo.series.field(f)
            ), f"member {b} series field {f} diverged"
        for f in STATE_FIELDS:
            assert np.array_equal(
                ens.gather_field(f, member=b), solo.gather_field(f)
            ), f"member {b} state field {f} diverged"


class TestEnsembleEquivalence:
    @given(data=st.data())
    @SLOW
    def test_uniform_ensemble_bitwise_identical_per_member(self, data):
        p = _random_params(data.draw)
        batch = data.draw(st.integers(min_value=1, max_value=4))
        seeds = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=10_000),
                min_size=batch, max_size=batch, unique=True,
            )
        )
        _assert_batched_matches_solo(p, seeds, _random_gate(data.draw, p.dim))

    @given(data=st.data(), seed=st.integers(min_value=0, max_value=10_000))
    @SLOW
    def test_sweep_ensemble_bitwise_identical_per_member(self, data, seed):
        p = _random_params(data.draw)
        key, value_st = data.draw(
            st.sampled_from(
                [
                    ("num_infections", st.integers(min_value=0, max_value=4)),
                    ("infectivity", st.floats(min_value=0.0, max_value=1.0)),
                    (
                        "tcell_generation_rate",
                        st.floats(min_value=0.0, max_value=40.0),
                    ),
                ]
            )
        )
        values = data.draw(st.lists(value_st, min_size=2, max_size=3))
        members = expand_sweep(p, key, values)
        _assert_batched_matches_solo(
            members, [seed] * len(members), _random_gate(data.draw, p.dim)
        )
