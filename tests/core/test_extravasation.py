"""Property test: the vectorized extravasation pass equals the sequential rule.

``kernels.apply_extravasation`` resolves every attempt in one vectorized
pass (first accepting attempt per voxel wins).  The oracle below applies
the sequential rule one attempt at a time, in attempt order: skip a voxel
outside the region, one that is occupied, or one whose signal is below
``min_chemokine``; otherwise enter if ``u < c``.  Attempts are drawn with
repeated gids, occupied voxels, sub-threshold signal and a region smaller
than the interior, on a solo block and on a batch of three.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import kernels
from repro.core.params import SimCovParams
from repro.core.state import EnsembleBlock, VoxelBlock
from repro.grid.spec import GridSpec

SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

FIELDS = ("tcell", "tcell_tissue_time", "tcell_bound_time")


def _reference(params, block, attempts, region):
    """The sequential rule on copies of ``block``'s T-cell fields."""
    lead = block.epi_state.ndim - block.spec.ndim
    out = {f: getattr(block, f).copy() for f in FIELDS}
    tcell, tt, bt = (out[f][region] for f in FIELDS)
    chem = block.chemokine[region]
    gid = block.gid[(0,) * lead + region[lead:]]
    hits = np.zeros(attempts["counts"].size, dtype=np.int64)
    for i, g in enumerate(attempts["gid"]):
        where = np.argwhere(gid == g)
        if where.size == 0:
            continue
        b = attempts["member"][i]
        c = (b,) * lead + tuple(where[0])
        if tcell[c] != 0 or chem[c] < params.min_chemokine:
            continue
        if attempts["accept_u"][i] < chem[c]:
            tcell[c], tt[c], bt[c] = 1, attempts["life"][i], 0
            hits[b] += 1
    return out, hits


@st.composite
def cases(draw, batch):
    side = draw(st.integers(min_value=3, max_value=7))
    params = SimCovParams.fast_test(dim=(side, side))
    spec = GridSpec(params.dim)
    if batch:
        block = EnsembleBlock(spec, spec.domain, batch)
    else:
        block = VoxelBlock(spec, spec.domain)
    members = batch or 1
    shape = block.chemokine[block.interior].shape
    mc = params.min_chemokine
    levels = st.sampled_from([0.0, mc / 2, mc, 0.3, 0.7, 1.0])
    block.chemokine[block.interior] = np.array(
        draw(st.lists(levels, min_size=int(np.prod(shape)),
                      max_size=int(np.prod(shape))))
    ).reshape(shape)
    occupied = np.array(
        draw(st.lists(st.sampled_from([False, False, True]),
                      min_size=int(np.prod(shape)),
                      max_size=int(np.prod(shape))))
    ).reshape(shape)
    block.tcell[block.interior] = occupied
    block.tcell_tissue_time[block.interior] = 5 * occupied
    g = block.ghost
    spatial = []
    for _ in range(spec.ndim):
        lo = draw(st.integers(0, side - 1))
        hi = draw(st.integers(lo + 1, side))
        spatial.append(slice(g + lo, g + hi))
    region = ((slice(0, batch),) if batch else ()) + tuple(spatial)
    # A few target voxels, mostly inside the region, so that attempts
    # repeat gids.
    inside = block.gid[region].ravel().tolist()
    targets = draw(
        st.lists(st.sampled_from(inside), min_size=1, max_size=3)
    ) + draw(st.lists(st.integers(0, side * side - 1), max_size=2))
    counts = np.array(
        draw(st.lists(st.integers(0, 16), min_size=members,
                      max_size=members)), dtype=np.int64,
    )
    total = int(counts.sum())
    attempts = {
        "counts": counts,
        "member": np.repeat(np.arange(members, dtype=np.int64), counts),
        "gid": np.array(
            draw(st.lists(st.sampled_from(targets), min_size=total,
                          max_size=total)), dtype=np.int64,
        ),
        "accept_u": np.array(
            draw(st.lists(st.floats(0.0, 0.999), min_size=total,
                          max_size=total)), dtype=np.float64,
        ),
        "life": np.array(
            draw(st.lists(st.integers(1, 50), min_size=total,
                          max_size=total)), dtype=np.int64,
        ),
    }
    return params, block, attempts, region


def _check(params, block, attempts, region):
    expected, hits = _reference(params, block, attempts, region)
    got = kernels.apply_extravasation(params, block, attempts, region)
    for f in FIELDS:
        np.testing.assert_array_equal(getattr(block, f), expected[f], f)
    return got, hits


class TestApplyExtravasation:
    @given(case=cases(batch=0))
    @SETTINGS
    def test_solo_block_matches_sequential_rule(self, case):
        got, hits = _check(*case)
        assert isinstance(got, int)
        assert got == int(hits[0])

    @given(case=cases(batch=3))
    @SETTINGS
    def test_batched_block_matches_sequential_rule(self, case):
        got, hits = _check(*case)
        assert got.shape == (3,)
        np.testing.assert_array_equal(got, hits)
