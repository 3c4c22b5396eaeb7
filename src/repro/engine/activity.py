"""Activity gating: the shared active-region layer for CPU-side backends.

The paper's memory-tiling insight (§3.2) is that early- and late-infection
steps touch only a tiny fraction of the domain, so kernels should skip
inactive space.  :class:`ActivityGate` packages that rule once, for every
backend that runs numpy kernels over region slices:

- **periodic-sweep mode** (``sweep_period > 1``): a coarse
  :class:`~repro.grid.tiling.TileGrid` mask is re-derived every
  ``sweep_period`` steps from the block's per-voxel activity mask, exactly
  the GPU backend's §3.2 rule — the sweep may run as rarely as once per
  ``min(tile_shape)`` steps provided activating a tile also activates a
  one-tile buffer around it and ghost-facing tiles stay pinned active,
  because nothing in SIMCoV moves faster than one voxel per step;
- **refresh mode** (``sweep_period == 1``): the per-voxel mask is
  recomputed every step and dilated by one voxel — the CPU active-list of
  §2.2, which the PGAS backend runs after its start-of-step ghost
  exchange so activity arriving from a neighbor rank is seen in time.

Either way the gate exposes one *bounding region* (padded-array slices)
that kernels execute over.  Voxels inside the region but outside the raw
activity mask are provably no-ops, and all randomness is keyed by global
voxel id (counter-based, stateless per draw), so gated runs are **bitwise
identical** to ungated runs — the contract enforced by
tests/properties/test_gating_equivalence.py and the golden traces.

A batched block (an ensemble's leading batch axis) is gated by the same
code: each member's mask is swept exactly as its solo run's would be, and
the region is the bounding box of their union, with every batch axis kept
whole as an explicit ``slice(0, B)``.
"""

from __future__ import annotations

import numpy as np

from repro.core.state import VoxelBlock
from repro.grid.tiling import TileGrid, _dilate


class ActivityGate:
    """Tracks the region of a block that kernels must process.

    Parameters
    ----------
    block:
        The ghost-padded block whose activity is tracked.  Axes in front
        of the grid's spatial axes (``block.epi_state.ndim -
        block.spec.ndim`` of them) are batch axes.
    min_chemokine:
        Signal threshold of the activity definition (sub-threshold signal
        is zeroed at commit time, so it cannot seed future activity); a
        per-member array broadcasts against a batched block.
    sweep_period:
        Steps between sweeps.  ``1`` selects refresh mode (every-step
        mask recompute, one-voxel dilation); ``> 1`` selects periodic
        tile sweeps.  Default: the largest sound period,
        ``min(tile_shape)`` (refresh mode when that is 1).
    tile_shape:
        Tile extents for periodic-sweep mode; default 8 per dimension
        (clipped to the block).  Ignored in refresh mode.
    pin_sides:
        (ndim, 2) booleans: pin the (low, high) tile shell of each axis
        permanently active (§3.2: tiles containing ghost voxels stay
        active, so activity arriving from a neighbor block between sweeps
        is always covered).  Only meaningful with ``sweep_period > 1``;
        default pins nothing (a single block has no neighbors).
    enabled:
        ``False`` forces the ungated path: the region is always the full
        interior and sweeps never run (the benchmark/testing baseline).
    """

    def __init__(
        self,
        block: VoxelBlock,
        min_chemokine: float,
        sweep_period: int | None = None,
        tile_shape: tuple[int, ...] | None = None,
        pin_sides=None,
        enabled: bool = True,
    ):
        self.block = block
        self.min_chemokine = min_chemokine
        self.enabled = bool(enabled)
        owned = block.owned.shape
        batch = block.epi_state.shape[: block.epi_state.ndim - block.spec.ndim]
        if tile_shape is None:
            tile_shape = tuple(min(8, s) for s in owned)
        else:
            tile_shape = tuple(min(int(t), s) for t, s in zip(tile_shape, owned))
        if pin_sides is None:
            pin_sides = np.zeros((len(owned), 2), dtype=bool)
        self.tiles = TileGrid(owned, tile_shape, ghost=block.ghost,
                              pin_sides=pin_sides)
        max_period = self.tiles.max_sweep_period()
        if sweep_period is None:
            sweep_period = max_period
        sweep_period = int(sweep_period)
        if not 1 <= sweep_period <= max_period:
            raise ValueError(
                f"sweep_period {sweep_period} outside sound range "
                f"[1, {max_period}] for tiles {tile_shape}"
            )
        self.sweep_period = sweep_period
        g = block.ghost
        #: The whole interior, batch axes as explicit slices (consumers
        #: such as ``IntentArrays.clear`` read every slice's ``start``).
        self._full = tuple(slice(0, n) for n in batch) + tuple(
            slice(g, g + s) for s in owned
        )
        #: Everything starts active (like the GPU tile grid): correct for
        #: fresh runs *and* for checkpoints resumed mid-run, where the
        #: first due sweep re-derives the true active set.
        self._mask = np.ones(batch + owned, dtype=bool)
        self._count = self._mask.size
        self._region: tuple[slice, ...] | None = self._full

    # -- the sweep rule -------------------------------------------------------

    def due(self, step: int) -> bool:
        """Whether the end-of-step sweep is due after ``step`` (mirrors the
        GPU backend: the sweep at the end of step ``s`` covers steps
        ``s+1 .. s+sweep_period``)."""
        return self.enabled and (step + 1) % self.sweep_period == 0

    def sweep(self) -> int:
        """Re-derive the active region from current block state.

        Refresh mode scans the padded activity mask and dilates by one
        voxel; periodic mode runs the §3.2 tile sweep (tile-granular raw
        activation + one-tile dilation + boundary pinning), per member of
        a batched block.  Returns the number of voxels scanned (the sweep
        kernel's cost).
        """
        if not self.enabled:
            return 0
        block = self.block
        raw = block.xp.asnumpy(block.activity_mask_padded(self.min_chemokine))
        if self._use_tiles:
            self.tiles.sweep(raw, padded=True)
            self._mask = self.tiles.voxel_mask()
        else:
            ndim = block.spec.ndim
            self._mask = _dilate(raw, ndim)[(...,) + self._full[-ndim:]]
        self._count = int(self._mask.sum())
        self._region = self._bbox()
        return self._mask.size

    @property
    def _use_tiles(self) -> bool:
        return self.sweep_period > 1 or bool(self.tiles.pin_sides.any())

    def _bbox(self) -> tuple[slice, ...] | None:
        """Padded-array slices of the active bounding box (None if idle);
        over the union of the members of a batched block."""
        mask = self._mask
        lead = mask.ndim - self.block.spec.ndim
        if lead:
            mask = mask.any(axis=tuple(range(lead)))
        if not mask.any():
            return None
        g = self.block.ghost
        sls = list(self._full[:lead])
        for axis in range(mask.ndim):
            other = tuple(a for a in range(mask.ndim) if a != axis)
            proj = mask.any(axis=other)
            idx = np.nonzero(proj)[0]
            sls.append(slice(int(idx[0]) + g, int(idx[-1]) + 1 + g))
        return tuple(sls)

    # -- consumers ------------------------------------------------------------

    def region(self) -> tuple[slice, ...] | None:
        """Padded-array slices kernels must process (None if idle).

        The full interior when gating is disabled or no sweep ran yet.
        """
        if not self.enabled:
            return self._full
        return self._region

    def region_box(self):
        """The current region as a global-coordinate :class:`Box`, or None
        when idle — the value a dist worker publishes into the control
        segment's strip-liveness row (every kernel's writes this step are
        confined to this box, so peers may skip pulls it cannot touch).
        Solo blocks only."""
        region = self.region()
        if region is None:
            return None
        from repro.grid.box import Box

        origin = self.block.origin
        return Box(
            tuple(o + s.start for o, s in zip(origin, region)),
            tuple(o + s.stop for o, s in zip(origin, region)),
        )

    @property
    def count(self) -> int:
        """Active voxels, summed over members (the perf model's work unit)."""
        return self._count

    @property
    def mask(self) -> np.ndarray:
        """Owned-shape boolean mask of the tracked active set (batch axes
        first on a batched block: ``mask[b]`` is member ``b``'s)."""
        return self._mask

    def fraction(self) -> float:
        """Active fraction of the owned region."""
        return self.count / self._mask.size
