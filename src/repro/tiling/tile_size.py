"""Tile size selection based on the load-to-compute ratio (Section 3.7).

The model follows the paper: for a generic (non-boundary) tile it computes

* the number of statement instances executed by the tile, and
* the number of values loaded from global memory by the tile,

both as exact functions of the tile size parameters ``h, w_0, ..., w_n``, and
then picks the parameters with the smallest load-to-compute ratio among those
whose shared-memory footprint fits the hardware bound.  Loads are modelled as
the size of the rectangular shared-memory box PPCG allocates for the tile
(Section 4.2); with inter-tile reuse enabled (Section 4.2.2) only the part of
the box that was not already loaded by the preceding tile along the innermost
(classically tiled, sequentially executed) dimension is counted.

:func:`legal_tile_sizes` is the one walk over the tile-size grid.  The
model's selection (:func:`select_tile_sizes`) is its argmin, and the
autotuner's candidate space (:class:`repro.tuning.space.CandidateSpace`) is
its list of legal points, so both see the same legality rules, costs and
per-point prune counts.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field, replace
from fractions import Fraction

from repro.model.preprocess import CanonicalForm
from repro.model.program import StencilProgram
from repro.tiling.cone import DependenceCone
from repro.tiling.hexagon import HexagonalTileShape, minimal_width
from repro.tiling.hybrid import TileSizes

#: The default axes of the tile-size grid: heights ``h`` and the widths of
#: ``w_0`` and of every middle dimension.  The innermost width of a 2-D+
#: stencil defaults to :func:`default_inner_widths`.
DEFAULT_HEIGHTS = tuple(range(0, 17))
DEFAULT_WIDTHS = (1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 16, 20, 24, 32)

#: Reasons a grid point can be pruned by :func:`legal_tile_sizes`, as
#: reported by ``hexcc inspect`` and ``hexcc tune``.
PRUNE_SHARED_MEMORY = "shared_memory_overflow"
PRUNE_LEGALITY = "legality"
PRUNE_OCCUPANCY = "occupancy_floor"
PRUNE_REASONS = (PRUNE_SHARED_MEMORY, PRUNE_LEGALITY, PRUNE_OCCUPANCY)


def default_inner_widths(warp_size: int) -> tuple[int, ...]:
    """The default innermost widths of a 2-D+ stencil: one, two or four warps."""
    return (warp_size, 2 * warp_size, 4 * warp_size)


@dataclass(frozen=True)
class TileCostEstimate:
    """Cost figures of one tile size choice."""

    sizes: TileSizes
    iterations: int
    loads: int
    stores: int
    shared_memory_bytes: int
    #: When produced by :func:`select_tile_sizes`, the counts of grid points
    #: pruned per reason plus the ``evaluated`` count — why the rest of the
    #: grid was rejected.  Excluded from equality so a selected estimate
    #: still compares equal to the same point recomputed by the model.
    rejections: Mapping[str, int] | None = field(
        default=None, compare=False, repr=False
    )

    @property
    def load_to_compute(self) -> float:
        """Loads per executed iteration — the figure of merit of Section 3.7."""
        if self.iterations == 0:
            return float("inf")
        return self.loads / self.iterations

    def __str__(self) -> str:
        return (
            f"TileCostEstimate({self.sizes}, iterations={self.iterations}, "
            f"loads={self.loads}, shared={self.shared_memory_bytes}B, "
            f"ratio={self.load_to_compute:.3f})"
        )


class TileSizeModel:
    """Analytic cost model of a hybrid tile for one stencil program."""

    def __init__(self, canonical: CanonicalForm, element_size: int = 4) -> None:
        self.canonical = canonical
        self.element_size = element_size
        self.cone = DependenceCone.from_distance_vectors(
            canonical.distance_vectors, dim_index=0
        )
        self._slopes = [
            canonical.space_distance_bounds(index)[1]
            for index in range(1, len(canonical.space_dims))
        ]
        self._read_radii = read_radii(canonical.program)
        # The grid walk revisits the same (h, w0) pair for every combination
        # of the remaining widths; the hexagonal shape (and its exact-rational
        # row geometry) only depends on (h, w0).
        self._shape_cache: dict[tuple[int, int], HexagonalTileShape] = {}

    # -- per-tile quantities ---------------------------------------------------------------

    def shape(self, sizes: TileSizes) -> HexagonalTileShape:
        key = (sizes.height, sizes.w0)
        shape = self._shape_cache.get(key)
        if shape is None:
            shape = HexagonalTileShape(self.cone, sizes.height, sizes.w0)
            self._shape_cache[key] = shape
        return shape

    def iterations(self, sizes: TileSizes) -> int:
        """Statement instances per full tile (matches the formula of §3.7)."""
        return self.shape(sizes).count() * math.prod(sizes.widths[1:])

    def footprint_elements(self, sizes: TileSizes, inter_tile_reuse: bool = False) -> int:
        """Array elements the tile must read from global memory.

        The footprint is the union over all fields of the rectangular box
        covering the tile's accesses to that field (the PPCG shared-memory
        allocation strategy).  With ``inter_tile_reuse`` the innermost
        dimension only contributes the non-overlapping part ``w_inner``.
        """
        return self.estimate(sizes, inter_tile_reuse=inter_tile_reuse).loads

    def shared_memory_bytes(self, sizes: TileSizes) -> int:
        """Shared memory needed to stage the tile's footprint boxes."""
        return self.estimate(sizes).shared_memory_bytes

    def estimate(self, sizes: TileSizes, inter_tile_reuse: bool = True) -> TileCostEstimate:
        """Full cost estimate for one tile size choice."""
        iterations = self.iterations(sizes)
        extents = tile_box_extents(self.shape(sizes), sizes.widths, self._slopes)
        reuse_inner = inter_tile_reuse and len(extents) > 1
        loads = 0
        staged = 0
        for radii in self._read_radii.values():
            box = [extent + high - low for extent, (low, high) in zip(extents, radii)]
            full = math.prod(box)
            staged += full
            loads += math.prod(box[:-1]) * sizes.widths[-1] if reuse_inner else full
        return TileCostEstimate(
            sizes=sizes,
            iterations=iterations,
            loads=loads,
            stores=iterations,
            shared_memory_bytes=staged * self.element_size,
        )

    # -- the closed-form of Section 3.7 --------------------------------------------------------

    def closed_form_iterations_3d(self, sizes: TileSizes) -> int:
        """``2·(1 + 2h + h² + w0·(h+1))·w1·w2`` — only valid for δ0 = δ1 = 1.

        Exposed so the tests can check the enumerative count against the
        closed form quoted in the paper.
        """
        if self.cone.delta0 != 1 or self.cone.delta1 != 1:
            raise ValueError("the closed form of §3.7 assumes δ0 = δ1 = 1")
        if len(sizes.widths) != 3:
            raise ValueError("the closed form of §3.7 is for 3D stencils")
        h = sizes.height
        w0 = sizes.w0
        return 2 * (1 + 2 * h + h * h + w0 * (h + 1)) * sizes.widths[1] * sizes.widths[2]


def read_radii(program: StencilProgram) -> dict[str, list[tuple[int, int]]]:
    """Per-field, per-dimension ``(lowest, highest)`` read offsets."""
    radii: dict[str, list[tuple[int, int]]] = {}
    for statement in program.statements:
        for read in statement.reads:
            entry = radii.setdefault(read.field, [(0, 0)] * program.ndim)
            for axis, offset in enumerate(read.offsets):
                low, high = entry[axis]
                entry[axis] = (min(low, offset), max(high, offset))
    return radii


def tile_box_extents(
    shape: HexagonalTileShape, widths: Sequence[int], slopes: Sequence[Fraction]
) -> list[int]:
    """Data-space extent of a full tile along each space dim (no read halo).

    ``slopes`` are the skewing slopes ``δ1`` of the classically tiled
    dimensions ``1..n``; each widens its box by the skew over one tile.
    """
    (_, _), (b_min, b_max) = shape.bounding_box()
    extents = [b_max - b_min + 1]
    for width, slope in zip(widths[1:], slopes):
        extents.append(width + int(slope * (shape.time_period - 1)))
    return extents


def legal_tile_sizes(
    model: TileSizeModel,
    shared_memory_limit: int,
    warp_size: int,
    inter_tile_reuse: bool,
    heights: Sequence[int] = DEFAULT_HEIGHTS,
    widths: Sequence[int] = DEFAULT_WIDTHS,
    inner_widths: Sequence[int] | None = None,
) -> tuple[list[TileCostEstimate], dict[str, int]]:
    """Walk the ``(h, w_0, middle..., w_inner)`` grid: the one tile-size search.

    A grid point is kept when

    * ``h + 1`` is a multiple of the number of statements (Section 3.3);
    * ``w_0`` satisfies the convexity condition (1);
    * the innermost tile width of a 2-D+ stencil is a multiple of the warp
      size so full warps execute, accesses are stride-one and loads are
      cache-line aligned (Section 2);
    * the shared-memory footprint stays within ``shared_memory_limit``.

    Returns the estimates of the kept points in product order of the axes
    (``heights``, ``widths`` for ``w_0`` and every middle dimension,
    ``inner_widths`` — :func:`default_inner_widths` if omitted — for the
    innermost one of a 2-D+ stencil), plus the number of grid points pruned
    per :data:`PRUNE_REASONS` (the first violated rule, in the order above)
    and the number ``evaluated`` (kept).
    """
    num_statements = model.canonical.num_statements
    ndim = len(model.canonical.space_dims)
    if inner_widths is None:
        inner_widths = default_inner_widths(warp_size)
    trailing_axes = ([widths] * (ndim - 2) + [inner_widths]) if ndim >= 2 else []
    trailing = list(itertools.product(*trailing_axes))
    pruned = dict.fromkeys(PRUNE_REASONS, 0)
    kept: list[TileCostEstimate] = []
    for height in heights:
        if (height + 1) % num_statements:
            pruned[PRUNE_LEGALITY] += len(widths) * len(trailing)
            continue
        min_w0 = minimal_width(model.cone.delta0, model.cone.delta1, height)
        for w0 in widths:
            if w0 < min_w0:
                pruned[PRUNE_LEGALITY] += len(trailing)
                continue
            for rest in trailing:
                point = (w0, *rest)
                if ndim >= 2 and point[-1] % warp_size:
                    pruned[PRUNE_OCCUPANCY] += 1
                    continue
                estimate = model.estimate(
                    TileSizes(height, point), inter_tile_reuse=inter_tile_reuse
                )
                if estimate.shared_memory_bytes > shared_memory_limit:
                    pruned[PRUNE_SHARED_MEMORY] += 1
                    continue
                kept.append(estimate)
    pruned["evaluated"] = len(kept)
    return kept, pruned


def select_tile_sizes(
    canonical: CanonicalForm,
    shared_memory_limit: int = 48 * 1024,
    warp_size: int = 32,
    inter_tile_reuse: bool = True,
) -> TileCostEstimate:
    """The §3.7 selection: the best point of :func:`legal_tile_sizes`.

    Best is the lowest load-to-compute ratio, ties broken towards more
    iterations per tile, then towards the earlier grid point.  The returned
    estimate carries the walk's per-point ``rejections``.
    """
    kept, pruned = legal_tile_sizes(
        TileSizeModel(canonical), shared_memory_limit, warp_size, inter_tile_reuse
    )
    if not kept:
        raise ValueError(
            "no legal tile size found within the shared-memory limit "
            f"(pruned: {PRUNE_SHARED_MEMORY}={pruned[PRUNE_SHARED_MEMORY]}, "
            f"{PRUNE_LEGALITY}={pruned[PRUNE_LEGALITY]}, "
            f"{PRUNE_OCCUPANCY}={pruned[PRUNE_OCCUPANCY]}); "
            "decrease the tile widths or increase the limit"
        )
    best = min(kept, key=lambda estimate: (estimate.load_to_compute, -estimate.iterations))
    return replace(best, rejections=pruned)
