"""The autotuner's candidate space: tile sizes + launch configurations.

The tile sizes are the legal points of the §3.7 grid walk
(:func:`repro.tiling.tile_size.legal_tile_sizes`), the same walk whose argmin
is the model's selection (:func:`repro.tiling.tile_size.select_tile_sizes`).
A point is legal when

* ``h + 1`` is a multiple of the statement count (the hexagonal schedule
  interleaves the statements along logical time);
* ``w_0`` satisfies the convexity condition (1) —
  :func:`repro.tiling.hexagon.minimal_width`;
* the innermost tile width keeps full warps busy (a multiple of the warp
  size, for 2-D+ stencils);
* the tile's shared-memory footprint fits the device.

Illegal points are never emitted; the walk records *why* each grid point was
pruned (:data:`repro.tiling.tile_size.PRUNE_REASONS`) so sweeps are
auditable.  Every emitted candidate is legal by construction — the property
tests in ``tests/tuning`` pin that any of them survives
:func:`repro.tiling.validate.validate_hybrid_tiling`.

A candidate optionally carries a thread-block shape (the launch-config half
of the autotuner); ``tune_threads=True`` adds per-candidate block shapes
derived from the innermost tile width.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Mapping, Sequence

from repro.gpu.device import GPUDevice, GTX470
from repro.model.preprocess import CanonicalForm
from repro.tiling.hybrid import TileSizes
from repro.tiling.tile_size import (
    DEFAULT_HEIGHTS,
    DEFAULT_WIDTHS,
    TileSizeModel,
    default_inner_widths,
    legal_tile_sizes,
)


@dataclass(frozen=True)
class Candidate:
    """One point of the search space: tile sizes + optional block shape."""

    sizes: TileSizes
    threads: tuple[int, ...] | None = None

    def label(self) -> str:
        text = str(self.sizes)
        if self.threads is not None:
            text += f", threads={self.threads}"
        return text


class CandidateSpace:
    """The legal tile-size/launch-config grid for one canonicalised program.

    Enumeration is deterministic (nested-loop order over the axes), so a
    seeded search over the space is reproducible by construction.
    """

    def __init__(
        self,
        canonical: CanonicalForm,
        device: GPUDevice = GTX470,
        *,
        inter_tile_reuse: bool = True,
        heights: Sequence[int] | None = None,
        widths: Sequence[int] | None = None,
        inner_widths: Sequence[int] | None = None,
        tune_threads: bool = False,
    ) -> None:
        self.canonical = canonical
        self.device = device
        self.inter_tile_reuse = inter_tile_reuse
        self.model = TileSizeModel(canonical)
        self.ndim = len(canonical.space_dims)
        self.heights = tuple(heights if heights is not None else DEFAULT_HEIGHTS)
        self.widths = tuple(widths if widths is not None else DEFAULT_WIDTHS)
        self.inner_widths = tuple(
            inner_widths
            if inner_widths is not None
            else default_inner_widths(device.warp_size)
        )
        self.tune_threads = tune_threads
        self._candidates: list[Candidate] | None = None
        self._pruned: dict[str, int] = {}

    # -- enumeration -------------------------------------------------------------

    def _thread_shapes(self, sizes: TileSizes) -> list[tuple[int, ...] | None]:
        """Block-shape variants for one tile size (``None`` = codegen default)."""
        if not self.tune_threads:
            return [None]
        inner = sizes.widths[-1]
        shapes: list[tuple[int, ...] | None] = [None]
        for threads in (inner, 2 * inner):
            if threads > self.device.max_threads_per_block:
                continue
            shape = tuple([1] * (len(sizes.widths) - 1) + [threads])
            shapes.append(shape)
        return shapes

    def preload(
        self, candidates: Sequence[Candidate], rejections: Mapping[str, int]
    ) -> None:
        """Install a previously-enumerated (cached) candidate list.

        The enumeration is deterministic for fixed axes, so a disk-cached
        ``(candidates, rejections)`` pair keyed by the program content and
        the space options is exactly what :meth:`enumerate` would recompute.
        """
        self._candidates = list(candidates)
        self._pruned = dict(rejections)

    def enumerate(self) -> list[Candidate]:
        """Every legal candidate, in deterministic order (memoised)."""
        if self._candidates is None:
            estimates, self._pruned = legal_tile_sizes(
                self.model,
                self.device.shared_memory_per_sm,
                self.device.warp_size,
                self.inter_tile_reuse,
                self.heights,
                self.widths,
                self.inner_widths,
            )
            self._candidates = [
                Candidate(sizes=estimate.sizes, threads=threads)
                for estimate in estimates
                for threads in self._thread_shapes(estimate.sizes)
            ]
        return self._candidates

    def __len__(self) -> int:
        return len(self.enumerate())

    def __iter__(self) -> Iterable[Candidate]:
        return iter(self.enumerate())

    @property
    def rejections(self) -> Mapping[str, int]:
        """Per-reason counts of pruned grid points (plus ``evaluated``)."""
        self.enumerate()
        return dict(self._pruned)

    # -- navigation (used by coordinate descent) -----------------------------------

    def neighbours(self, candidate: Candidate) -> list[Candidate]:
        """Axis-aligned neighbours of a candidate that are in the space.

        For each coordinate (height, each width, the thread shape) the
        adjacent values on that axis are substituted while the others are
        held fixed; combinations that were pruned from the space are skipped.
        """
        members = set(self.enumerate())
        out: list[Candidate] = []

        def consider(sizes: TileSizes, threads: tuple[int, ...] | None) -> None:
            neighbour = Candidate(sizes=sizes, threads=threads)
            if neighbour != candidate and neighbour in members:
                out.append(neighbour)

        for delta in (-1, 1):
            height = _step(self.heights, candidate.sizes.height, delta)
            if height is not None:
                consider(TileSizes(height, candidate.sizes.widths), candidate.threads)
        for axis in range(len(candidate.sizes.widths)):
            axis_values = (
                self.inner_widths
                if self.ndim >= 2 and axis == len(candidate.sizes.widths) - 1
                else self.widths
            )
            for delta in (-1, 1):
                width = _step(axis_values, candidate.sizes.widths[axis], delta)
                if width is None:
                    continue
                widths = list(candidate.sizes.widths)
                widths[axis] = width
                consider(
                    TileSizes(candidate.sizes.height, tuple(widths)),
                    candidate.threads,
                )
        for threads in self._thread_shapes(candidate.sizes):
            if threads != candidate.threads:
                consider(candidate.sizes, threads)
        return out


def _step(values: Sequence[int], current: int, delta: int) -> int | None:
    """The next axis value ``delta`` (+1/-1) steps away from ``current``."""
    ordered = sorted(set(values))
    index = ordered.index(current) + delta
    return ordered[index] if 0 <= index < len(ordered) else None
