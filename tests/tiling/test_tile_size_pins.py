"""The §3.7 model's tile-size selections, pinned.

Each row is ``(program, device, inter_tile_reuse, h, widths, loads,
iterations, shared_memory_bytes)`` of :func:`select_tile_sizes` on the
device's shared-memory limit and warp size.  The rows cover every library
stencil plus two 1-D stencils parsed from C whose convexity minimum of
``w_0`` exceeds the smallest grid width (``minimal_width`` is 2 for radius 3
and 4 for radius 5), so a change to the search's legality rules that moves a
selection shows up here.
"""

from __future__ import annotations

import pytest

from repro.frontend import parse_stencil
from repro.gpu.device import GTX470, NVS5200M
from repro.model.preprocess import canonicalize
from repro.stencils import get_stencil
from repro.tiling.tile_size import select_tile_sizes
from repro.tuning import CandidateSpace

DEVICES = {device.name: device for device in (GTX470, NVS5200M)}


def radius_1d_source(radius: int) -> str:
    """A 1-D Jacobi-style stencil reading ``radius`` neighbours each side."""
    terms = " + ".join(
        f"A[t-1][i{offset:+d}]" if offset else "A[t-1][i]"
        for offset in range(-radius, radius + 1)
    )
    return (
        f"/* radius{radius}_1d */\n"
        "#define T 64\n"
        "#define N 4096\n"
        "float A[2][N];\n"
        "for (t = 0; t < T; t++) {\n"
        f"  for (i = {radius}; i < N - {radius}; i++)\n"
        f"    A[t][i] = 0.1f * ({terms});\n"
        "}\n"
    )


def pinned_program(name: str):
    if name.startswith("radius"):
        return parse_stencil(radius_1d_source(int(name[len("radius"):-len("_1d")])))
    return get_stencil(name)


PINNED = [
    ("fdtd_2d", "GTX 470", True, 14, [32, 32], 5248, 41760, 40452),
    ("fdtd_2d", "GTX 470", False, 14, [20, 64], 11989, 60480, 47956),
    ("fdtd_2d", "NVS 5200M", True, 14, [32, 32], 5248, 41760, 40452),
    ("fdtd_2d", "NVS 5200M", False, 14, [20, 64], 11989, 60480, 47956),
    ("gradient_2d", "GTX 470", True, 16, [32, 128], 8576, 213248, 43684),
    ("gradient_2d", "GTX 470", False, 16, [32, 128], 10921, 213248, 43684),
    ("gradient_2d", "NVS 5200M", True, 16, [32, 128], 8576, 213248, 43684),
    ("gradient_2d", "NVS 5200M", False, 16, [32, 128], 10921, 213248, 43684),
    ("gradient_3d", "GTX 470", True, 3, [5, 12, 32], 9408, 27648, 48216),
    ("gradient_3d", "GTX 470", False, 2, [6, 16, 32], 11661, 27648, 46644),
    ("gradient_3d", "NVS 5200M", True, 3, [5, 12, 32], 9408, 27648, 48216),
    ("gradient_3d", "NVS 5200M", False, 2, [6, 16, 32], 11661, 27648, 46644),
    ("heat_2d", "GTX 470", True, 16, [32, 128], 8576, 213248, 43684),
    ("heat_2d", "GTX 470", False, 16, [32, 128], 10921, 213248, 43684),
    ("heat_2d", "NVS 5200M", True, 16, [32, 128], 8576, 213248, 43684),
    ("heat_2d", "NVS 5200M", False, 16, [32, 128], 10921, 213248, 43684),
    ("heat_3d", "GTX 470", True, 3, [5, 12, 32], 9408, 27648, 48216),
    ("heat_3d", "GTX 470", False, 2, [6, 16, 32], 11661, 27648, 46644),
    ("heat_3d", "NVS 5200M", True, 3, [5, 12, 32], 9408, 27648, 48216),
    ("heat_3d", "NVS 5200M", False, 2, [6, 16, 32], 11661, 27648, 46644),
    ("higher_order_time", "GTX 470", True, 16, [32], 85, 1938, 340),
    ("higher_order_time", "GTX 470", False, 16, [32], 85, 1938, 340),
    ("higher_order_time", "NVS 5200M", True, 16, [32], 85, 1938, 340),
    ("higher_order_time", "NVS 5200M", False, 16, [32], 85, 1938, 340),
    ("jacobi_1d", "GTX 470", True, 16, [32], 67, 1666, 268),
    ("jacobi_1d", "GTX 470", False, 16, [32], 67, 1666, 268),
    ("jacobi_1d", "NVS 5200M", True, 16, [32], 67, 1666, 268),
    ("jacobi_1d", "NVS 5200M", False, 16, [32], 67, 1666, 268),
    ("jacobi_2d", "GTX 470", True, 16, [32, 128], 8576, 213248, 43684),
    ("jacobi_2d", "GTX 470", False, 16, [32, 128], 10921, 213248, 43684),
    ("jacobi_2d", "NVS 5200M", True, 16, [32, 128], 8576, 213248, 43684),
    ("jacobi_2d", "NVS 5200M", False, 16, [32, 128], 10921, 213248, 43684),
    ("laplacian_2d", "GTX 470", True, 16, [32, 128], 8576, 213248, 43684),
    ("laplacian_2d", "GTX 470", False, 16, [32, 128], 10921, 213248, 43684),
    ("laplacian_2d", "NVS 5200M", True, 16, [32, 128], 8576, 213248, 43684),
    ("laplacian_2d", "NVS 5200M", False, 16, [32, 128], 10921, 213248, 43684),
    ("laplacian_3d", "GTX 470", True, 3, [5, 12, 32], 9408, 27648, 48216),
    ("laplacian_3d", "GTX 470", False, 2, [6, 16, 32], 11661, 27648, 46644),
    ("laplacian_3d", "NVS 5200M", True, 3, [5, 12, 32], 9408, 27648, 48216),
    ("laplacian_3d", "NVS 5200M", False, 2, [6, 16, 32], 11661, 27648, 46644),
    ("wide_1d", "GTX 470", True, 16, [32], 84, 1938, 336),
    ("wide_1d", "GTX 470", False, 16, [32], 84, 1938, 336),
    ("wide_1d", "NVS 5200M", True, 16, [32], 84, 1938, 336),
    ("wide_1d", "NVS 5200M", False, 16, [32], 84, 1938, 336),
    ("radius3_1d", "GTX 470", True, 16, [32], 135, 2754, 540),
    ("radius3_1d", "GTX 470", False, 16, [32], 135, 2754, 540),
    ("radius3_1d", "NVS 5200M", True, 16, [32], 135, 2754, 540),
    ("radius3_1d", "NVS 5200M", False, 16, [32], 135, 2754, 540),
    ("radius5_1d", "GTX 470", True, 16, [32], 203, 3842, 812),
    ("radius5_1d", "GTX 470", False, 16, [32], 203, 3842, 812),
    ("radius5_1d", "NVS 5200M", True, 16, [32], 203, 3842, 812),
    ("radius5_1d", "NVS 5200M", False, 16, [32], 203, 3842, 812),
]


@pytest.fixture(scope="module")
def canonical_forms():
    return {name: canonicalize(pinned_program(name)) for name, *_ in PINNED}


@pytest.mark.parametrize(
    "name,device,reuse,height,widths,loads,iterations,shared", PINNED
)
def test_model_selection_is_pinned(
    canonical_forms, name, device, reuse, height, widths, loads, iterations, shared
):
    estimate = select_tile_sizes(
        canonical_forms[name],
        shared_memory_limit=DEVICES[device].shared_memory_per_sm,
        warp_size=DEVICES[device].warp_size,
        inter_tile_reuse=reuse,
    )
    assert (
        estimate.sizes.height,
        list(estimate.sizes.widths),
        estimate.loads,
        estimate.iterations,
        estimate.shared_memory_bytes,
    ) == (height, widths, loads, iterations, shared)


def test_sub_minimal_w0_points_are_pruned_once(canonical_forms):
    """Radius 3 needs ``w_0 >= 2``: the 17 grid points with ``w_0 = 1`` are
    legality prunes and are not scored again at the minimum, so the model
    and the autotuner's space count the same 221 evaluated points."""
    canonical = canonical_forms["radius3_1d"]
    chosen = select_tile_sizes(canonical)
    expected = {
        "shared_memory_overflow": 0,
        "legality": 17,
        "occupancy_floor": 0,
        "evaluated": 221,
    }
    assert chosen.rejections == expected
    assert CandidateSpace(canonical, GTX470).rejections == expected
