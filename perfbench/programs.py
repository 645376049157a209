"""Seeded generator of Figure-1-style C stencil programs for check-small.

Two classes, the ones a differential probe of the compiler covered:

* ``single``: one field, 1-3 dimensions, one statement reading the previous
  time step within a radius of at most 2, with mixed-sign coefficients and
  ``sqrtf`` terms;
* ``multi``: two or three fields updated in turn, FDTD-like: each statement
  reads its own field at ``t-1`` and differences of the other fields, at
  ``t`` for fields already updated in this time step and at ``t-1``
  otherwise.

Coefficients keep every update a contraction (the absolute weights sum to
less than one and ``sqrtf`` only appears as ``1/sqrtf(1 + x*x)``), so values
stay finite for any number of steps.  The compiler receives only the text.
"""

from __future__ import annotations

import itertools
import random

#: Small problem instances: (sizes, time steps) per dimensionality.
SMALL_INSTANCES = {1: ((128,), 16), 2: ((16, 16), 6), 3: ((10, 10, 10), 4)}

LOOP_VARS = ("i", "j", "k")

#: Program classes and the dimensionalities each is generated in.
CLASSES = (("single", 1), ("single", 2), ("single", 3), ("multi", 1), ("multi", 2))


def _coefficient(rng: random.Random) -> float:
    return round(rng.uniform(0.05, 0.3), 3)


def _access(field: str, time: str, offsets: tuple[int, ...]) -> str:
    subscripts = ""
    for var, offset in zip(LOOP_VARS, offsets):
        if offset > 0:
            subscripts += f"[{var}+{offset}]"
        elif offset < 0:
            subscripts += f"[{var}-{-offset}]"
        else:
            subscripts += f"[{var}]"
    return f"{field}[{time}]{subscripts}"


def _header(name: str, fields: list[str], ndim: int) -> list[str]:
    sizes, steps = SMALL_INSTANCES[ndim]
    lines = [f"/* {name} */", f"#define T {steps}"]
    lines += [f"#define N{axis} {size}" for axis, size in enumerate(sizes)]
    lines.append("")
    extents = "".join(f"[N{axis}]" for axis in range(ndim))
    lines += [f"float {field}[2]{extents};" for field in fields]
    lines += ["", "for (t = 0; t < T; t++) {"]
    return lines


def _loop_nest(ndim: int, radius: int, target: str, body: str) -> list[str]:
    lines: list[str] = []
    indent = "  "
    for axis in range(ndim):
        if axis == ndim - 1:
            lines.append("#pragma ivdep")
        var = LOOP_VARS[axis]
        lines.append(
            f"{indent}for ({var} = {radius}; {var} < N{axis} - {radius}; {var}++)"
        )
        indent += "  "
    subscripts = "".join(f"[{var}]" for var in LOOP_VARS[:ndim])
    lines.append(f"{indent}{target}[t]{subscripts} = {body};")
    return lines


def _single(rng: random.Random, name: str, ndim: int) -> str:
    radius = rng.choice((1, 2))
    offsets = list(itertools.product(range(-radius, radius + 1), repeat=ndim))
    reads = rng.sample(offsets, rng.randint(3, min(7, len(offsets))))
    if (0,) * ndim not in reads:
        reads[0] = (0,) * ndim
    weights = [_coefficient(rng) for _ in reads]
    scale = 0.95 / sum(weights)
    terms = []
    for index, (offset, weight) in enumerate(zip(reads, weights)):
        coefficient = f"{weight * scale:.4f}f"
        term = f"{coefficient} * {_access('A', 't-1', offset)}"
        if rng.random() < 0.35:
            other = _access("A", "t-1", rng.choice(reads))
            term += f" / sqrtf(1.0f + {other} * {other})"
        sign = "" if index == 0 else rng.choice((" + ", " - "))
        terms.append(f"{sign}({term})")
    lines = _header(name, ["A"], ndim)
    lines += _loop_nest(ndim, radius, "A", "".join(terms))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _multi(rng: random.Random, name: str, ndim: int) -> str:
    fields = rng.choice((["ex", "hz"], ["ex", "ey", "hz"], ["u", "v", "w"]))
    lines = _header(name, fields, ndim)
    for position, target in enumerate(fields):
        others = [field for field in fields if field != target]
        terms = [f"{_access(target, 't-1', (0,) * ndim)}"]
        for other in others:
            time = "t" if fields.index(other) < position else "t-1"
            axis = rng.randrange(ndim)
            shift = tuple(rng.choice((-1, 1)) if a == axis else 0 for a in range(ndim))
            difference = (
                f"{_access(other, time, shift)} - {_access(other, time, (0,) * ndim)}"
            )
            sign = rng.choice(("+", "-"))
            terms.append(f" {sign} {_coefficient(rng) * 1.5:.4f}f * ({difference})")
        lines += _loop_nest(ndim, 1, target, "".join(terms))
    lines.append("}")
    return "\n".join(lines) + "\n"


def generate(seed: int, count: int, offset: int = 0) -> list[tuple[str, str, str]]:
    """``count`` programs as ``(name, class, source)``, determined by ``seed``.

    Classes cycle so every batch covers them evenly; the seed drives the
    class order, radii, footprints, coefficients and field names.
    """
    rng = random.Random(f"check-small/{seed}/{offset}")
    classes = list(CLASSES)
    rng.shuffle(classes)
    programs = []
    for index in range(count):
        kind, ndim = classes[(offset + index) % len(classes)]
        name = f"gen_{seed}_{offset + index}_{kind}_{ndim}d"
        source = (_single if kind == "single" else _multi)(rng, name, ndim)
        programs.append((name, f"{kind}-{ndim}d", source))
    return programs
