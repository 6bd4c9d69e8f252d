"""ASCII renderings of the paper's figures.

The benchmark harness prints tables; these helpers add terminal-friendly
charts so the *shape* of a reproduced figure (growth, crossover, plateau)
is visible at a glance in `benchmarks/results/` without a plotting stack.
"""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["ascii_series"]

_MARKS = "*o+x#@%&"


def ascii_series(
    series: dict[str, Sequence[float]],
    xlabels: Sequence,
    height: int = 12,
    logy: bool = False,
    title: str = "",
) -> str:
    """Plot one or more y-series over a shared categorical x-axis."""
    if not series:
        raise ValueError("need at least one series")
    npoints = len(xlabels)
    for name, ys in series.items():
        if len(ys) != npoints:
            raise ValueError(f"series {name!r} has {len(ys)} points, x-axis has {npoints}")
    all_y = [y for ys in series.values() for y in ys]
    if logy and min(all_y) <= 0:
        raise ValueError("logy requires positive values")
    tr = (lambda v: math.log10(v)) if logy else (lambda v: v)
    lo = min(tr(v) for v in all_y)
    hi = max(tr(v) for v in all_y)
    span = (hi - lo) or 1.0

    col_width = max(max(len(str(x)) for x in xlabels) + 1, 6)
    width = col_width * npoints
    grid = [[" "] * width for _ in range(height)]
    for si, (name, ys) in enumerate(series.items()):
        mark = _MARKS[si % len(_MARKS)]
        for i, y in enumerate(ys):
            row = height - 1 - int(round((tr(y) - lo) / span * (height - 1)))
            col = i * col_width + col_width // 2
            grid[row][col] = mark

    lines = []
    if title:
        lines.append(title)
    top = f"{10**hi:.3g}" if logy else f"{hi:.3g}"
    bot = f"{10**lo:.3g}" if logy else f"{lo:.3g}"
    label_w = max(len(top), len(bot))
    for r, row in enumerate(grid):
        label = top if r == 0 else (bot if r == height - 1 else "")
        lines.append(f"{label:>{label_w}} |" + "".join(row))
    lines.append(" " * label_w + " +" + "-" * width)
    lines.append(
        " " * label_w + "  " + "".join(str(x).center(col_width) for x in xlabels)
    )
    legend = "   ".join(
        f"{_MARKS[i % len(_MARKS)]} {name}" for i, name in enumerate(series)
    )
    lines.append(" " * label_w + "  " + legend)
    return "\n".join(lines)
