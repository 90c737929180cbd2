"""Terminal rendering of visualized frontiers.

``Visualize`` in Algorithm 1 shows the user the cost tradeoffs of all completed
query plans that respect the current bounds at the current resolution.  This
module renders them without any plotting dependency:

* :func:`ascii_scatter` -- a terminal scatter plot of two metrics, used by the
  examples to "draw" Figure 1 style pictures,
* :func:`format_stream_line` -- one line per streamed frontier update.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

from repro.costs.vector import CostVector


def ascii_scatter(
    costs: Sequence[CostVector],
    x_metric: int = 0,
    y_metric: int = 1,
    width: int = 60,
    height: int = 20,
    x_label: str = "x",
    y_label: str = "y",
    bounds: Optional[CostVector] = None,
) -> str:
    """Render a two-metric scatter plot of plan costs as ASCII art.

    Points are marked ``*``; when ``bounds`` is given, the bound position is
    marked with ``|`` and ``-`` lines (the draggable bounds of Figure 1).
    Returns the multi-line string; the caller decides whether to print it.
    """
    if width < 10 or height < 5:
        raise ValueError("the plot needs at least 10x5 characters")
    finite = [c for c in costs if math.isfinite(c[x_metric]) and math.isfinite(c[y_metric])]
    if not finite:
        return "(no plans to display)"
    xs = [c[x_metric] for c in finite]
    ys = [c[y_metric] for c in finite]
    x_max = max(xs) * 1.05 or 1.0
    y_max = max(ys) * 1.05 or 1.0
    grid = [[" " for _ in range(width)] for _ in range(height)]

    def col_of(x: float) -> int:
        return min(width - 1, int(x / x_max * (width - 1)))

    def row_of(y: float) -> int:
        # Row 0 is the top of the plot; large y values appear near the top.
        return min(height - 1, height - 1 - int(y / y_max * (height - 1)))

    if bounds is not None:
        bx, by = bounds[x_metric], bounds[y_metric]
        if math.isfinite(bx) and bx <= x_max:
            col = col_of(bx)
            for row in range(height):
                grid[row][col] = "|"
        if math.isfinite(by) and by <= y_max:
            row = row_of(by)
            for col in range(width):
                grid[row][col] = "-"
    for cost in finite:
        grid[row_of(cost[y_metric])][col_of(cost[x_metric])] = "*"

    lines = [f"{y_label} (max {y_max:.3g})"]
    lines.extend("".join(row) for row in grid)
    lines.append("-" * width)
    lines.append(f"{'':>{max(0, width - len(x_label) - 12)}}{x_label} (max {x_max:.3g})")
    return "\n".join(lines)


def format_stream_line(payload: Mapping) -> str:
    """One-line rendering of a wire ``frontier_update`` payload.

    Shared by ``repro-moqo submit --stream`` and the service examples so that
    every remotely streamed invocation prints the same way: invocation index,
    resolution level, precision factor, duration and frontier size.
    """
    invocation = payload["invocation"]
    duration_ms = float(invocation["duration_seconds"]) * 1000.0
    return (
        f"  [{invocation['index']:>3}] resolution {invocation['resolution']}  "
        f"alpha {float(invocation['alpha']):.4g}  "
        f"{duration_ms:8.1f} ms  {len(payload['frontier'])} tradeoffs"
    )
