"""Grayscale SVG rendering for influence heatmaps.

Output is deliberately minimal: one <rect> per cell, value mapped
linearly to luminance, no text, no external references. The byte stream
is a pure function of the input grid so rendered artifacts can be
compared with plain file equality.
"""

import numpy as np

__all__ = ["svg_lines", "CELL_PX"]

CELL_PX = 16


def svg_lines(grid) -> list:
    """The SVG document for a rectangular grid of values in [0, 1].

    Row r, column c of the grid becomes the cell at (c, r) in image
    coordinates, CELL_PX pixels on a side. Luminance is the linear map
    round(255 * value), so 0.0 is black and 1.0 is white.
    """
    try:
        arr = np.asarray(grid, dtype=float)
    except ValueError as exc:
        raise ValueError(f"heatmap grid is not rectangular: {exc}") from exc
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError(f"heatmap grid must be 2-D and non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("heatmap grid contains non-finite values")
    if arr.min() < 0.0 or arr.max() > 1.0:
        raise ValueError(
            f"heatmap values must lie in [0, 1], got range "
            f"[{arr.min()}, {arr.max()}]")
    n_rows, n_cols = arr.shape
    width, height = n_cols * CELL_PX, n_rows * CELL_PX
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'shape-rendering="crispEdges">'
    ]
    levels = np.rint(255.0 * arr).astype(int)
    for r in range(n_rows):
        for c in range(n_cols):
            lum = levels[r, c]
            fill = f"#{lum:02x}{lum:02x}{lum:02x}"
            lines.append(
                f'<rect x="{c * CELL_PX}" y="{r * CELL_PX}" '
                f'width="{CELL_PX}" height="{CELL_PX}" fill="{fill}"/>')
    lines.append("</svg>")
    return lines
