"""Plain-text and SVG charts without a plotting dependency.

The CLI prints the figures' data as tables; these helpers additionally
render them as ASCII charts so the *shape* of a figure (the Figure 5
crossover, the Figure 7 trend) is visible at a glance without matplotlib,
which is not a dependency of this package.  The SVG variants
serve the same purpose for the HTML report (``repro report``): pure-string
generation, deterministic output (fixed-precision coordinates, stable
iteration order), no external library.
"""

from __future__ import annotations

import html
from typing import Mapping, Optional, Sequence, Tuple

__all__ = [
    "ascii_line_chart",
    "svg_line_chart",
    "svg_bar_chart",
]

def _escape(text: str) -> str:
    """Escape ``&``, ``<`` and ``>`` for SVG element text (quotes stay as they are)."""
    return html.escape(text, quote=False)


def ascii_line_chart(
    series: Mapping[str, Sequence[Tuple[float, float]]],
    *,
    width: int = 60,
    height: int = 15,
    y_min: Optional[float] = None,
    y_max: Optional[float] = None,
    title: str = "",
) -> str:
    """Render one or more ``(x, y)`` series on a shared ASCII grid.

    Each series gets a distinct marker character; overlapping points show
    the marker of the last series drawn.  Intended for the monotone ratio
    curves of Figures 5/9, so no axis ticks beyond the extremes are drawn.
    """
    if width < 10 or height < 4:
        raise ValueError("width must be >= 10 and height >= 4")
    all_points = [(x, y) for values in series.values() for x, y in values]
    if not all_points:
        return "(no data)"
    xs = [x for x, _ in all_points]
    ys = [y for _, y in all_points]
    x_lo, x_hi = min(xs), max(xs)
    lo = min(ys) if y_min is None else y_min
    hi = max(ys) if y_max is None else y_max
    if hi <= lo:
        hi = lo + 1.0
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0

    grid = [[" " for _ in range(width)] for _ in range(height)]
    markers = "*o+x#@%&"
    legend = []
    for index, (name, values) in enumerate(series.items()):
        marker = markers[index % len(markers)]
        legend.append(f"{marker} {name}")
        for x, y in values:
            col = int((x - x_lo) / (x_hi - x_lo) * (width - 1))
            row = int((y - lo) / (hi - lo) * (height - 1))
            row = height - 1 - max(0, min(height - 1, row))
            grid[row][max(0, min(width - 1, col))] = marker

    lines = []
    if title:
        lines.append(title)
    lines.append(f"{hi:8.3f} ┐")
    for row in grid:
        lines.append("         │" + "".join(row))
    lines.append(f"{lo:8.3f} └" + "─" * width)
    lines.append(f"          x: {x_lo:g} … {x_hi:g}")
    lines.extend(f"          {entry}" for entry in legend)
    return "\n".join(lines)


# --------------------------------------------------------------------------- #
# SVG variants (for the HTML report)
# --------------------------------------------------------------------------- #
#: Line colours cycled by series index -- a small colour-blind-safe palette.
_SVG_PALETTE = ("#0072b2", "#d55e00", "#009e73", "#cc79a7", "#e69f00", "#56b4e9")

_SVG_MARGIN = 45.0


def _svg_coord(value: float) -> str:
    """Fixed-precision coordinate: identical strings on every platform."""
    return f"{value:.2f}"


def svg_line_chart(
    series: Mapping[str, Sequence[Tuple[float, float]]],
    *,
    width: int = 520,
    height: int = 260,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render ``(x, y)`` series as a self-contained SVG string.

    Deterministic by construction: coordinates are formatted at fixed
    precision and series draw in mapping order, so the same data always
    yields byte-identical markup (what the report's determinism test
    relies on).
    """
    points = [(x, y) for values in series.values() for x, y in values]
    if not points:
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="40"><text x="4" y="24" font-size="13">(no data)</text></svg>'
        )
    xs = [x for x, _ in points]
    ys = [y for _, y in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(min(ys), 0.0), max(ys)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    plot_w = width - 2 * _SVG_MARGIN
    plot_h = height - 2 * _SVG_MARGIN

    def px(x: float) -> str:
        return _svg_coord(_SVG_MARGIN + (x - x_lo) / (x_hi - x_lo) * plot_w)

    def py(y: float) -> str:
        return _svg_coord(height - _SVG_MARGIN - (y - y_lo) / (y_hi - y_lo) * plot_h)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="sans-serif">',
        f'<rect x="{_svg_coord(_SVG_MARGIN)}" y="{_svg_coord(_SVG_MARGIN)}" '
        f'width="{_svg_coord(plot_w)}" height="{_svg_coord(plot_h)}" '
        f'fill="none" stroke="#999"/>',
    ]
    if title:
        parts.append(
            f'<text x="{_svg_coord(width / 2)}" y="20" text-anchor="middle" '
            f'font-size="14">{_escape(title)}</text>'
        )
    # Extremal axis labels only -- enough to read scale without tick logic.
    parts.append(
        f'<text x="{_svg_coord(_SVG_MARGIN)}" y="{_svg_coord(height - 28.0)}" '
        f'font-size="11">{x_lo:g}</text>'
    )
    parts.append(
        f'<text x="{_svg_coord(width - _SVG_MARGIN)}" '
        f'y="{_svg_coord(height - 28.0)}" text-anchor="end" '
        f'font-size="11">{x_hi:g}</text>'
    )
    parts.append(
        f'<text x="{_svg_coord(_SVG_MARGIN - 5.0)}" '
        f'y="{_svg_coord(height - _SVG_MARGIN)}" text-anchor="end" '
        f'font-size="11">{y_lo:g}</text>'
    )
    parts.append(
        f'<text x="{_svg_coord(_SVG_MARGIN - 5.0)}" '
        f'y="{_svg_coord(_SVG_MARGIN + 4.0)}" text-anchor="end" '
        f'font-size="11">{y_hi:g}</text>'
    )
    if x_label:
        parts.append(
            f'<text x="{_svg_coord(width / 2)}" y="{_svg_coord(height - 8.0)}" '
            f'text-anchor="middle" font-size="12">{_escape(x_label)}</text>'
        )
    if y_label:
        parts.append(
            f'<text x="14" y="{_svg_coord(height / 2)}" text-anchor="middle" '
            f'font-size="12" transform="rotate(-90 14 {_svg_coord(height / 2)})">'
            f"{_escape(y_label)}</text>"
        )
    legend_y = _SVG_MARGIN + 14.0
    for index, (name, values) in enumerate(series.items()):
        if not values:
            continue
        colour = _SVG_PALETTE[index % len(_SVG_PALETTE)]
        coords = " ".join(f"{px(x)},{py(y)}" for x, y in values)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{colour}" '
            f'stroke-width="1.5"/>'
        )
        for x, y in values:
            parts.append(f'<circle cx="{px(x)}" cy="{py(y)}" r="2.5" fill="{colour}"/>')
        parts.append(
            f'<text x="{_svg_coord(_SVG_MARGIN + 8.0)}" '
            f'y="{_svg_coord(legend_y)}" font-size="11" '
            f'fill="{colour}">{_escape(str(name))}</text>'
        )
        legend_y += 14.0
    parts.append("</svg>")
    return "".join(parts)


def svg_bar_chart(
    rows: Sequence[Tuple[str, float]],
    *,
    width: int = 520,
    bar_height: int = 18,
    title: str = "",
) -> str:
    """Render labelled values as horizontal SVG bars (deterministic string)."""
    if not rows:
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="40"><text x="4" y="24" font-size="13">(no data)</text></svg>'
        )
    max_value = max(value for _, value in rows)
    if max_value <= 0:
        max_value = 1.0
    label_w = 150.0
    top = 30.0 if title else 8.0
    height = top + len(rows) * (bar_height + 6) + 8
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{_svg_coord(height)}" font-family="sans-serif">'
    ]
    if title:
        parts.append(
            f'<text x="{_svg_coord(width / 2)}" y="20" text-anchor="middle" '
            f'font-size="14">{_escape(title)}</text>'
        )
    for index, (label, value) in enumerate(rows):
        y = top + index * (bar_height + 6)
        bar_w = max(0.0, value) / max_value * (width - label_w - 70.0)
        colour = _SVG_PALETTE[index % len(_SVG_PALETTE)]
        parts.append(
            f'<text x="{_svg_coord(label_w - 6.0)}" '
            f'y="{_svg_coord(y + bar_height * 0.72)}" text-anchor="end" '
            f'font-size="11">{_escape(str(label))}</text>'
        )
        parts.append(
            f'<rect x="{_svg_coord(label_w)}" y="{_svg_coord(y)}" '
            f'width="{_svg_coord(bar_w)}" height="{bar_height}" fill="{colour}"/>'
        )
        parts.append(
            f'<text x="{_svg_coord(label_w + bar_w + 5.0)}" '
            f'y="{_svg_coord(y + bar_height * 0.72)}" '
            f'font-size="11">{value:g}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)
