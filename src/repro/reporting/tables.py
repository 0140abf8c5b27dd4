"""Plain-text table and distribution rendering for benches and examples."""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence


def format_percent(value: float | None) -> str:
    """``0.147 -> '14.7%'``; ``None -> 'NA'``."""
    if value is None:
        return "NA"
    return f"{value * 100:.1f}%"


def ascii_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    title: str | None = None,
) -> str:
    """Render a boxed ASCII table."""
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}: {row}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "+" + "+".join("-" * (w + 2) for w in widths) + "+"
    lines = []
    if title:
        lines.append(title)
    lines.append(sep)
    lines.append(
        "|" + "|".join(f" {h:<{w}} " for h, w in zip(headers, widths)) + "|"
    )
    lines.append(sep)
    for row in rows:
        lines.append(
            "|" + "|".join(f" {c:<{w}} " for c, w in zip(row, widths)) + "|"
        )
    lines.append(sep)
    return "\n".join(lines)


#: Characters in the longest bar of a distribution chart.
_BAR_WIDTH = 40
#: Rows a CDF rendering aims for.
_CDF_ROWS = 12


def render_distribution(
    dist: Mapping[object, float],
    *,
    title: str | None = None,
) -> str:
    """Horizontal bar chart of a share distribution."""
    lines = [title] if title else []
    if not dist:
        return (title or "") + " (empty)"
    peak = max(dist.values()) or 1.0
    for key, value in dist.items():
        name = getattr(key, "value", key)
        bar = "#" * max(1, int(round(_BAR_WIDTH * value / peak))) if value > 0 else ""
        lines.append(f"  {str(name):<24s} {format_percent(value):>7s}  {bar}")
    return "\n".join(lines)


def render_cdf_series(
    series: Sequence[tuple[float, float]],
    *,
    title: str | None = None,
) -> str:
    """Compact textual rendering of a CDF: value -> cumulative probability."""
    lines = [title] if title else []
    if not series:
        return (title or "") + " (empty)"
    step = max(1, len(series) // _CDF_ROWS)
    for x, p in series[::step]:
        lines.append(f"  {x:10.2f}  {format_percent(p):>7s}")
    return "\n".join(lines)
