"""Plain-text rendering of experiment results, and the paper's claims.

The paper's figures are bar charts and CDFs; ``experiments.run`` prints
them as aligned text tables / (value, fraction) series, with a PASS/FAIL
line per paper claim, so results live in the terminal and docs/FIGURES.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Mapping, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Claim:
    """A paper claim: a sentence and a predicate over a result (and ``needs``'s result)."""

    text: str
    holds: Callable[..., bool]
    needs: str = ""


def format_report(result, others: Optional[Mapping[str, object]] = None) -> str:
    """The table, then a verdict per claim; ``others`` maps names to results."""
    lines = [result.format_table()]
    for claim in result.claims:
        if claim.needs and claim.needs not in (others or {}):
            lines.append(f"n/a   {claim.text} (needs {claim.needs}: run 'all')")
            continue
        extra = (others[claim.needs],) if claim.needs else ()
        lines.append(f"{'PASS' if claim.holds(result, *extra) else 'FAIL'}  {claim.text}")
    return "\n".join(lines)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = "") -> str:
    """Monospace table with right-aligned numeric columns."""
    str_rows: List[List[str]] = []
    for row in rows:
        str_rows.append([_cell(value) for value in row])
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def format_cdf(name: str, points: Sequence[Tuple[float, float]], max_points: int = 12) -> str:
    """Compact text rendering of a CDF: value@fraction pairs."""
    if not points:
        return f"{name}: (empty)"
    step = max(1, len(points) // max_points)
    sampled = points[::step]
    if sampled[-1] != points[-1]:
        sampled = list(sampled) + [points[-1]]
    pairs = "  ".join(f"{v:.0f}@{f * 100:.0f}%" for v, f in sampled)
    return f"{name}: {pairs}"
