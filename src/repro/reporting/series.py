"""Figure data series.

No plotting backend is assumed (benchmarks run headless);
figures are reproduced as printable / CSV-exportable data series whose
shape can be compared against the paper's plots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Series:
    """One labelled x/y data series."""

    label: str
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x)
        self.y = np.asarray(self.y)
        if self.x.shape != self.y.shape:
            raise ValueError(
                f"series {self.label!r}: x {self.x.shape} and y "
                f"{self.y.shape} must match")

    def to_csv(self) -> str:
        lines = [f"x,{self.label}"]
        lines.extend(f"{xv:.9g},{yv:.9g}" for xv, yv in zip(self.x, self.y))
        return "\n".join(lines)


def format_series(series_list, x_label: str = "x",
                  title: str = "") -> str:
    """Tabulate multiple series sharing the same x grid."""
    if not series_list:
        return title
    x = series_list[0].x
    for s in series_list[1:]:
        if s.x.shape != x.shape or not np.allclose(s.x, x):
            raise ValueError("all series must share the same x grid")
    headers = [x_label] + [s.label for s in series_list]
    widths = [max(len(h), 12) for h in headers]
    lines = [title] if title else []
    lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for i in range(x.size):
        cells = [f"{x[i]:.6g}"] + [f"{s.y[i]:.6g}" for s in series_list]
        lines.append("  ".join(c.rjust(w) for c, w in zip(cells, widths)))
    return "\n".join(lines)
