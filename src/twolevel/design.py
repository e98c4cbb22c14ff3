"""Budget-constrained (n, m) design exploration and static plot artifacts.

Designs are integer lattices filtered by a sampling budget, either the
product form ``n * m <= B`` or a linear cost model
``cost_n * n + cost_m * m <= B``.  Cells are annotated with the theoretical
rates and their cost-weighted gradients; emitters write self-contained SVG
quiver/heatmap figures plus CSV companions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .risk import RateGradient, RateQuery, rate_f, rate_g, rate_gradient

__all__ = [
    "DesignPoint",
    "DesignGrid",
    "enumerate_designs",
    "emit_gradient_map",
    "emit_heatmap",
]

GRADIENT_CSV_HEADER = "n,m,rate_g,rate_f,dgdn,dgdm,dfdn,dfdm,steeper_g,steeper_f"

# light-to-dark ramp; bin index increases with value
_BIN_COLORS = [
    "#f7fbff", "#deebf7", "#c6dbef", "#9ecae1", "#6baed6",
    "#4292c6", "#2171b5", "#08519c", "#08306b",
]


@dataclass(frozen=True)
class DesignPoint:
    """One feasible (n, m) cell with its rates and gradient annotations."""

    n: int
    m: int
    rate_g: float
    rate_f: float
    grad_g: RateGradient
    grad_f: RateGradient


@dataclass(frozen=True)
class DesignGrid:
    points: tuple
    budget: float
    mode: str
    cost_n: float
    cost_m: float
    alpha: float
    alpha_tilde: float

    def __len__(self) -> int:
        return len(self.points)


def _feasible(n: int, m: int, budget: float, mode: str, cost_n: float, cost_m: float) -> bool:
    if mode == "product":
        return n * m <= budget
    return cost_n * n + cost_m * m <= budget


def _candidates(limit: int, density) -> np.ndarray:
    if density is None:
        return np.arange(1, limit + 1)
    vals = np.unique(np.round(np.logspace(0.0, math.log10(max(limit, 1)), int(density))).astype(int))
    return vals[(vals >= 1) & (vals <= limit)]


def enumerate_designs(budget: float, alpha: float, alpha_tilde: float,
                      mode: str = "product", cost_n: float = 1.0, cost_m: float = 1.0,
                      density: int | None = None) -> DesignGrid:
    """Feasible integer designs under the budget, annotated with rates.

    ``density=None`` enumerates every feasible integer pair; otherwise a
    log-spaced lattice of about ``density`` values per axis is used.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    if mode not in ("product", "linear_cost"):
        raise ValueError(f"unknown budget mode {mode!r}")
    if mode == "product":
        n_limit = int(budget)
        m_limit = int(budget)
    else:
        n_limit = int((budget - cost_m) / cost_n)
        m_limit = int((budget - cost_n) / cost_m)
    if n_limit < 1 or m_limit < 1:
        raise ValueError("budget admits no feasible design")
    points = []
    for n in _candidates(n_limit, density):
        for m in _candidates(m_limit, density):
            if not _feasible(int(n), int(m), budget, mode, cost_n, cost_m):
                continue
            q = RateQuery(n=float(n), m=float(m), alpha=alpha, alpha_tilde=alpha_tilde,
                          cost_n=cost_n, cost_m=cost_m)
            points.append(DesignPoint(int(n), int(m), rate_g(q), rate_f(q),
                                      rate_gradient(q, "g"), rate_gradient(q, "f")))
    if not points:
        raise ValueError("budget admits no feasible design")
    return DesignGrid(tuple(points), budget, mode, cost_n, cost_m, alpha, alpha_tilde)


# ---------------------------------------------------------------------------
# Artifact emitters


def _svg_header(width: int, height: int, comment_lines) -> list[str]:
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
             f'viewBox="0 0 {width} {height}">']
    for ln in comment_lines:
        lines.append(f"<!-- {ln} -->")
    lines.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    return lines


def gradient_csv(grid: DesignGrid) -> str:
    lines = [GRADIENT_CSV_HEADER]
    for p in sorted(grid.points, key=lambda p: (p.n, p.m)):
        lines.append(f"{p.n},{p.m},{float(p.rate_g)!r},{float(p.rate_f)!r},"
                     f"{float(p.grad_g.dn)!r},{float(p.grad_g.dm)!r},"
                     f"{float(p.grad_f.dn)!r},{float(p.grad_f.dm)!r},"
                     f"{p.grad_g.steeper_axis},{p.grad_f.steeper_axis}")
    return "\n".join(lines) + "\n"


def emit_gradient_map(grid: DesignGrid, target: str, svg_path, csv_path,
                      header_lines=()) -> None:
    """Write a quiver-style SVG of unit negative-gradient arrows (colored by
    whether the n-axis or m-axis component is cost-steeper) plus a CSV of the
    underlying numbers."""
    if target not in ("g", "f"):
        raise ValueError(f"unknown target {target!r}")
    width = height = 640
    margin = 60
    xs = np.log10([p.n for p in grid.points])
    ys = np.log10([p.m for p in grid.points])
    span_x = max(xs.max() - xs.min(), 1e-9)
    span_y = max(ys.max() - ys.min(), 1e-9)
    arrow = 14.0
    lines = _svg_header(width, height, header_lines)
    lines.append(f'<text x="{width // 2}" y="20" text-anchor="middle" '
                 f'font-family="monospace" font-size="13">negative rate gradient, '
                 f'target {target} (log10 n vs log10 m)</text>')
    for p in sorted(grid.points, key=lambda p: (p.n, p.m)):
        grad = p.grad_g if target == "g" else p.grad_f
        x = margin + (math.log10(p.n) - xs.min()) / span_x * (width - 2 * margin)
        y = height - margin - (math.log10(p.m) - ys.min()) / span_y * (height - 2 * margin)
        norm = math.hypot(grad.dn, grad.dm)
        ux, uy = (-grad.dn / norm, -grad.dm / norm) if norm > 0 else (0.0, 0.0)
        # SVG y grows downward; a positive m-component points up the page.
        x2, y2 = x + arrow * ux, y - arrow * uy
        color = "#d62728" if grad.steeper_axis == "n" else "#1f77b4"
        lines.append(f'<line x1="{x:.2f}" y1="{y:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        lines.append(f'<circle cx="{x2:.2f}" cy="{y2:.2f}" r="2" fill="{color}"/>')
    lines.append("</svg>")
    with open(svg_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(csv_path, "w") as fh:
        for ln in header_lines:
            fh.write(f"# {ln}\n")
        fh.write(gradient_csv(grid))


def _check_rectangular(cells: dict):
    ns = sorted({n for n, _ in cells})
    ms = sorted({m for _, m in cells})
    missing = [(n, m) for n in ns for m in ms if (n, m) not in cells]
    if missing:
        raise ValueError(f"ragged (n, m) coverage; missing cells: {missing}")
    return ns, ms


def emit_heatmap(surface, svg_path, csv_path, header_lines=(), bins: int = 9,
                 label: str = "value") -> None:
    """Color-binned heatmap of a rectangular (n, m, value) surface.

    Bin edges are value quantiles and are recorded in the CSV companion.
    """
    cells = {(int(n), int(m)): float(v) for n, m, v in surface}
    ns, ms = _check_rectangular(cells)
    values = np.array([cells[(n, m)] for n in ns for m in ms])
    if np.ptp(values) == 0:
        edges = np.array([values[0], values[0]])
        nbins = 1
    else:
        edges = np.unique(np.quantile(values, np.linspace(0.0, 1.0, bins + 1)))
        nbins = edges.size - 1

    def bin_of(v: float) -> int:
        return int(min(np.searchsorted(edges, v, side="right") - 1, nbins - 1))

    width = height = 640
    margin = 60
    cw = (width - 2 * margin) / len(ns)
    ch = (height - 2 * margin) / len(ms)
    lines = _svg_header(width, height, header_lines)
    lines.append(f'<text x="{width // 2}" y="20" text-anchor="middle" '
                 f'font-family="monospace" font-size="13">{label} over (n, m)</text>')
    for i, n in enumerate(ns):
        for j, m in enumerate(ms):
            b = bin_of(cells[(n, m)])
            color = _BIN_COLORS[b * (len(_BIN_COLORS) - 1) // max(nbins - 1, 1)]
            x = margin + i * cw
            y = height - margin - (j + 1) * ch
            lines.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{cw:.2f}" height="{ch:.2f}" '
                         f'fill="{color}"><title>n={n} m={m} {label}={cells[(n, m)]:.6g}</title></rect>')
    lines.append("</svg>")
    with open(svg_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(csv_path, "w") as fh:
        for ln in header_lines:
            fh.write(f"# {ln}\n")
        fh.write(f"# bin_edges = {','.join(repr(float(e)) for e in edges)}\n")
        fh.write(f"n,m,{label},bin\n")
        for n in ns:
            for m in ms:
                fh.write(f"{n},{m},{float(cells[(n, m)])!r},{bin_of(cells[(n, m)])}\n")
