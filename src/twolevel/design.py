"""Budget-constrained (n, m) design exploration and static plot artifacts.

A design observes m subjects at n observations each.  It costs
``m * (per_subject + per_obs * n)``: a fixed cost per subject plus one per
observation taken, so the defaults ``per_subject=0, per_obs=1`` give the
product budget ``n * m``.  :func:`lattice` lists the integer designs a budget
admits, every pair or a log-spaced lattice, and every design command reads
it.  :func:`enumerate_designs` annotates its designs with the theoretical
rates and their gradients per unit step (one more observation per subject
against one more subject), so the costs decide which designs appear, not
where the arrows point.  The emitters render self-contained SVG
quiver/heatmap figures and their CSV companions as text; the CLI writes that
text to files, with its configuration header.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .risk import RateGradient, RateQuery, rate_f, rate_g, rate_gradient

__all__ = [
    "lattice",
    "DesignPoint",
    "DesignGrid",
    "enumerate_designs",
    "emit_gradient_map",
    "emit_heatmap",
]

# every integer up to 2**53 is exact as a float, and the int64 lattice values
# up to it cannot wrap
MAX_BUDGET = 2**53

GRADIENT_CSV_HEADER = "n,m,rate_g,rate_f,dgdn,dgdm,dfdn,dfdm,steeper_g,steeper_f"

# quantile bins of a heatmap's values, at most one per color of the ramp
HEATMAP_BINS = 9

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


def _candidates(limit: int, density) -> np.ndarray:
    if density is None:
        return np.arange(1, limit + 1)
    vals = np.unique(np.round(np.logspace(0.0, math.log10(limit), int(density))).astype(int))
    return vals[(vals >= 1) & (vals <= limit)]


def lattice(budget: float, density: int | None = None, per_subject: float = 0.0,
            per_obs: float = 1.0) -> list[tuple[int, int]]:
    """The integer designs (n, m) with ``m * (per_subject + per_obs * n) <= budget``,
    n ascending and then m.

    ``density=None`` takes every integer on each axis; otherwise about
    ``density`` log-spaced values from 1 to the axis's largest feasible value.
    The cost is compared exactly, on the floats as given.
    """
    if not 0 < budget <= MAX_BUDGET:
        raise ValueError(f"budget must be a finite number in (0, 2**53 = {MAX_BUDGET}], "
                         f"got {budget!r}")
    if not 0 < per_obs < math.inf:
        raise ValueError(f"per_obs must be a finite number above 0, got {per_obs!r}")
    if not 0 <= per_subject < math.inf:
        raise ValueError(f"per_subject must be a finite number of at least 0, "
                         f"got {per_subject!r}")
    cost0, cost1, total = Fraction(per_subject), Fraction(per_obs), Fraction(budget)
    if total < cost0 + cost1:  # not even one subject observed once
        raise ValueError("budget admits no feasible design")
    # the deepest design has one subject, the widest one observation each
    n_limit, m_limit = (total - cost0) // cost1, total // (cost0 + cost1)
    if max(n_limit, m_limit) > MAX_BUDGET:
        raise ValueError(f"budget {budget!r} at per_subject {per_subject!r} and per_obs "
                         f"{per_obs!r} admits axis values past 2**53 = {MAX_BUDGET}")
    m_axis = _candidates(m_limit, density).tolist()
    pairs = []
    for n in _candidates(n_limit, density).tolist():
        m_top = total // (cost0 + cost1 * n)
        pairs += [(n, m) for m in m_axis[:bisect_right(m_axis, m_top)]]
    return pairs


def enumerate_designs(budget: float, alpha: float, alpha_tilde: float,
                      per_subject: float = 0.0, per_obs: float = 1.0,
                      density: int | None = None) -> DesignGrid:
    """The designs of :func:`lattice`, annotated with their rates and the
    rates' gradients per unit step of n and of m."""
    points = []
    for n, m in lattice(budget, density, per_subject, per_obs):
        q = RateQuery(n=float(n), m=float(m), alpha=alpha, alpha_tilde=alpha_tilde)
        points.append(DesignPoint(n, m, rate_g(q), rate_f(q),
                                  rate_gradient(q, "g"), rate_gradient(q, "f")))
    return DesignGrid(tuple(points))


# ---------------------------------------------------------------------------
# Artifact emitters


def _svg_header(width: int, height: int) -> list[str]:
    return [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
            f'viewBox="0 0 {width} {height}">',
            f'<rect width="{width}" height="{height}" fill="white"/>']


def gradient_csv(grid: DesignGrid) -> str:
    lines = [GRADIENT_CSV_HEADER]
    for p in sorted(grid.points, key=lambda p: (p.n, p.m)):
        lines.append(f"{p.n},{p.m},{float(p.rate_g)!r},{float(p.rate_f)!r},"
                     f"{float(p.grad_g.dn)!r},{float(p.grad_g.dm)!r},"
                     f"{float(p.grad_f.dn)!r},{float(p.grad_f.dm)!r},"
                     f"{p.grad_g.steeper_axis},{p.grad_f.steeper_axis}")
    return "\n".join(lines) + "\n"


def emit_gradient_map(grid: DesignGrid, target: str) -> tuple[str, str]:
    """A quiver-style SVG of unit negative-gradient arrows (colored by whether
    the n-axis or m-axis component is steeper per unit step) and a CSV of the
    underlying numbers, as ``(svg_text, csv_text)``."""
    if target not in ("g", "f"):
        raise ValueError(f"unknown target {target!r}")
    width = height = 640
    margin = 60
    xs = np.log10([p.n for p in grid.points])
    ys = np.log10([p.m for p in grid.points])
    span_x = max(xs.max() - xs.min(), 1e-9)
    span_y = max(ys.max() - ys.min(), 1e-9)
    arrow = 14.0
    lines = _svg_header(width, height)
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
    return "\n".join(lines) + "\n", gradient_csv(grid)


def emit_heatmap(surface, label: str = "value") -> tuple[str, str]:
    """Color-binned heatmap of an (n, m, value) surface, as
    ``(svg_text, csv_text)``.

    One column per distinct n and one row per distinct m; a cell the surface
    lacks is left blank, and the CSV lists the given cells in (n, m) order.
    Bin edges are value quantiles and are recorded in the CSV companion.
    """
    cells = sorted({(int(n), int(m)): float(v) for n, m, v in surface}.items())
    column = {n: i for i, n in enumerate(sorted({n for (n, _), _ in cells}))}
    row = {m: j for j, m in enumerate(sorted({m for (_, m), _ in cells}))}
    values = np.array([v for _, v in cells])
    if np.ptp(values) == 0:
        edges = np.array([values[0], values[0]])
        nbins = 1
    else:
        edges = np.unique(np.quantile(values, np.linspace(0.0, 1.0, HEATMAP_BINS + 1)))
        nbins = edges.size - 1
    cell_bins = np.minimum(np.searchsorted(edges, values, side="right") - 1, nbins - 1).tolist()

    width = height = 640
    margin = 60
    cw = (width - 2 * margin) / len(column)
    ch = (height - 2 * margin) / len(row)
    lines = _svg_header(width, height)
    lines.append(f'<text x="{width // 2}" y="20" text-anchor="middle" '
                 f'font-family="monospace" font-size="13">{label} over (n, m)</text>')
    for ((n, m), v), b in zip(cells, cell_bins):
        color = _BIN_COLORS[b * (len(_BIN_COLORS) - 1) // max(nbins - 1, 1)]
        x = margin + column[n] * cw
        y = height - margin - (row[m] + 1) * ch
        lines.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{cw:.2f}" height="{ch:.2f}" '
                     f'fill="{color}"><title>n={n} m={m} {label}={v:.6g}</title></rect>')
    lines.append("</svg>")
    rows = [f"# bin_edges = {','.join(repr(float(e)) for e in edges)}", f"n,m,{label},bin"]
    rows += [f"{n},{m},{v!r},{b}" for ((n, m), v), b in zip(cells, cell_bins)]
    return "\n".join(lines) + "\n", "\n".join(rows) + "\n"
