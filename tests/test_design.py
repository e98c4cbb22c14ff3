import math
import re

import numpy as np
import pytest

from twolevel.design import (GRADIENT_CSV_HEADER, emit_gradient_map, emit_heatmap,
                             enumerate_designs, gradient_csv, lattice)
from twolevel.risk import RateQuery, rate_f, rate_g

from reference import product_lattice


class TestEnumerate:
    def test_product_budget_exhaustive(self):
        grid = enumerate_designs(12, alpha=1.0, alpha_tilde=0.5)
        pairs = {(p.n, p.m) for p in grid.points}
        expected = {(n, m) for n in range(1, 13) for m in range(1, 13) if n * m <= 12}
        assert pairs == expected

    @pytest.mark.parametrize("per_subject,per_obs", [(0.0, 1.0), (10.0, 1.0), (0.5, 0.25),
                                                     (3.0, 2.0)])
    @pytest.mark.parametrize("budget", [1, 10, 37.5, 150.7])
    def test_two_level_cost_budget(self, budget, per_subject, per_obs):
        # every integer pair whose axis values could be feasible at all
        brute = [(n, m) for n in range(1, int(budget / per_obs) + 2)
                 for m in range(1, int(budget / (per_subject + per_obs)) + 2)
                 if m * (per_subject + per_obs * n) <= budget]
        if not brute:
            with pytest.raises(ValueError, match="^budget admits no feasible design$"):
                lattice(budget, per_subject=per_subject, per_obs=per_obs)
        else:
            assert lattice(budget, per_subject=per_subject, per_obs=per_obs) == brute

    @pytest.mark.parametrize("budget", [1, 12, 100, 120, 150.7, 5000, 20000, 10**6, 2**53])
    def test_default_cost_is_the_product_budget(self, budget):
        # every integer pair too, where the pairs are few enough to list
        for density in [*range(1, 20), *([None] if budget < 200 else [])]:
            assert lattice(budget, density) == product_lattice(budget, density), density

    @pytest.mark.parametrize("per_subject,per_obs", [(0.0, 1.0), (10.0, 1.0), (0.5, 0.25)])
    def test_points_list_the_lattice(self, per_subject, per_obs):
        grid = enumerate_designs(300, 1.0, 0.5, per_subject=per_subject, per_obs=per_obs,
                                 density=7)
        assert [(p.n, p.m) for p in grid.points] == lattice(300, 7, per_subject, per_obs)

    def test_density_thins_lattice(self):
        full = enumerate_designs(10000, alpha=1.0, alpha_tilde=0.5, density=8)
        assert len(full.points) <= 64
        ns = {p.n for p in full.points}
        assert 1 in ns and max(ns) > 1000

    def test_annotations_match_rate_functions(self):
        grid = enumerate_designs(30, alpha=0.7, alpha_tilde=0.3)
        for p in grid.points[:10]:
            q = RateQuery(p.n, p.m, 0.7, 0.3)
            assert p.rate_g == pytest.approx(rate_g(q))
            assert p.rate_f == pytest.approx(rate_f(q))

    def test_infeasible_budget(self):
        with pytest.raises(ValueError):
            enumerate_designs(0.5, alpha=1.0, alpha_tilde=0.5)
        with pytest.raises(ValueError):
            enumerate_designs(-3, alpha=1.0, alpha_tilde=0.5)

    def test_cheap_axis_past_exact_integers(self):
        # a cost per observation below 1 lets the n axis run past the budget itself
        with pytest.raises(ValueError, match=r"^budget 1000000000000000.0 at per_subject 0.0 "
                                             r"and per_obs 1e-06 admits axis values past "
                                             r"2\*\*53 = 9007199254740992$"):
            lattice(1e15, 3, per_obs=1e-6)
        pairs = lattice(1e15, 3, per_obs=0.5)
        assert max(n for n, _ in pairs) == 2 * 10**15
        assert max(m for _, m in pairs) == 2 * 10**15

    @pytest.mark.parametrize("name,value", [
        ("per_obs", 0.0), ("per_obs", -1.0), ("per_obs", math.nan), ("per_obs", math.inf),
        ("per_subject", -1.0), ("per_subject", math.nan), ("per_subject", math.inf)])
    def test_bad_cost_rejected(self, name, value):
        bound = {"per_obs": "above 0", "per_subject": "of at least 0"}[name]
        message = re.escape(f"{name} must be a finite number {bound}, got {value!r}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            lattice(10, **{name: value})
        with pytest.raises(ValueError, match=f"^{message}$"):
            enumerate_designs(10, 1.0, 0.5, **{name: value})


class TestGradientMap:
    def test_csv_header_and_rows(self):
        grid = enumerate_designs(20, alpha=1.0, alpha_tilde=0.5)
        text = gradient_csv(grid)
        lines = text.strip().splitlines()
        assert lines[0] == GRADIENT_CSV_HEADER
        assert len(lines) == len(grid.points) + 1
        first = lines[1].split(",")
        assert len(first) == 10
        assert first[8] in ("n", "m") and first[9] in ("n", "m")

    def test_emit_renders_svg_and_csv(self):
        grid = enumerate_designs(50, alpha=1.0, alpha_tilde=0.5, density=6)
        svg, csv = emit_gradient_map(grid, "f")
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>\n")
        assert "<line" in svg and "<!--" not in svg
        # the renderers carry no configuration header: the CLI adds it
        assert csv == gradient_csv(grid)

    def test_emit_deterministic(self):
        grid = enumerate_designs(50, alpha=1.0, alpha_tilde=0.5, density=6)
        assert emit_gradient_map(grid, "g") == emit_gradient_map(grid, "g")

    def test_unknown_target(self):
        grid = enumerate_designs(10, alpha=1.0, alpha_tilde=0.5)
        with pytest.raises(ValueError):
            emit_gradient_map(grid, "x")


class TestHeatmap:
    def surface(self):
        return [(n, m, float(n + 10 * m)) for n in (1, 2, 4) for m in (1, 3)]

    def test_emit_and_csv_contents(self):
        svg, body = emit_heatmap(self.surface(), label="risk")
        assert svg.startswith("<svg") and "<title>n=4 m=3 risk=34</title>" in svg
        assert body.startswith("# bin_edges = ")
        assert body.splitlines()[1] == "n,m,risk,bin"
        rows = [ln for ln in body.splitlines() if ln and not ln.startswith("#")][1:]
        assert len(rows) == 6
        bins = [int(r.split(",")[3]) for r in rows]
        vals = [float(r.split(",")[2]) for r in rows]
        # bins increase with value
        order = np.argsort(vals)
        assert all(bins[order[i]] <= bins[order[i + 1]] for i in range(len(order) - 1))

    def test_constant_surface_single_bin(self):
        flat = [(n, m, 2.5) for n in (1, 2) for m in (1, 2)]
        _, csv = emit_heatmap(flat)
        rows = [ln for ln in csv.splitlines() if ln and not ln.startswith("#")][1:]
        assert all(r.endswith(",0") for r in rows)

    def test_ragged_surface_leaves_cells_blank(self):
        # columns n = 1, 2 by rows m = 1, 2, each 260 px; cell (2, 2) is absent
        svg, csv = emit_heatmap([(2, 1, 0.3), (1, 2, 0.2), (1, 1, 0.1)])
        rows = [ln.split(",")[:3] for ln in csv.splitlines() if not ln.startswith("#")][1:]
        assert rows == [["1", "1", "0.1"], ["1", "2", "0.2"], ["2", "1", "0.3"]]
        cells = re.findall(r'<rect x="([\d.]+)" y="([\d.]+)" width="260.00" height="260.00" '
                           r'fill="#[0-9a-f]{6}"><title>n=(\d+) m=(\d+) ', svg)
        assert cells == [("60.00", "320.00", "1", "1"), ("60.00", "60.00", "1", "2"),
                         ("320.00", "320.00", "2", "1")]
        assert svg.count("<title>") == 3
