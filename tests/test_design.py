import numpy as np
import pytest

from twolevel.design import (GRADIENT_CSV_HEADER, emit_gradient_map, emit_heatmap,
                             enumerate_designs, gradient_csv)
from twolevel.risk import RateQuery, rate_f, rate_g


class TestEnumerate:
    def test_product_budget_exhaustive(self):
        grid = enumerate_designs(12, alpha=1.0, alpha_tilde=0.5)
        pairs = {(p.n, p.m) for p in grid.points}
        expected = {(n, m) for n in range(1, 13) for m in range(1, 13) if n * m <= 12}
        assert pairs == expected

    def test_linear_cost_budget(self):
        grid = enumerate_designs(10, alpha=1.0, alpha_tilde=0.5,
                                 mode="linear_cost", cost_n=2.0, cost_m=1.0)
        for p in grid.points:
            assert 2 * p.n + p.m <= 10

    def test_density_thins_lattice(self):
        full = enumerate_designs(10000, alpha=1.0, alpha_tilde=0.5, density=8)
        assert len(full) <= 64
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

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            enumerate_designs(10, 1.0, 0.5, mode="quadratic")


class TestGradientMap:
    def test_csv_header_and_rows(self):
        grid = enumerate_designs(20, alpha=1.0, alpha_tilde=0.5)
        text = gradient_csv(grid)
        lines = text.strip().splitlines()
        assert lines[0] == GRADIENT_CSV_HEADER
        assert len(lines) == len(grid) + 1
        first = lines[1].split(",")
        assert len(first) == 10
        assert first[8] in ("n", "m") and first[9] in ("n", "m")

    def test_emit_writes_both_files(self, tmp_path):
        grid = enumerate_designs(50, alpha=1.0, alpha_tilde=0.5, density=6)
        svg, csv = tmp_path / "map.svg", tmp_path / "map.csv"
        emit_gradient_map(grid, "f", svg, csv, header_lines=["seed = 1"])
        body = svg.read_text()
        assert body.startswith("<svg")
        assert body.rstrip().endswith("</svg>")
        assert "<line" in body
        assert csv.read_text().startswith("# seed = 1\n" + GRADIENT_CSV_HEADER)

    def test_emit_deterministic(self, tmp_path):
        grid = enumerate_designs(50, alpha=1.0, alpha_tilde=0.5, density=6)
        emit_gradient_map(grid, "g", tmp_path / "a.svg", tmp_path / "a.csv")
        emit_gradient_map(grid, "g", tmp_path / "b.svg", tmp_path / "b.csv")
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_unknown_target(self, tmp_path):
        grid = enumerate_designs(10, alpha=1.0, alpha_tilde=0.5)
        with pytest.raises(ValueError):
            emit_gradient_map(grid, "x", tmp_path / "x.svg", tmp_path / "x.csv")


class TestHeatmap:
    def surface(self):
        return [(n, m, float(n + 10 * m)) for n in (1, 2, 4) for m in (1, 3)]

    def test_emit_and_csv_contents(self, tmp_path):
        svg, csv = tmp_path / "h.svg", tmp_path / "h.csv"
        emit_heatmap(self.surface(), svg, csv, header_lines=["seed = 7"], label="risk")
        body = csv.read_text()
        assert body.startswith("# seed = 7\n# bin_edges = ")
        assert "n,m,risk,bin" in body
        rows = [ln for ln in body.splitlines() if ln and not ln.startswith("#")][1:]
        assert len(rows) == 6
        bins = [int(r.split(",")[3]) for r in rows]
        vals = [float(r.split(",")[2]) for r in rows]
        # bins increase with value
        order = np.argsort(vals)
        assert all(bins[order[i]] <= bins[order[i + 1]] for i in range(len(order) - 1))

    def test_constant_surface_single_bin(self, tmp_path):
        flat = [(n, m, 2.5) for n in (1, 2) for m in (1, 2)]
        emit_heatmap(flat, tmp_path / "f.svg", tmp_path / "f.csv")
        rows = [ln for ln in (tmp_path / "f.csv").read_text().splitlines()
                if ln and not ln.startswith("#")][1:]
        assert all(r.endswith(",0") for r in rows)

    def test_ragged_surface_rejected(self, tmp_path):
        bad = [(1, 1, 0.1), (1, 2, 0.2), (2, 1, 0.3)]
        with pytest.raises(ValueError, match="missing"):
            emit_heatmap(bad, tmp_path / "r.svg", tmp_path / "r.csv")
