"""RNG derivation, tables, and ASCII plots."""

import numpy as np
import pytest

from repro.util.asciiplot import ascii_heatmap, ascii_histogram, ascii_line_plot
from repro.util.rng import derive_seed, make_rng
from repro.util.tables import Table, format_table


class TestRNG:
    def test_deterministic(self):
        assert make_rng(5, "a").normal() == make_rng(5, "a").normal()

    def test_paths_independent(self):
        assert make_rng(5, "a").normal() != make_rng(5, "b").normal()

    def test_derive_seed_stable(self):
        assert derive_seed(1, "x", 2) == derive_seed(1, "x", 2)
        assert derive_seed(1, "x", 2) != derive_seed(1, "x", 3)

    def test_derive_seed_key_scheme_is_pinned(self):
        # Fig. 5's protocol draws and every seeded sample depend on these
        # exact values; a change to the key scheme shows up here first.
        assert derive_seed(0x70F0, "mode", 3, 7, 13) == 16921716065248039483
        assert derive_seed(0x70F0, "jitter", 191, 0, 23) == 9493020148204080631
        assert derive_seed(0xA64F, "osu-pairs", 192, 1500) == 7334108066475693049

    def test_default_seed(self):
        assert make_rng().normal() == make_rng().normal()


class TestTable:
    def test_add_and_render(self):
        t = Table("T", ["a", "b"])
        t.add_row(1, 2.5)
        text = t.render()
        assert "T" in text and "2.50" in text

    def test_wrong_arity_rejected(self):
        t = Table("T", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_none_renders_na(self):
        t = Table("", ["a"])
        t.add_row(None)
        assert "N/A" in t.render()

    def test_column_extraction(self):
        t = Table("", ["a", "b"])
        t.add_row(1, "x")
        t.add_row(2, "y")
        assert t.column("b") == ["x", "y"]

    def test_markdown_separator(self):
        text = format_table("", ["col"], [[1]], markdown=True)
        assert "---" in text.splitlines()[1]


class TestAsciiPlots:
    def test_line_plot_contains_markers(self):
        art = ascii_line_plot({"s": [(1, 1), (2, 4), (3, 9)]})
        assert "o" in art and "s" in art.splitlines()[-1]

    def test_line_plot_log_axes(self):
        art = ascii_line_plot({"s": [(1, 10), (100, 1000)]}, logx=True, logy=True)
        assert art

    def test_line_plot_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_line_plot({"s": []})

    def test_heatmap_downsamples(self):
        m = np.arange(200 * 200, dtype=float).reshape(200, 200)
        art = ascii_heatmap(m, max_width=40, max_height=20)
        lines = art.splitlines()
        assert len(lines) <= 22
        assert all(len(line) <= 41 for line in lines[:-1])

    def test_heatmap_handles_nan(self):
        m = np.ones((4, 4))
        m[0, 0] = np.nan
        assert "?" in ascii_heatmap(m)

    def test_heatmap_rejects_1d(self):
        with pytest.raises(ValueError):
            ascii_heatmap(np.ones(5))

    def test_histogram_counts(self):
        art = ascii_histogram([1.0] * 10 + [5.0] * 3, bins=4)
        assert "10" in art and "#" in art

    def test_histogram_empty_rejected(self):
        with pytest.raises(ValueError):
            ascii_histogram([])
