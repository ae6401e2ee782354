import hashlib

import pytest

from mlnl.svgplot import emit_plot


class TestLinePlot:
    def test_single_line_has_one_polyline(self, tmp_path):
        path = tmp_path / "p.svg"
        emit_plot([("a", [0, 1, 2], [0.1, 0.5, 0.3])], "line", path)
        text = path.read_text()
        assert text.count("<polyline") == 1
        assert text.startswith("<?xml")
        assert text.rstrip().endswith("</svg>")

    def test_deterministic_bytes(self, tmp_path):
        series = [("a", [0, 1], [1.0, 2.0]), ("b", [0, 1], [2.0, 1.0])]
        p1, p2 = tmp_path / "1.svg", tmp_path / "2.svg"
        emit_plot(series, "line", p1, title="t", xlabel="x", ylabel="y")
        emit_plot(series, "line", p2, title="t", xlabel="x", ylabel="y")
        assert p1.read_bytes() == p2.read_bytes()

    def test_legend_names_present(self, tmp_path):
        path = tmp_path / "p.svg"
        emit_plot([("alpha", [0, 1], [0, 1]), ("beta", [0, 1], [1, 0])], "line", path)
        text = path.read_text()
        assert "alpha" in text and "beta" in text

    def test_escapes_markup(self, tmp_path):
        path = tmp_path / "p.svg"
        emit_plot([("a<b", [0, 1], [0, 1])], "line", path, title="x & y")
        text = path.read_text()
        assert "a&lt;b" in text and "x &amp; y" in text


class TestGroupedBar:
    def test_rect_count_matches_bars(self, tmp_path):
        path = tmp_path / "b.svg"
        emit_plot([("m1", ["g1", "g2"], [1.0, 2.0]),
                   ("m2", ["g1", "g2"], [2.0, 1.0]),
                   ("m3", ["g1", "g2"], [1.5, 1.5])], "grouped_bar", path)
        text = path.read_text()
        assert text.count("<rect") == 6

    def test_mismatched_groups_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="identical group labels"):
            emit_plot([("a", ["x"], [1.0]), ("b", ["y"], [1.0])],
                      "grouped_bar", tmp_path / "b.svg")

    def test_deterministic_bytes(self, tmp_path):
        series = [("m", ["g1", "g2", "g3"], [0.3, 0.5, 0.4])]
        p1, p2 = tmp_path / "1.svg", tmp_path / "2.svg"
        emit_plot(series, "grouped_bar", p1)
        emit_plot(series, "grouped_bar", p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestValidation:
    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot([], "line", tmp_path / "x.svg")

    def test_empty_points_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot([("a", [], [])], "line", tmp_path / "x.svg")

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="kind"):
            emit_plot([("a", [0], [0])], "pie", tmp_path / "x.svg")

    def test_unequal_lengths_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot([("a", [0, 1], [0])], "line", tmp_path / "x.svg")


# SHA-256 of emit_plot output, taken from the per-kind frame code before it
# was shared; the sweep digests in perfbench reach none of these branches.
EDGE_CASES = {
    "single-point-line": ([("only", [3], [0.25])], "line",
                          dict(title="one", xlabel="x", ylabel="y")),
    "flat-line": ([("flat", [0, 1, 2, 3], [0.5, 0.5, 0.5, 0.5])], "line", {}),
    "palette-wraps": ([(f"s{i}", [0, 1, 2], [i, i * 0.5, -i]) for i in range(8)], "line",
                      dict(title="eight", ylabel="v")),
    "negative-and-zero-bars": ([("m1", ["g1", "g2", "g3"], [-0.5, 0.0, 1.25]),
                                ("m2", ["g1", "g2", "g3"], [0.0, -2.0, 0.0])],
                               "grouped_bar", dict(title="signs", xlabel="group")),
    "all-zero-bars": ([("z", ["a", "b"], [0.0, 0.0])], "grouped_bar", {}),
    "all-negative-int-bars": ([(7, range(3), (-1, -2, -3))], "grouped_bar", {}),
    "markup-line": ([("a<b>&c", [0, 1], [1.0, 2.0])], "line",
                    dict(title="<t>&", xlabel="x<&>", ylabel="&y>")),
    "markup-bars": ([("n&m", ["<g>", "h&"], [0.3, 0.7]),
                     ("<o>", ["<g>", "h&"], [0.6, 0.1])], "grouped_bar",
                    dict(title="a & b", xlabel="<x>", ylabel="y & z")),
}

EDGE_DIGESTS = {
    "single-point-line": "5ed8195f626f1385d89dfac85e78bb6e4172eaf2342f1a3013489a339412a9fd",
    "flat-line": "a40484fe41ca9634457660966275c13cc2f2042ec3f431c6c2ab43b3154a81c5",
    "palette-wraps": "7b3d1f7e89233821c3acd6dd7ac45579643f2b03b044663c5681077dcaddf8a8",
    "negative-and-zero-bars": "032cc18b85eb831db13dfd1faa61b34ce7c04af40181b88d93f7ccfb247ab003",
    "all-zero-bars": "26e346dd0823a640c5d8391aaa99fd1a31057c54f4c2a3a39ab393dbf55f3383",
    "all-negative-int-bars": "48c327f6767418595b22cbd1551508cf0e2289431c75ef7c7a71d5fc2360f1b9",
    "markup-line": "f346ef6fba191ed5c59b80e5b5719b7df93752ecc55632f607767cc0716df73c",
    "markup-bars": "1b4fe4a7dfe12fcd00e9c9e6c945c81566d07feb0327069f89d48e80ebee495a",
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_case_bytes_pinned(tmp_path, case):
    series, kind, labels = EDGE_CASES[case]
    path = tmp_path / "p.svg"
    emit_plot(series, kind, path, **labels)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == EDGE_DIGESTS[case]
