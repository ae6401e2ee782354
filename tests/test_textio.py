"""The shared text-file layer, and a fuzz of every reader built on it.

Each reader must either parse a file or raise a ValueError whose message
starts with the file's path; a file it parses must survive a write and a
second read unchanged.
"""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlnl import textio
from mlnl.datagen import read_dataset, write_dataset
from mlnl.harness import parse_config, render_config
from mlnl.model import init_model, load_model, save_model
from mlnl.noise import read_matrix, write_matrix


class TestWriteLines:
    def test_utf8_with_newline_after_every_line(self, tmp_path):
        path = tmp_path / "out.txt"
        textio.write_lines(path, ["a", "é", "", "b\tc"])
        assert path.read_bytes() == b"a\n\xc3\xa9\n\nb\tc\n"

    def test_no_lines_gives_an_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        textio.write_lines(path, iter([]))
        assert path.read_bytes() == b""


class TestNumberedLines:
    @settings(max_examples=200)
    @given(st.lists(st.sampled_from(["a", "b c", " ", "#", "é", "\n", "\r", "\r\n", "\x0c",
                                     "\x1c", "\x85", " "]), max_size=30))
    def test_numbered_as_splitlines_numbers_the_whole_text(self, tmp_path_factory, parts):
        text = "".join(parts)
        path = tmp_path_factory.mktemp("lines") / "t.txt"
        path.write_bytes(text.encode("utf-8"))
        expected = [(i, s.strip()) for i, s in enumerate(text.splitlines(), start=1)
                    if s.strip()]
        assert list(textio.numbered_lines(path)) == expected

    def test_non_utf8_line_is_located(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"# kind=estimated_raw K=2\n\n0.5,\xff0.5\n0.5,0.5\n")
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: not UTF-8 text"):
            list(textio.numbered_lines(path))
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:3: not UTF-8 text"):
            read_matrix(path)

    def test_located_keeps_a_located_error(self, tmp_path):
        inner = textio.located(tmp_path / "a", 3, "bad")
        assert textio.located(tmp_path / "a", 9, inner) is inner
        assert str(textio.located("f", None, ValueError("whole"))) == "f: whole"


# One tiny valid file per format, with its reader, its writer and a key that
# compares two parsed objects byte for byte.
_CHECKPOINT = init_model([2, 3, 2], "relu", 1.0, seed=5)


def _checkpoint_text(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "m.mlpm"
    save_model(_CHECKPOINT, path)
    return path.read_text()


FORMATS = {
    "dataset": (
        "# tag=noisy\nMLNL v1 3 2 3\n0.5 -1.25 | 0 2\n\n1e-300 2 | 1\n-0 0.125 | 0 1 2\n",
        read_dataset, write_dataset,
        lambda ds: (ds.tag, ds.features.shape, ds.features.tobytes(), ds.labels.shape,
                    ds.labels.tobytes())),
    "matrix": (
        "# kind=true_row_stochastic K=3 eta=0.25\n0.75,0.125,0.125\n0.125,0.75,0.125\n"
        "0.125,0.125,0.75\n",
        read_matrix, write_matrix,
        lambda cm: (cm.kind, repr(cm.eta), cm.matrix.shape, cm.matrix.tobytes())),
    "checkpoint": (
        None, load_model, save_model,
        lambda m: (m.activation, [(w.shape, w.tobytes(), b.tobytes())
                                  for w, b in zip(m.weights, m.biases)])),
    "config": (
        "# tiny\ngen.n = 300\ngen.k = 4\nnoise.eta = 0.2, 0.4\nnoise.mode = bernoulli\n"
        "model.hidden = 8, 4\nsilver.optimizer = sgd\ndata.single_label_limit = unlimited\n"
        "estimator.method = glc\nasl.margin = 0.05\nseed = 3\nout = runs/x\n",
        parse_config, lambda cfg, path: textio.write_lines(path, render_config(cfg)),
        render_config),
}
POOL = ["", "nan", "1e999", "-1", "99999999999999", "|", "#", "=", ",", "kind=bogus", "eta=x"]


@st.composite
def mutants(draw, text):
    """`text` truncated, with a line dropped or duplicated, or with one token
    (a run of characters other than whitespace and commas) replaced."""
    lines = text.splitlines(keepends=True)
    tokens = [m.span() for m in re.finditer(r"[^\s,]+", text)]
    kind = draw(st.sampled_from(["truncate", "drop", "duplicate", "replace"]))
    if kind == "truncate":
        return text[:draw(st.integers(0, len(text) - 1))]
    if kind in ("drop", "duplicate"):
        i = draw(st.integers(0, len(lines) - 1))
        copies = 2 if kind == "duplicate" else 0
        return "".join(lines[:i] + lines[i:i + 1] * copies + lines[i + 1:])
    start, end = tokens[draw(st.integers(0, len(tokens) - 1))]
    return text[:start] + draw(st.sampled_from(POOL)) + text[end:]


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_reader_fuzz(tmp_path_factory, name):
    text, read, write, key = FORMATS[name]
    text = text or _checkpoint_text(tmp_path_factory)
    workdir = tmp_path_factory.mktemp(f"fuzz-{name}")
    path, back = workdir / "mutant", workdir / "written"

    @settings(max_examples=250, deadline=None)
    @given(mutants(text))
    def check(mutant):
        path.write_bytes(mutant.encode("utf-8"))
        try:
            parsed = read(path)
        except ValueError as e:
            assert str(e).startswith(str(path)), str(e)
            return
        write(parsed, back)
        assert key(read(back)) == key(parsed)

    check()
