"""The shared text-file layer, and a fuzz of every reader built on it.

Each reader must either parse a file or raise a ValueError whose message
starts with the file's path; a file it parses must survive a write and a
second read unchanged. The dataset reader, which parses byte ranges on
several processes, must also agree with its one-pass reference twin.
"""

import multiprocessing
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlnl import datagen, textio
from mlnl.datagen import (FILE_MAGIC, FILE_VERSION, MAX_CLASSES, Dataset, read_dataset,
                          write_dataset)
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


class TestOrderedMap:
    @pytest.fixture(autouse=True)
    def three_processes(self, monkeypatch):
        monkeypatch.setattr(textio, "_usable_cpus", lambda: 3)

    def test_results_in_item_order_from_every_process(self):
        parent = os.getpid()
        results = list(textio.ordered_map(lambda i: (i * i, os.getpid()), range(10)))
        assert [r for r, _ in results] == [i * i for i in range(10)]
        pids = [pid for _, pid in results]
        assert pids[::3] == [parent] * 4 and len(set(pids)) == 3

    def test_inline_for_one_item(self):
        assert list(textio.ordered_map(lambda i: os.getpid(), [0])) == [os.getpid()]

    def test_worker_exception_is_raised_here(self):
        def fn(i):
            if i == 4:  # item 4 goes to worker 1
                raise KeyError(i)
            return i
        got = []
        with pytest.raises(KeyError, match="4"):
            for r in textio.ordered_map(fn, range(10)):
                got.append(r)
        assert got == [0, 1, 2, 3]
        assert not multiprocessing.active_children()

    def test_closing_early_stops_the_workers(self):
        results = textio.ordered_map(lambda i: i, range(10))
        assert next(results) == 0
        results.close()
        assert not multiprocessing.active_children()


def test_import_leaves_multiprocessing_out():
    code = ("import sys, mlnl, mlnl.cli; "
            "sys.exit('multiprocessing' in sys.modules)")
    src = os.path.dirname(os.path.dirname(textio.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def reference_float_row(text, width, noun="values", sep=None):
    tokens = text.split(sep)
    if width is not None and len(tokens) != width:
        raise ValueError(f"expected {width} {noun}, got {len(tokens)}")
    return [float(t) for t in tokens]


def reference_label_indices(label_part, k):
    try:
        indices = [int(t) for t in label_part.split()]
    except ValueError:
        raise ValueError(f"unparsable label indices {label_part.strip()!r}") from None
    if not indices:
        raise ValueError("sample has no positive labels")
    if any(a >= b for a, b in zip(indices, indices[1:])):
        raise ValueError("label indices must be strictly ascending")
    for j in (indices[0], indices[-1]):
        if not 0 <= j < k:
            raise ValueError(f"label index {j} out of range [0, {k})")
    return indices


def reference_read_dataset(path):
    """`read_dataset` as it was before it read byte ranges in parallel: one
    pass over the numbered lines, verbatim but for the tag, which is now
    judged at its own line."""
    lines = textio.numbered_lines(path)
    tag = "clean"
    lineno = None  # the line being judged; None judges the whole file
    pattern_ids: dict[str, int] = {}  # each distinct label text is checked once
    patterns, pattern_of_row, line_of_row = [], [], []
    try:
        for lineno, header in lines:
            if not header.startswith("#"):
                break
            body = header[1:].strip()
            if body.startswith("tag="):
                tag = body[4:].strip()
                if tag not in ("clean", "noisy"):
                    raise ValueError(f"unknown tag {tag!r}")
        else:
            lineno = None
            raise ValueError("no header line found")
        header_line = lineno
        parts = header.split()
        if len(parts) != 5 or parts[0] != FILE_MAGIC or parts[1] != FILE_VERSION:
            raise ValueError(f"malformed header {header!r}")
        try:
            n, d, k = map(int, parts[2:])
        except ValueError:
            raise ValueError("header counts must be integers") from None
        if min(n, d, k) < 0 or d == 0 or k == 0:
            raise ValueError("invalid header dimensions")
        if k > MAX_CLASSES:
            raise ValueError(f"class count {k} exceeds the limit of {MAX_CLASSES}")
        size = os.path.getsize(path)  # a data row takes at least 2d+1 bytes: "0 ... 0|0"
        if n * (2 * d + 1) > size:
            raise ValueError(f"{n} rows of {d} features cannot fit in a file of {size} bytes")
        features = np.empty((n, d), dtype=np.float64)
        for lineno, s in lines:
            if s.startswith("#"):
                raise ValueError("comments are only allowed before the header")
            row = len(line_of_row)
            if row >= n:
                raise ValueError(f"more than {n} data rows")
            feat_part, bar, label_part = s.partition("|")
            if not bar:
                raise ValueError("missing '|' separator")
            features[row] = reference_float_row(feat_part, d, "features")
            pid = pattern_ids.get(label_part)
            if pid is None:
                patterns.append(reference_label_indices(label_part, k))
                pid = pattern_ids[label_part] = len(patterns) - 1
            pattern_of_row.append(pid)
            line_of_row.append(lineno)
        lineno = None
        if len(line_of_row) != n:
            raise ValueError(f"expected {n} data rows, found {len(line_of_row)}")
        finite = np.isfinite(features).all(axis=1)
        if not finite.all():
            lineno = line_of_row[int(np.argmin(finite))]
            raise ValueError("features must be finite")
        lineno = header_line  # K sizes the labels; no file size bounds it
        pattern_labels = np.zeros((len(patterns), k), dtype=np.uint8)
        for pid, indices in enumerate(patterns):
            pattern_labels[pid, indices] = 1
        labels = pattern_labels[np.array(pattern_of_row, dtype=np.intp)]
        lineno = None
        return Dataset(features, labels, tag=tag)
    except (ValueError, MemoryError) as e:
        raise textio.located(path, lineno, e) from None


def outcome(read, path):
    """What `read` makes of `path`: the parsed dataset's bytes, or its error."""
    try:
        ds = read(path)
    except ValueError as e:
        return "error", str(e)
    return "ok", FORMATS["dataset"][3](ds)


LONGER_DATASET = ("# first\n# tag=clean\n\nMLNL v1 8 2 4\n" + "".join(
    f"{i / 8} {-i} | {i % 4}{' 3' if i % 4 < 3 else ''}\n" for i in range(8)) + "\n")
# bytes a mutant may gain: separators `str.splitlines` splits on, a byte that
# is not UTF-8, a blank line and a comment after the header
INSERTS = [b"\xff", b"\r", b"\r\n", "\x85".encode(), "\u2028".encode(), b"\n\n", b"# c\n"]


@pytest.mark.parametrize("text", [FORMATS["dataset"][0], LONGER_DATASET],
                         ids=["tiny", "longer"])
def test_dataset_reader_matches_the_reference_in_small_ranges(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("oracle") / "mutant.mlnl"

    @settings(max_examples=150, deadline=None)
    @given(mutants(text), st.integers(16, 64), st.sampled_from([b""] + INSERTS), st.data())
    def check(mutant, range_bytes, insert, data):
        raw = mutant.encode("utf-8")
        at = data.draw(st.integers(0, len(raw)))
        path.write_bytes(raw[:at] + insert + raw[at:])
        expected = outcome(reference_read_dataset, path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(datagen, "_READ_RANGE_BYTES", range_bytes)
            mp.setattr(textio, "_usable_cpus", lambda: 3)
            assert outcome(read_dataset, path) == expected

    check()


def test_each_distinct_label_text_is_parsed_once(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    labels = np.zeros((3000, 5), dtype=np.uint8)
    labels[np.arange(3000), rng.integers(0, 5, 3000)] = 1
    labels[rng.random((3000, 5)) < 0.2] = 1
    rows = Dataset(rng.normal(size=(3000, 2)), labels)
    path = tmp_path / "rows.mlnl"
    write_dataset(rows, path)
    assert os.path.getsize(path) < datagen._READ_RANGE_BYTES  # the file is one range
    parse, texts = datagen._parse_label_indices, []

    def counted(text, k):
        texts.append(text)
        return parse(text, k)

    monkeypatch.setattr(datagen, "_parse_label_indices", counted)
    monkeypatch.setattr(textio, "_usable_cpus", lambda: 1)
    assert datagen.datasets_equal(read_dataset(path), rows)
    assert len(texts) == len(set(texts)) == len(np.unique(labels, axis=0))


class TestDatasetIoOnThreeProcesses:
    @pytest.fixture()
    def rows(self):
        rng = np.random.default_rng(3)
        labels = (rng.random((10000, 6)) < 0.3).astype(np.uint8)
        labels[np.arange(10000), rng.integers(0, 6, 10000)] = 1
        return Dataset(rng.normal(size=(10000, 3)) * 10.0 ** rng.integers(-300, 300, (10000, 3)),
                       labels)

    def test_write_bytes_do_not_depend_on_the_process_count(self, tmp_path, monkeypatch, rows):
        written = []
        for procs in (1, 3):
            monkeypatch.setattr(textio, "_usable_cpus", lambda: procs)
            write_dataset(rows, tmp_path / f"p{procs}.mlnl")
            written.append((tmp_path / f"p{procs}.mlnl").read_bytes())
        assert written[0] == written[1]
        back = read_dataset(tmp_path / "p3.mlnl")
        assert datagen.datasets_equal(back, rows)

    def test_bad_row_in_a_worker_range_is_located(self, tmp_path, monkeypatch, rows):
        path = tmp_path / "bad.mlnl"
        write_dataset(rows, path)
        lines = path.read_bytes().split(b"\n")
        lines[9000] = b"1 2 x | 0"
        path.write_bytes(b"\n".join(lines))
        monkeypatch.setattr(datagen, "_READ_RANGE_BYTES", 4096)
        monkeypatch.setattr(textio, "_usable_cpus", lambda: 3)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}:9001: could not "
                                             r"convert string to float: 'x'$"):
            read_dataset(path)

    def test_worker_raising_partway_through_a_read(self, tmp_path, monkeypatch, rows):
        path = tmp_path / "rows.mlnl"
        write_dataset(rows, path)
        parse, parent = datagen._parse_range, os.getpid()

        def failing(path, bounds, *args):
            if os.getpid() != parent and bounds[0] > 100000:
                raise ValueError("the worker failed")
            return parse(path, bounds, *args)

        monkeypatch.setattr(datagen, "_parse_range", failing)
        monkeypatch.setattr(datagen, "_READ_RANGE_BYTES", 4096)
        monkeypatch.setattr(textio, "_usable_cpus", lambda: 3)
        with pytest.raises(ValueError, match=rf"^{re.escape(str(path))}: the worker failed$"):
            read_dataset(path)
        assert not multiprocessing.active_children()
