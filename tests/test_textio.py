"""The shared text-file layer, and a table and a fuzz of every reader built on it.

Each malformed file of the table must raise exactly its `path:line: message`
(or `path: message`). Under the fuzz, each reader must either parse a file
or raise a ValueError whose message starts with the file's path; a file it
parses must survive a write and a second read unchanged. The dataset
reader, which parses byte ranges on several processes, must also agree with
its one-pass reference twin.
"""

import multiprocessing
import os
import re
import subprocess
import sys
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlnl import datagen, harness, textio
from mlnl.datagen import (FILE_MAGIC, FILE_VERSION, MAX_CLASSES, Dataset, read_dataset,
                          write_dataset)
from mlnl.harness import parse_config, render_config
from mlnl.model import load_model, save_model
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

    def test_a_finished_write_replaces_the_file_whole(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_bytes(b"a much longer earlier text\n" * 3)
        textio.write_lines(path, ["new"])
        assert path.read_bytes() == b"new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    @staticmethod
    def raising_after(k, error):
        yield from (f"line {i}" for i in range(k))
        raise error

    @pytest.mark.parametrize("error", [OSError("disk full"), KeyboardInterrupt()],
                             ids=["oserror", "interrupt"])
    @pytest.mark.parametrize("earlier", [None, b"earlier\n"], ids=["new", "earlier"])
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_a_write_that_raises_leaves_the_file_as_it_was(self, tmp_path, k, earlier, error):
        path = tmp_path / "out.txt"
        if earlier is not None:
            path.write_bytes(earlier)
        with pytest.raises(type(error)):
            textio.write_lines(path, self.raising_after(k, error))
        if earlier is None:
            assert list(tmp_path.iterdir()) == []
        else:
            assert list(tmp_path.iterdir()) == [path]
            assert path.read_bytes() == earlier


class TestNumberedLines:
    @settings(max_examples=200)
    @given(st.lists(st.sampled_from(["a", "b c", " ", "#", "é", "\n", "\r", "\r\n", "\x0c",
                                     "\x1c", "\x85", " "]), max_size=30))
    def test_numbered_as_grep_numbers_the_whole_text(self, tmp_path_factory, parts):
        # only \n ends a line; \r, \x0c, \x1c, \x85 and the like stay in theirs
        text = "".join(parts)
        path = tmp_path_factory.mktemp("lines") / "t.txt"
        path.write_bytes(text.encode("utf-8"))
        expected = [(i, s.strip()) for i, s in enumerate(text.split("\n"), start=1)
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


def _write_summary(rows, path):
    textio.write_lines(path, [harness.SUMMARY_HEADER, *(
        f"{method},{eta!r},{s['map']!r},{s['cf1']!r},{s['of1']!r}," for method, eta, s in rows)])


def _write_epochs(rows, path):
    textio.write_lines(path, [harness.METRICS_HEADER, *(
        f"{epoch},test,{score!r},0.0,0.0,0.0" for epoch, score in rows)])


class Format(NamedTuple):
    """One file format: a tiny valid file, its reader and writer, a key that
    compares two parsed objects byte for byte, and malformed files, each
    (id, its text, or an (old, new) edit of `text` that replaces the one
    `old`, the line cited or None for the whole file, the whole message)."""

    text: str
    read: Callable
    write: Callable
    key: Callable
    malformed: list


FORMATS = {
    "dataset": Format(
        "# tag=noisy\nMLNL v1 3 2 3\n0.5 -1.25 | 0 2\n\n1e-300 2 | 1\n-0 0.125 | 0 1 2\n",
        read_dataset, write_dataset,
        lambda ds: (ds.tag, ds.features.shape, ds.features.tobytes(), ds.labels.shape,
                    ds.labels.tobytes()), [
            ("unknown-tag", ("tag=noisy", "tag=dirty"), 1, "unknown tag 'dirty'"),
            ("no-header", "# tag=clean\n\n", None, "no header line found"),
            ("malformed-header", "MLXX v1 1 1 1\n0.0 | 0\n", 1, "malformed header 'MLXX v1 1 1 1'"),
            ("header-counts", ("v1 3 2 3", "v1 3 two 3"), 2, "header counts must be integers"),
            ("header-dimensions", ("v1 3 2 3", "v1 3 0 3"), 2, "invalid header dimensions"),
            *((f"header-too-large-{field}", "# tag=clean\n\nMLNL v1 " + counts + "\n"
               + "0.5 1 2 | 0 3\n" * 6, 3, problem) for field, counts, problem in (
                ("n", "99999999999999 3 4",
                 "99999999999999 rows of 3 features cannot fit in a file of 124 bytes"),
                ("d", "6 99999999999999 4",
                 "6 rows of 99999999999999 features cannot fit in a file of 124 bytes"),
                ("k", "6 3 99999999999999", "class count 99999999999999 exceeds the limit of 1000"))),
            ("late-comment", "MLNL v1 1 1 2\n# late comment\n0.0 | 0\n", 2,
             "comments are only allowed before the header"),
            ("more-rows", ("0 1 2\n", "0 1 2\n1 1 | 0\n"), 7, "more than 3 data rows"),
            ("fewer-rows", ("-0 0.125 | 0 1 2\n", ""), None, "expected 3 data rows, found 2"),
            ("no-separator", ("1e-300 2 |", "1e-300 2"), 5, "missing '|' separator"),
            ("feature-count", "MLNL v1 1 3 2\n0.0 0.0 | 1\n", 2, "expected 3 features, got 2"),
            ("feature-text", "# made by\u2028hand\nMLNL v1 2 2 2\n0.5 1 | 0\n1 x | 1\n", 4,
             "could not convert string to float: 'x'"),  # U+2028 ends no line
            ("not-utf8", b"MLNL v1 1 1 2\n0 | \xff0\n", 2, "not UTF-8 text (invalid start byte)"),
            *((f"non-finite-{token}", ("1e-300 2", f"1e-300 {token}"), 5,
               "features must be finite") for token in ("nan", "1e999", "-inf")),
            ("label-text", ("| 0 2", "| 0 b"), 3, "unparsable label indices '0 b'"),
            ("no-labels", ("2 | 1", "2 |"), 5, "sample has no positive labels"),
            ("descending-labels", "MLNL v1 1 1 3\n0.0 | 2 1\n", 2,
             "label indices must be strictly ascending"),
            ("label-out-of-range", "MLNL v1 1 2 4\n0.0 0.0 | 4\n", 2,
             "label index 4 out of range [0, 4)"),
        ]),
    "matrix": Format(
        "# kind=true_row_stochastic K=3 eta=0.25\n0.75,0.125,0.125\n0.125,0.75,0.125\n"
        "0.125,0.125,0.75\n",
        read_matrix, write_matrix,
        lambda cm: (cm.kind, repr(cm.eta), cm.matrix.shape, cm.matrix.tobytes()), [
            ("empty", "", None, "no data rows"),
            ("header-only", "# kind=estimated_raw K=2\n", None, "no data rows"),
            ("not-square", "0.5,0.5\n", None, "matrix is not square ((1, 2))"),
            ("unknown-kind", ("=true_row_stochastic", "=banana"), 1, "unknown kind 'banana'"),
            ("header-k", ("K=3", "K=5"), 1, "header says K=5, but the matrix has 3 rows"),
            ("k-text", ("K=3", "K=abc"), 1, "K must be an integer, got 'abc'"),
            ("eta-text", ("eta=0.25", "eta=zz"), 1, "eta must be a number, got 'zz'"),
            *((f"eta-{eta}", ("eta=0.25", f"eta={eta}"), 1, f"eta must be in [0,1), got {shown}")
              for eta, shown in (("nan", "nan"), ("7", "7.0"), ("-0.5", "-0.5"), ("1.0", "1.0"))),
            ("repeated-k", ("K=3 eta=0.25", "K=5 K=3 eta=0.9 eta=0.25 color=blue"), 1,
             "header field 'K' repeats"),
            ("repeated-eta", ("eta=0.25", "eta=0.9 eta=0.25"), 1, "header field 'eta' repeats"),
            ("repeated-kind", ("K=3", "kind=estimated_raw K=3"), 1,
             "header field 'kind' repeats"),
            ("unknown-field", ("eta=0.25", "eta=0.25 color=blue"), 1,
             "unknown header field 'color'"),
            ("no-equals", ("eta=0.25", "eta=0.25 transposed"), 1,
             "unknown header field 'transposed'"),
            ("ragged", ("0.125,0.75,0.125", "0.125,0.75"), 3, "expected 3 values, got 2"),
            ("value-text", "# kind=true_row_stochastic K=2\x0ceta=0.1\n0.9,0.1\n0.1,x\n", 3,
             "could not convert string to float: 'x'"),  # \x0c ends no line
            ("row-sum", "# kind=true_row_stochastic K=3\n1.0,0.0,0.0\n\n0.5,0.25,0.25\n"
             "0.5,0.5,0.25\n", 5, "row 2 does not sum to 1"),
            *((f"range-{kind}", f"# kind={kind} K=3\n0.5,0.25,0.25\n0.25,{bad},0.25\n"
               f"{bad},0.25,0.25\n", 3, problem) for kind, bad, problem in (
                ("true_row_stochastic", "1.5", "row-stochastic matrix entries must lie in [0, 1]"),
                ("estimated_scaled", "0.0", "sigmoid-scaled entries must lie strictly in (0, 1)"),
                ("estimated_raw", "nan", "corruption matrix entries must be finite"))),
        ]),
    "checkpoint": Format(
        "MLPM v1 2 3 2 relu\n0.5 -0.25\n0.125 1.5\n-1 0.75\n0 0.375 -0.5\n0.25 -2 1\n"
        "2 0 -1.25\n0.0625 -3\n",
        load_model, save_model,
        lambda m: (m.activation, [(w.shape, w.tobytes(), b.tobytes())
                                  for w, b in zip(m.weights, m.biases)]), [
            ("empty", "", None, "malformed checkpoint header"),
            ("malformed-header", "NOPE v1 2 2 tanh\n", 1, "malformed checkpoint header"),
            ("unknown-activation", ("relu", "gelu"), 1, "unknown activation 'gelu'"),
            ("layer-text", "MLPM v1 3 four 2 tanh\n", 1, "layer sizes must be integers"),
            ("empty-layer", ("v1 2 3 2", "v1 2 0 2"), 1, "layer sizes must be >= 1"),
            ("short-row", ("0.125 1.5", "0.125"), 3, "expected 2 values, got 1"),
            ("non-finite", ("0.5 -0.25", "0.5 inf"), 2, "non-finite parameter"),
            ("no-last-row", ("0.25 -2 1\n2 0 -1.25\n0.0625 -3\n", "0.25 -2 1\n"), 7,
             "checkpoint ends before its last bias line"),
            ("no-last-bias", ("0.0625 -3\n", ""), 8, "checkpoint ends before its last bias line"),
            ("trailing-data", ("-3\n", "-3\n0.5 0.5\n"), 9, "data after the last bias line"),
        ]),
    "config": Format(
        "# tiny\ngen.n = 300\ngen.k = 4\nnoise.eta = 0.2, 0.4\nnoise.mode = bernoulli\n"
        "model.hidden = 8, 4\nsilver.optimizer = sgd\ndata.single_label_limit = unlimited\n"
        "estimator.method = glc\nasl.margin = 0.05\nseed = 3\nout = runs/x\n",
        parse_config, lambda cfg, path: textio.write_lines(path, render_config(cfg)),
        render_config, [
            ("no-equals", ("seed = 3", "seed 3"), 11, "expected 'key = value', got 'seed 3'"),
            ("unknown-key", "# comment\ngen.n = 100\nbogus.key = 3\n", 3,
             "unknown key 'bogus.key'"),
            ("key-after-comment", "# a\x0cb comment\nbogus = 3\n", 2,
             "unknown key 'bogus'"),  # \x0c ends no line
            ("repeated-key", "seed = 1\n# the same key again\nseed = 2\n", 3,
             "key 'seed' repeats line 1"),
            ("not-an-integer", "gen.n = many\n", 1,
             "gen.n: invalid literal for int() with base 10: 'many'"),
            ("eta-range", "noise.eta = 1.5\n", 1, "noise.eta value 1.5 outside [0,1)"),
            ("repeated-eta", "gen.k = 5\nnoise.eta = 0.3, 0.3\n", 2,
             "noise.eta repeats the value 0.3"),
            ("repeated-zero-eta", "gen.k = 5\nnoise.eta = 0, 0.2, -0.0\n", 2,
             "noise.eta repeats the value -0.0"),
            ("seed-negative", "seed = -1\n", 1, "seed must be in [0,2**64), got -1"),
            ("seed-2**64", "seed = 18446744073709551616\n", 1,
             "seed must be in [0,2**64), got 18446744073709551616"),
            ("feature-count", ("gen.k = 4", "gen.k = 4\ngen.d = 99999999999999"), 4,
             "gen.d must be at most 1000, got 99999999999999"),
            ("mean-above-k", "gen.k = 2\ngen.mean_labels = 3.0\n", None,
             "mean_labels_per_sample 3.0 exceeds class count 2"),
        ]),
    # the sweep CSVs, read with the row parsers that plot_sweep uses
    "summary": Format(
        "method,eta,map,cf1,of1,frobenius_to_true\nnone,0.0,0.5,0.25,0.125,\n"
        "galc_slr,0.4,0.75,0.5,1e-300,0.0625\ntrue_matrix,0.4,0.625,-0,1,0.0\n",
        lambda path: harness._read_csv(path, harness.SUMMARY_HEADER, harness._summary_row),
        _write_summary, repr, [
            ("empty", "", 1, "expected the header 'method,eta,map,cf1,of1,frobenius_to_true'"),
            ("header", (",frobenius_to_true", ""), 1,
             "expected the header 'method,eta,map,cf1,of1,frobenius_to_true'"),
            ("no-rows", "method,eta,map,cf1,of1,frobenius_to_true\n", None, "no data rows"),
            ("fields", ("0.125,\n", "0.125\n"), 2, "expected 6 fields, got 5"),
            ("method", ("none,", "glc,"), 2,
             "method must be one of ('none', 'galc_slr', 'true_matrix'), got 'glc'"),
            ("eta-text", ("none,0.0", "none,zero"), 2, "eta must be a number, got 'zero'"),
            ("nan-map", ("0.75,", "nan,"), 3, "map must be finite, got nan"),
            ("frobenius-text", ("0.0625", "x"), 3, "frobenius_to_true must be a number, got 'x'"),
            ("repeated-cell", ("true_matrix,0.4", "galc_slr,0.4"), 4,
             "method galc_slr at eta 0.4 repeats line 3"),
        ]),
    "metrics": Format(
        "epoch,split,map,cf1,of1,loss\n1,test,0.5,0.25,0.125,0.75\n"
        "2,test,0.625,0.5,0.25,0.5\n",
        lambda path: harness._read_csv(path, harness.METRICS_HEADER, harness._epoch_row),
        _write_epochs, repr, [
            ("header", ("loss", "lost"), 1,
             "expected the header 'epoch,split,map,cf1,of1,loss'"),
            ("no-rows", "epoch,split,map,cf1,of1,loss\n", None, "no data rows"),
            ("fields", ("0.125,0.75", "0.125"), 2, "expected 6 fields, got 5"),
            ("epoch-text", ("2,test", "two,test"), 3, "epoch must be an integer, got 'two'"),
            ("repeated-epoch", ("2,test", "1,test"), 3, "expected epoch 2, got 1"),
            ("inf-map", ("0.625", "inf"), 3, "map must be finite, got inf"),
        ]),
}
MALFORMED = [(name, row) for name, fmt in FORMATS.items() for row in fmt.malformed]


@pytest.mark.parametrize("name, row", MALFORMED, ids=[f"{name}-{row[0]}" for name, row in MALFORMED])
def test_malformed_file_is_refused_at_its_line(tmp_path, name, row):
    fmt = FORMATS[name]
    _, text, line, message = row
    if isinstance(text, tuple):
        old, new = text
        assert fmt.text.count(old) == 1, old
        text = fmt.text.replace(old, new)
    path = tmp_path / name
    path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    with pytest.raises(ValueError) as e:
        fmt.read(path)
    assert str(e.value) == (f"{path}: {message}" if line is None else f"{path}:{line}: {message}")


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
    text, read, write, key, _ = FORMATS[name]
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
        results = list(textio.ordered_map(lambda i: (i * i, os.getpid()), range(10)))
        assert [r for r, _ in results] == [i * i for i in range(10)]
        pids = [pid for _, pid in results]
        assert len(set(pids)) == 3 and os.getpid() not in pids
        assert pids == [pids[i % 3] for i in range(10)]

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

    def test_nested_call_in_a_worker_maps_inline(self):
        def fn(i):
            return list(textio.ordered_map(lambda j: (i + j, os.getpid()), range(3)))
        results = list(textio.ordered_map(fn, range(6)))
        assert [[v for v, _ in r] for r in results] == [[i, i + 1, i + 2] for i in range(6)]
        # each item's inner map ran in the worker that computed the item
        pids = [{pid for _, pid in r} for r in results]
        assert all(len(p) == 1 for p in pids) and len(set.union(*pids)) == 3
        assert os.getpid() not in set.union(*pids)
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
    return "ok", FORMATS["dataset"].key(ds)


LONGER_DATASET = ("# first\n# tag=clean\n\nMLNL v1 8 2 4\n" + "".join(
    f"{i / 8} {-i} | {i % 4}{' 3' if i % 4 < 3 else ''}\n" for i in range(8)) + "\n")
# bytes a mutant may gain: separators `str.splitlines` splits on, a byte that
# is not UTF-8, a blank line and a comment after the header
INSERTS = [b"\xff", b"\r", b"\r\n", "\x85".encode(), "\u2028".encode(), b"\n\n", b"# c\n"]


@pytest.mark.parametrize("text", [FORMATS["dataset"].text, LONGER_DATASET],
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


def test_a_daemonic_process_writes_and_reads_inline(tmp_path, monkeypatch):
    """A daemonic process, such as a worker of ordered_map, may not have
    children: at two usable CPUs it writes and reads a dataset of several
    write chunks and read ranges without a fork, and gets the bytes that
    one CPU writes."""
    rng = np.random.default_rng(9)
    labels = (rng.random((3000, 4)) < 0.3).astype(np.uint8)
    labels[np.arange(3000), rng.integers(0, 4, 3000)] = 1
    rows = Dataset(rng.normal(size=(3000, 3)), labels)
    monkeypatch.setattr(textio, "_usable_cpus", lambda: 1)
    write_dataset(rows, tmp_path / "one_cpu.mlnl")
    monkeypatch.setattr(textio, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(datagen, "_READ_RANGE_BYTES", 4096)
    path = tmp_path / "daemon.mlnl"

    def forked():
        raise AssertionError("the daemonic process forked")

    def in_daemon(sender):
        os.fork = forked  # in this process only
        try:
            write_dataset(rows, path)
            sender.send(datagen.datasets_equal(read_dataset(path), rows))
        except BaseException as e:
            sender.send(repr(e))

    assert rows.n > datagen._WRITE_CHUNK_ROWS
    assert textio.worker_limit() == 2
    fork = multiprocessing.get_context("fork")
    receiver, sender = fork.Pipe(duplex=False)
    daemon = fork.Process(target=in_daemon, args=(sender,), daemon=True)
    daemon.start()
    sender.close()
    try:
        result = receiver.recv() if receiver.poll(60) else "no result in 60 s"
    finally:
        daemon.join(10)
        daemon.kill()
        daemon.join()
        receiver.close()
    assert result is True
    assert path.read_bytes() == (tmp_path / "one_cpu.mlnl").read_bytes()
    assert os.path.getsize(path) > 2 * datagen._READ_RANGE_BYTES
