"""The text-file layer under every mlnl file: UTF-8 text in which a line is
what `\\n` ends, on every platform. Lines are stripped (so a `\\r\\n` file
reads as a `\\n` one) and numbered as `grep -n` numbers them, and a bad line
is reported as `path:line: message`. `ordered_map` spreads the chunks of a
large file's formatting or parsing over the cores."""

from __future__ import annotations

import io
import os
import sys

_MAX_PROCESSES = 8  # ordered_map's cap on worker processes


class TextFileError(ValueError):
    """A malformed text file, already located at `path:line`."""


def write_lines(path, lines) -> None:
    """Write each of `lines` followed by `\\n`, whole or not at all: they go to
    `<path>.partial`, which replaces `path` after the last line and is removed
    if anything raises first, so `path` keeps its earlier bytes, if any."""
    partial = f"{path}.partial"
    try:
        with open(partial, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(f"{line}\n" for line in lines)
        os.replace(partial, path)
    except BaseException:
        if os.path.exists(partial):
            os.remove(partial)
        raise


def numbered_lines(path, start: int = 0, end: int | None = None, blank: bool = False):
    """Yield (line number, stripped text) for each non-blank line, lazily; with
    `blank`, for blank lines too. With `end`, read only the bytes [start, end),
    which must hold whole `\\n`-ended lines; lines are numbered from `start`."""
    with open(path, "rb") as fh:
        fh.seek(start)
        lines = fh if end is None else io.BytesIO(fh.read(end - start))
        for lineno, raw in enumerate(lines, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as e:
                raise located(path, lineno, f"not UTF-8 text ({e.reason})") from None
            if line or blank:
                yield lineno, line


def located(path, lineno: int | None, error) -> TextFileError:
    """`error` at `path:lineno`, or at `path` when `lineno` is None; unchanged if
    located. The result keeps `lineno` as `.line` and the bare message as `.reason`."""
    if isinstance(error, TextFileError):
        return error
    found = TextFileError(f"{path}: {error}" if lineno is None else f"{path}:{lineno}: {error}")
    found.line, found.reason = lineno, str(error)
    return found


def float_row(text: str, width: int | None, noun: str = "values", sep=None) -> list[float]:
    """The floats of `text` split on `sep`; `width` of them unless it is None."""
    tokens = text.split(sep)
    if width is not None and len(tokens) != width:
        raise ValueError(f"expected {width} {noun}, got {len(tokens)}")
    return list(map(float, tokens))


def parse_number(name: str, text: str, kind=float):
    """`text` as a `kind` (float or int); a ValueError names the field `name`."""
    try:
        return kind(text)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ValueError(f"{name} must be {noun}, got {text!r}") from None


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 off Linux, where no worker is forked."""
    return len(os.sched_getaffinity(0)) if sys.platform.startswith("linux") else 1


def _multiprocessing():
    import multiprocessing  # here, not at the top: most runs never fork
    return multiprocessing


def worker_limit() -> int:
    """How many worker processes `ordered_map` may fork here: the usable
    CPUs, up to 8; 1, so none, with one CPU or in a daemonic process such as
    one of its workers, which may not have children."""
    cpus = min(_usable_cpus(), _MAX_PROCESSES)
    return 1 if cpus > 1 and _multiprocessing().current_process().daemon else cpus


def ordered_map(fn, items):
    """Yield fn(item) for each of `items`, in order. With P = min(worker_limit(),
    len(items)) above 1, P forked workers compute every item and this process
    only collects their results; otherwise it maps inline.

    Item i goes to worker i mod P. Workers inherit `fn` and `items` through
    fork, so `fn` may be a closure and only results are pickled. A worker
    blocks on sending a result until this process takes it. A worker's
    exception is raised here. Every worker is stopped and joined before this
    generator returns, raises or is closed; close it when abandoning it early.
    """
    items = list(items)
    procs = min(worker_limit(), len(items))
    if procs < 2:
        yield from map(fn, items)
        return
    fork = _multiprocessing().get_context("fork")
    workers = []
    try:
        for w in range(procs):
            receiver, sender = fork.Pipe(duplex=False)
            worker = fork.Process(target=_serve, args=(fn, items[w::procs], sender), daemon=True)
            worker.start()
            workers.append((worker, receiver))
            sender.close()
        for i in range(len(items)):
            ok, result = workers[i % procs][1].recv()
            if not ok:
                raise result
            yield result
    finally:
        for worker, receiver in workers:
            worker.terminate()
            worker.join()
            receiver.close()


def _serve(fn, items, sender) -> None:
    """A worker of `ordered_map`: send (True, fn(item)) for each item in
    order, or (False, exception) for the first that raises."""
    try:
        for item in items:
            sender.send((True, fn(item)))
    except Exception as e:
        sender.send((False, e))
