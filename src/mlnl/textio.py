"""The text-file layer under every mlnl file: UTF-8 with `\\n` line ends on
every platform, non-blank lines numbered as `str.splitlines` numbers the
whole text, and a bad line reported as `path:line: message`."""

from __future__ import annotations


class TextFileError(ValueError):
    """A malformed text file, already located at `path:line`."""


def write_lines(path, lines) -> None:
    """Write each of `lines` followed by `\\n`."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{line}\n" for line in lines)


def numbered_lines(path):
    """Yield (line number, stripped text) for each non-blank line, lazily."""
    with open(path, "rb") as fh:
        lineno = 0
        for physical in fh:
            try:
                text = physical.decode("utf-8")
            except UnicodeDecodeError as e:
                raise located(path, lineno + 1, f"not UTF-8 text ({e.reason})") from None
            for line in text.splitlines():
                lineno += 1
                if line := line.strip():
                    yield lineno, line


def located(path, lineno: int | None, error) -> TextFileError:
    """`error` at `path:lineno`, or at `path` when `lineno` is None; unchanged if located."""
    if isinstance(error, TextFileError):
        return error
    return TextFileError(f"{path}: {error}" if lineno is None else f"{path}:{lineno}: {error}")


def float_row(text: str, width: int | None, noun: str = "values", sep=None) -> list[float]:
    """The floats of `text` split on `sep`; `width` of them unless it is None."""
    tokens = text.split(sep)
    if width is not None and len(tokens) != width:
        raise ValueError(f"expected {width} {noun}, got {len(tokens)}")
    return [float(t) for t in tokens]
