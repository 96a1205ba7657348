"""The line format shared by connection, metric and complex files.

Blank lines and lines whose first non-blank character is '#' are skipped;
every other line is read stripped, under its physical line number, and each
error names that number as `line N: ...`.  Headers are `keyword <int>`
pairs, and matrix rows hold ';'-separated expressions of the scalar
grammar, each read as its expanded polynomial (scalar.TrigPoly), which
scalar.normalize holds to scalar.MAX_TERMS terms at every step; a bare 0
cell is the shared zero polynomial, read without the parser.
Input quoted back in an error is clipped to QUOTE_CHARS characters, so a
hostile line still gives a short message.
"""

from __future__ import annotations

import re
from typing import Iterator, Optional

from . import scalar

QUOTE_CHARS = 60
# a header integer, in ASCII digits: int() also takes '1_0' and '١'
_INTEGER = re.compile(r"[+-]?[0-9]+")
_ZERO = scalar.TrigPoly.zero()


class InputFileError(Exception):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def quote(text: str) -> str:
    """repr(text), clipped to QUOTE_CHARS characters plus an ellipsis."""
    if len(text) <= QUOTE_CHARS:
        return repr(text)
    return repr(text[:QUOTE_CHARS]) + "..."


def read(path) -> str:
    """The text of a UTF-8 file; OSError passes through."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise InputFileError("not UTF-8 text", data.count(b"\n", 0, err.start) + 1)


class Lines:
    """The content lines of one file, read in order.  `line` is the
    physical number of the line read last; at the end of the file it is
    the number of the file's last line."""

    def __init__(self, text: str):
        self._lines = text.splitlines()
        self.line = 0

    def next(self) -> Optional[str]:
        """The next content line, stripped, or None at the end of the file."""
        while self.line < len(self._lines):
            self.line += 1
            stripped = self._lines[self.line - 1].strip()
            if stripped and not stripped.startswith("#"):
                return stripped
        return None

    def __iter__(self) -> Iterator[str]:
        while (content := self.next()) is not None:
            yield content

    def error(self, message: str) -> InputFileError:
        """An error at the line read last."""
        return InputFileError(message, self.line)

    def header(self, *keywords: str, content: Optional[str] = None):
        """The integers of a `keyword <int> ...` header: `content`, or else
        the next content line.  One keyword gives its integer, several a
        tuple."""
        if content is None:
            content = self.next()
            if content is None:
                raise self.error(f"missing '{keywords[0]}' header")
        parts = content.split()
        if len(parts) != 2 * len(keywords) or parts[::2] != list(keywords):
            form = " ".join(f"{keyword} <int>" for keyword in keywords)
            raise self.error(f"expected '{form}'")
        values = []
        for keyword, token in zip(keywords, parts[1::2]):
            try:
                if not _INTEGER.fullmatch(token):
                    raise ValueError(token)
                values.append(int(token))
            except ValueError:
                raise self.error(f"expected an integer after '{keyword}'")
        return values[0] if len(values) == 1 else tuple(values)

    def matrix(self, size: int) -> tuple:
        """The next `size` content lines as rows of `size` polynomials."""
        rows = []
        for _ in range(size):
            content = self.next()
            if content is None:
                raise self.error("unexpected end of file inside a matrix")
            cells = [cell.strip() for cell in content.split(";")]
            if len(cells) != size:
                raise self.error(f"expected {size} entries separated by ';'")
            row = []
            for cell in cells:
                try:
                    # expanded here, so that a merged exponent above
                    # scalar.MAX_EXPONENT, an expansion above
                    # scalar.MAX_TERMS or work past the budget of
                    # scalar.work_budget is reported at its line
                    row.append(_ZERO if cell == "0" else scalar.expand(cell))
                except scalar.ScalarError as err:
                    raise self.error(f"bad expression {quote(cell)}: {err}")
            rows.append(tuple(row))
        return tuple(rows)
