"""Serialize region-labelled documents back to XML text.

The writer emits element structure only (the model carries no text/attribute
payload); output round-trips through :func:`repro.xmltree.parser.parse_xml`
with identical region labels, which the test suite verifies.

It is one pass over the document's columns in document order with an
explicit stack of open elements, so a document of any depth can be
written.  Lines go out at most ``CHUNK_LINES`` per ``write`` call, and
fewer for documents whose indentation alone would make such a chunk
large, so what is held besides the document stays bounded.
"""

from __future__ import annotations

import io
import os
from typing import TextIO

from repro.xmltree.document import Document

#: Most lines (element tags) handed to one ``write`` call.
CHUNK_LINES = 4096

#: Widest indentation at which a chunk holds ``CHUNK_LINES`` lines; a
#: document indented deeper writes proportionally fewer per call, so a
#: chunk stays within about ``CHUNK_LINES * _WIDEST_PAD`` characters.
_WIDEST_PAD = 4096


def write_xml(document: Document, indent: int = 2) -> str:
    """Render ``document`` as XML text.

    Args:
        document: the document to serialize.
        indent: spaces per nesting level; 0 renders a single line.
    """
    out = io.StringIO()
    _write(document, out, indent)
    return out.getvalue()


def write_xml_file(
    document: Document, path: str | os.PathLike[str], indent: int = 2
) -> None:
    """Write ``document`` as XML to ``path``."""
    with io.open(path, "w", encoding="utf-8") as handle:
        _write(document, handle, indent)


def _write(document: Document, out: TextIO, indent: int) -> None:
    start, end, level, _parent, tag_id, tags = document.columns
    newline = "\n" if indent else ""
    opens = [f"<{tag}>{newline}" for tag in tags]
    closes = [f"</{tag}>{newline}" for tag in tags]
    leaves = [f"<{tag}/>{newline}" for tag in tags]
    widest = indent * max(level)
    chunk = CHUNK_LINES
    if widest > _WIDEST_PAD:
        chunk = max(1, CHUNK_LINES * _WIDEST_PAD // widest)
    # A node is a leaf iff the next node in document order starts after
    # it ends; the root's end bounds every label, so one past it stands
    # in for the node after the last.
    beyond = end[0] + 1
    next_start = start[1:]
    next_start.append(beyond)
    # Open elements as (end label, level, tag id), innermost last, above
    # a sentinel that never closes.
    stack: list[tuple[int, int, int]] = [(beyond, 0, 0)]
    lines: list[str] = []
    for s, e, lv, t, following in zip(start, end, level, tag_id, next_start):
        while stack[-1][0] < s:
            __, closing_level, closing_tag = stack.pop()
            lines.append(" " * (indent * closing_level) + closes[closing_tag])
            if len(lines) >= chunk:
                out.write("".join(lines))
                lines.clear()
        if following < e:
            lines.append(" " * (indent * lv) + opens[t])
            stack.append((e, lv, t))
        else:
            lines.append(" " * (indent * lv) + leaves[t])
        if len(lines) >= chunk:
            out.write("".join(lines))
            lines.clear()
    while len(stack) > 1:
        __, closing_level, closing_tag = stack.pop()
        lines.append(" " * (indent * closing_level) + closes[closing_tag])
        if len(lines) >= chunk:
            out.write("".join(lines))
            lines.clear()
    if lines:
        out.write("".join(lines))
