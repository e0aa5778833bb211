"""Serialize region-labelled documents back to XML text.

The writer emits element structure only (the model carries no text/attribute
payload); output round-trips through :func:`repro.xmltree.parser.parse_xml`
with identical region labels, which the test suite verifies.

It is one pass over the document's level and tag columns in document
order: a node's children, and the elements that close after it, follow
from the next node's level, so no recursion and no label comparison is
needed and a document of any depth can be written.  Each output line is
looked up in a table keyed by (level, tag), filled on first use, instead
of being padded and concatenated per node.  Lines go out at most
``CHUNK_LINES`` per ``write`` call, and fewer for documents whose
indentation alone would make such a chunk large; the tables keep only
short lines and only so many, so what is held besides the document stays
bounded.
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

#: Most lines one of the writer's three line tables (open, leaf and close
#: tags, keyed by level and tag) keeps; the three together stay within
#: about one chunk's bound.
_TABLE_LINES = CHUNK_LINES // 3


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
    __, __, level, __, tag_id, tags = document.columns
    newline = "\n" if indent else ""
    opens: dict[int, str] = {}
    leaves: dict[int, str] = {}
    closes: dict[int, str] = {}
    tag_count = len(tags)
    depth = max(level)
    chunk = CHUNK_LINES
    if indent * depth > _WIDEST_PAD:
        chunk = max(1, CHUNK_LINES * _WIDEST_PAD // (indent * depth))
    # In document order a node has children iff the next node is one
    # level deeper, and the elements it leaves open close, innermost
    # first, down to the next node's level; a level below the root's
    # stands in for the node after the last.
    next_level = level[1:]
    next_level.append(0)
    # The key of the element open at each level of the current path.
    open_keys = [0] * (depth + 1)
    lines: list[str] = []
    append = lines.append
    for lv, t, below in zip(level, tag_id, next_level):
        key = lv * tag_count + t
        if below > lv:
            try:
                append(opens[key])
            except KeyError:
                append(_line(opens, "<{}>" + newline, key, tags, indent))
            open_keys[lv] = key
        else:
            try:
                append(leaves[key])
            except KeyError:
                append(_line(leaves, "<{}/>" + newline, key, tags, indent))
        if len(lines) >= chunk:
            out.write("".join(lines))
            lines.clear()
        while below < lv:
            lv -= 1
            key = open_keys[lv]
            try:
                append(closes[key])
            except KeyError:
                append(_line(closes, "</{}>" + newline, key, tags, indent))
            if len(lines) >= chunk:
                out.write("".join(lines))
                lines.clear()
    if lines:
        out.write("".join(lines))


def _line(
    table: dict[int, str], form: str, key: int, tags: tuple[str, ...],
    indent: int,
) -> str:
    """The line ``form`` renders for ``key`` (``level * len(tags) +
    tag_id``), kept in ``table`` while that stays small: at most
    ``_TABLE_LINES`` lines of at most ``_WIDEST_PAD`` padding each."""
    level, tag = divmod(key, len(tags))
    pad = indent * level
    line = " " * pad + form.format(tags[tag])
    if pad <= _WIDEST_PAD and len(table) < _TABLE_LINES:
        table[key] = line
    return line
