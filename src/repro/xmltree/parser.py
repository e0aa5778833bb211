"""Minimal from-scratch XML parser producing region-labelled documents.

Supports the XML subset the experiments need: elements, attributes (parsed
and discarded — region labelling concerns element structure only), character
data, comments, processing instructions, CDATA sections, and an optional XML
declaration / DOCTYPE line.  Entities are left unexpanded since text content
does not influence tree pattern matching.

The parser is one compiled-regex token loop.  A token is the character
data before a ``<`` plus the markup there, so tokens tile the text; the
loop appends the columns under :class:`DocumentBuilder`'s counter rule
and hands them to ``Document._trusted``.  Every quantifier runs over a
class its neighbour cannot match or ends a name at a negative lookahead,
so no name splits and every input is decided in linear time.  Errors
carry the offset of the failing ``<`` or character data.
"""

from __future__ import annotations

import io
import os
import re
from array import array

from repro.errors import XmlParseError
from repro.xmltree.document import Columns, Document, _tag_index

_NAME = r"[A-Za-z_:][A-Za-z0-9_:.\-]*(?![A-Za-z0-9_:.\-])"
_ATTRIBUTE = rf"""\s*{_NAME}(?:\s*=\s*(?:"[^"]*"|'[^']*'))?"""
_TOKEN = re.compile(
    rf"""([^<]*)(?:<(?:
        /({_NAME})\s*>                         # 2: end tag
      | ({_NAME})(?:{_ATTRIBUTE})*\s*(/?)>     # 3: start tag, 4: "/" if empty
      | (!(?=--)(?s:.*?)-->                    # 5: comment
        | !\[CDATA\[(?s:.*?)\]\]>              #    CDATA section
        | !(?!--|\[CDATA\[)[^>]*>              #    declaration
        | (?=\?)(?s:.*?)\?>)                   #    processing instruction
      | ()                                     # 6: malformed markup
    )|\Z)""",
    re.VERBOSE,
)


def parse_xml(text: str, name: str = "document") -> Document:
    """Parse XML text into a region-labelled :class:`Document`.

    Raises:
        XmlParseError: on malformed markup or mismatched tags.
    """
    starts, ends, levels = array("i"), array("i"), array("i")
    parents, tag_column = array("i"), array("i")
    tag_ids: dict[str, int] = {}
    stack: list[int] = []  # indexes of the open elements
    counter = 0
    for match in _TOKEN.finditer(text):
        data, closed, opened, empty, skipped, bad = match.groups()
        if not stack and data and not data.isspace():
            raise XmlParseError(
                "character data outside the root element", match.start()
            )
        if opened is not None:
            if stack:
                parent = stack[-1]
            elif starts:
                raise XmlParseError("multiple root elements", match.end(1))
            else:
                parent = -1
            tag_id = tag_ids.get(opened)
            if tag_id is None:
                tag_id = tag_ids[opened] = len(tag_ids)
            starts.append(counter)
            levels.append(len(stack))
            parents.append(parent)
            tag_column.append(tag_id)
            if empty:
                ends.append(counter + 1)
                counter += 2
            else:
                stack.append(len(ends))
                ends.append(-1)
                counter += 1
        elif closed is not None:
            if not stack:
                raise XmlParseError(
                    f"unexpected end tag </{closed}>", match.end(1)
                )
            index = stack.pop()
            expected = tag_column[index]
            if tag_ids.get(closed) != expected:
                raise XmlParseError(
                    f"mismatched end tag </{closed}>, expected"
                    f" </{list(tag_ids)[expected]}>", match.end(1),
                )
            ends[index] = counter
            counter += 1
        elif bad is not None:
            at = match.end(1)
            raise XmlParseError(
                f"malformed or unterminated markup {text[at:at + 16]!r}", at
            )
        elif skipped is None:
            break  # end of text
    if stack:
        tag = list(tag_ids)[tag_column[stack[-1]]]
        raise XmlParseError(
            f"unclosed element <{tag}> at end of input", len(text)
        )
    if not starts:
        raise XmlParseError("no root element found", 0)
    columns = Columns(starts, ends, levels, parents, tag_column, tuple(tag_ids))
    return Document._trusted(columns, _tag_index(columns), name)


def parse_xml_file(path: str | os.PathLike[str]) -> Document:
    """Parse an XML file; the document name is the file's base name."""
    with io.open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return parse_xml(text, name=os.path.basename(os.fspath(path)))
