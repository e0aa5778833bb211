"""The retired character scanner of ``repro.xmltree.parser``, kept as a
differential reference.

It walks the text one character at a time — names by ``_NAME_CHARS``
membership, whitespace by ``str.isspace``, attributes by a hand loop —
and feeds a :class:`DocumentBuilder`.  The production parser is a
compiled-regex token loop that shares none of this code, so
``tests/test_parser_fuzz.py`` holds it to this scanner on the accepted
language (accept/reject agree on every input) and on the columns of
every accepted document.
"""

from __future__ import annotations

from repro.errors import XmlParseError
from repro.xmltree.document import Document, DocumentBuilder

_NAME_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_:")
_NAME_CHARS = _NAME_START | set("0123456789.-")


def parse_xml(text: str, name: str = "document") -> Document:
    """The reference scanner's :class:`Document` for ``text``, or its
    :class:`XmlParseError`."""
    parser = _Parser(text)
    return parser.run(name)


class _Parser:
    """Recursive-descent-free linear scanner over the XML text."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.length = len(text)

    def run(self, name: str) -> Document:
        builder = DocumentBuilder(name)
        open_tags: list[str] = []
        saw_root = False
        while self.pos < self.length:
            lt = self.text.find("<", self.pos)
            if lt < 0:
                trailing = self.text[self.pos :].strip()
                if trailing:
                    raise XmlParseError(
                        "character data outside the root element", self.pos
                    )
                break
            # Character data between tags is ignored for labelling purposes,
            # but data outside the root element is an error.
            between = self.text[self.pos : lt]
            if between.strip() and not open_tags:
                raise XmlParseError(
                    "character data outside the root element", self.pos
                )
            self.pos = lt
            self._dispatch_markup(builder, open_tags)
            if open_tags or len(builder):
                saw_root = True
        if open_tags:
            raise XmlParseError(
                f"unclosed element <{open_tags[-1]}> at end of input", self.pos
            )
        if not saw_root:
            raise XmlParseError("no root element found", 0)
        return builder.build()

    def _dispatch_markup(
        self, builder: DocumentBuilder, open_tags: list[str]
    ) -> None:
        text = self.text
        pos = self.pos
        if text.startswith("<!--", pos):
            self._skip_until("-->", "unterminated comment")
        elif text.startswith("<![CDATA[", pos):
            self._skip_until("]]>", "unterminated CDATA section")
        elif text.startswith("<!", pos):
            self._skip_until(">", "unterminated declaration")
        elif text.startswith("<?", pos):
            self._skip_until("?>", "unterminated processing instruction")
        elif text.startswith("</", pos):
            self._close_tag(builder, open_tags)
        else:
            self._open_tag(builder, open_tags)

    def _skip_until(self, terminator: str, message: str) -> None:
        end = self.text.find(terminator, self.pos)
        if end < 0:
            raise XmlParseError(message, self.pos)
        self.pos = end + len(terminator)

    def _read_name(self) -> str:
        start = self.pos
        if start >= self.length or self.text[start] not in _NAME_START:
            raise XmlParseError("expected an XML name", start)
        pos = start + 1
        while pos < self.length and self.text[pos] in _NAME_CHARS:
            pos += 1
        self.pos = pos
        return self.text[start:pos]

    def _skip_whitespace(self) -> None:
        while self.pos < self.length and self.text[self.pos].isspace():
            self.pos += 1

    def _open_tag(self, builder: DocumentBuilder, open_tags: list[str]) -> None:
        if not open_tags and len(builder):
            raise XmlParseError("multiple root elements", self.pos)
        self.pos += 1  # consume '<'
        tag = self._read_name()
        self._skip_attributes()
        if self.text.startswith("/>", self.pos):
            self.pos += 2
            builder.leaf(tag)
            return
        if self.pos >= self.length or self.text[self.pos] != ">":
            raise XmlParseError(f"malformed start tag <{tag}", self.pos)
        self.pos += 1
        builder.open(tag)
        open_tags.append(tag)

    def _close_tag(self, builder: DocumentBuilder, open_tags: list[str]) -> None:
        self.pos += 2  # consume '</'
        tag = self._read_name()
        self._skip_whitespace()
        if self.pos >= self.length or self.text[self.pos] != ">":
            raise XmlParseError(f"malformed end tag </{tag}", self.pos)
        self.pos += 1
        if not open_tags:
            raise XmlParseError(f"unexpected end tag </{tag}>", self.pos)
        expected = open_tags.pop()
        if expected != tag:
            raise XmlParseError(
                f"mismatched end tag </{tag}>, expected </{expected}>", self.pos
            )
        builder.close()

    def _skip_attributes(self) -> None:
        """Scan past attributes, validating quote balance."""
        while True:
            self._skip_whitespace()
            if self.pos >= self.length:
                raise XmlParseError("unterminated start tag", self.pos)
            ch = self.text[self.pos]
            if ch in (">",) or self.text.startswith("/>", self.pos):
                return
            self._read_name()
            self._skip_whitespace()
            if self.pos < self.length and self.text[self.pos] == "=":
                self.pos += 1
                self._skip_whitespace()
                if self.pos >= self.length or self.text[self.pos] not in "\"'":
                    raise XmlParseError("attribute value must be quoted", self.pos)
                quote = self.text[self.pos]
                end = self.text.find(quote, self.pos + 1)
                if end < 0:
                    raise XmlParseError("unterminated attribute value", self.pos)
                self.pos = end + 1
