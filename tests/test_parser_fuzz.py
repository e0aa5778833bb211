"""Fuzz tests: malformed inputs must raise typed errors, never crash.

Both parsers guard the library's outer boundary; arbitrary input must
either parse or raise their dedicated error type — no IndexError,
RecursionError or silent misparse.  The XML parser is also held to the
retired character scanner (``tests/xml_scanner_reference.py``): the same
accept/reject on every input, the same columns on every accepted one,
and linear time on the unterminated tags a backtracking regex would
take exponential or quadratic time to refuse.
"""

from __future__ import annotations

import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import random_trees
from repro.errors import PatternParseError, XmlParseError
from repro.tpq.parser import parse_pattern
from repro.xmltree.parser import parse_xml
from repro.xmltree.writer import write_xml
from tests import xml_scanner_reference

_XMLISH = st.text(
    alphabet=st.sampled_from(list("<>/ab c=\"'!?-[]\n\t")), max_size=120
)
_PATTERNISH = st.text(
    alphabet=st.sampled_from(list("/ab[]c_1 .")), max_size=60
)


@settings(deadline=None, max_examples=300)
@given(_XMLISH)
def test_xml_parser_total(text):
    try:
        doc = parse_xml(text)
    except XmlParseError:
        return
    # Anything accepted must be a well-formed document that round-trips.
    again = parse_xml(write_xml(doc))
    assert [(n.tag, n.start, n.end) for n in doc] == [
        (n.tag, n.start, n.end) for n in again
    ]


@settings(deadline=None, max_examples=300)
@given(_PATTERNISH)
def test_pattern_parser_total(text):
    try:
        pattern = parse_pattern(text)
    except (PatternParseError, Exception) as error:
        from repro.errors import ReproError

        assert isinstance(error, ReproError), type(error)
        return
    # Accepted patterns round-trip structurally.
    assert parse_pattern(pattern.to_xpath()) == pattern


@settings(deadline=None, max_examples=100)
@given(st.text(max_size=80))
def test_xml_parser_arbitrary_unicode(text):
    try:
        parse_xml(text)
    except XmlParseError:
        pass


def test_deeply_nested_xml_within_limits():
    depth = 400
    text = "".join(f"<t{i}>" for i in range(depth)) + "".join(
        f"</t{i}>" for i in reversed(range(depth))
    )
    doc = parse_xml(text)
    assert doc.max_depth() == depth - 1


def test_pattern_long_chain():
    text = "//" + "//".join(f"t{i}" for i in range(200))
    pattern = parse_pattern(text)
    assert len(pattern) == 200


# -- the regex token loop against the reference scanner ------------------------


def _outcome(parse, text):
    """``parse(text)``'s columns, or ``"rejected"``."""
    try:
        return parse(text).columns
    except XmlParseError:
        return "rejected"


@settings(deadline=None, max_examples=500)
@given(_XMLISH, st.booleans())
def test_xml_parser_matches_reference_scanner(text, inside_root):
    """Same accept/reject and, when both accept, identical columns; inside
    a root, stray markup is more often the only thing that decides."""
    if inside_root:
        text = f"<r>{text}</r>"
    assert _outcome(parse_xml, text) == _outcome(
        xml_scanner_reference.parse_xml, text
    )


#: Decorations for a start tag of writer output: none, values holding
#: markup, bare names, no whitespace between attributes, newlines.
_ATTRIBUTES = ("", ' id="x>y"', " k='<v/>' flag", ' a="1"b=\'2\'c',
               '\n\tx = "</z>"  ', " _:n.1-2 = ''")
#: What may sit between an element's children: comments (one of them
#: the scanner's ``<!-->``), CDATA, processing instructions (one of them
#: ``<?>``), character data.
_CONTENT = ("", "<!-- c <a> -- -->", "<!-->", "<![CDATA[ <b></b> ]]>",
            "<?pi <c/> ?>", "<?>", "text &amp; more", "\u3000")
_PROLOG = ('<?xml version="1.0"?>\n<!DOCTYPE root SYSTEM "root.dtd">\n'
           "<!-- head -->\n")
_EPILOG = "\n<!-- tail --><?done?>\n"


@settings(deadline=None, max_examples=150)
@given(seed=st.integers(0, 500), data=st.data())
def test_decorated_writer_output_matches_reference(seed, data):
    """Writer output with attributes, comments, CDATA, PIs, a DOCTYPE and
    character data mixed in parses to the written document's columns, on
    both sides."""
    doc = random_trees.generate(size=40, max_depth=6, seed=seed)
    pieces = [_PROLOG]
    for piece in re.split(r"(<[^>]*>)", write_xml(doc)):
        if piece.startswith("<") and not piece.startswith("</"):
            close = "/>" if piece.endswith("/>") else ">"
            attributes = data.draw(st.sampled_from(_ATTRIBUTES))
            piece = piece[:-len(close)] + attributes + close
            if close == ">":
                piece += data.draw(st.sampled_from(_CONTENT))
        pieces.append(piece)
    pieces.append(_EPILOG)
    text = "".join(pieces)
    assert parse_xml(text).columns == doc.columns
    assert xml_scanner_reference.parse_xml(text).columns == doc.columns


@pytest.mark.parametrize("text", [
    "<r><a " + "b" * 20000,
    "<r><a" + ' b="x"' * 5000,
    "<r><a " + "b " * 10000,
], ids=["one-long-name", "valued-attributes", "bare-attributes"])
def test_unterminated_tag_is_rejected_in_linear_time(text):
    """A name is never split between attributes and no quantifier nests
    over another that can match the same text, so refusing these takes
    one pass (a naive attribute regex took seconds on 24 characters)."""
    begin = time.perf_counter()
    with pytest.raises(XmlParseError):
        parse_xml(text)
    assert time.perf_counter() - begin < 1.0
