"""Document collections: query several documents as one store.

XML databases evaluate TPQs over *collections*; the region-label algebra,
however, assumes a single global document order.  :func:`combine_documents`
builds that order: member documents are re-labelled into disjoint label
ranges under a synthetic collection root.  Because every query and view
starts with ``//`` and the collection root's tag is reserved, no match can
span two member documents — the combined document's matches are exactly
the union of the members' matches, which the tests verify.
"""

from __future__ import annotations

from array import array
from typing import Sequence

from repro.errors import ReproError
from repro.xmltree.document import Columns, Document, Node

#: Reserved tag of the synthetic collection root.
COLLECTION_ROOT_TAG = "__collection__"


def combine_documents(
    documents: Sequence[Document],
    name: str = "collection",
    root_tag: str = COLLECTION_ROOT_TAG,
) -> Document:
    """Combine ``documents`` into one tree under a synthetic root.

    Args:
        documents: member documents, kept in the given order.
        name: name of the combined document.
        root_tag: tag of the synthetic root; must not occur in any member
            (otherwise queries could match across document boundaries).

    Returns:
        A document whose non-root nodes are the members' nodes with
        shifted region labels (levels deepen by one).
    """
    if not documents:
        raise ReproError("cannot combine an empty document collection")
    for document in documents:
        if root_tag in document.tags():
            raise ReproError(
                f"member document {document.name!r} already uses the"
                f" reserved root tag {root_tag!r}"
            )

    # Row 0 is the synthetic root; its end is patched once every member
    # has been placed.
    start, end, level = array("i", [0]), array("i", [0]), array("i", [0])
    parent, tag_id = array("i", [-1]), array("i", [0])
    ids: dict[str, int] = {root_tag: 0}
    label_offset = 1
    index_offset = 1
    for document in documents:
        columns = document.columns
        start.extend([s + label_offset for s in columns.start])
        end.extend([e + label_offset for e in columns.end])
        level.extend([lv + 1 for lv in columns.level])
        parent.extend(
            [0 if p < 0 else p + index_offset for p in columns.parent]
        )
        remap = [ids.setdefault(tag, len(ids)) for tag in columns.tags]
        tag_id.extend([remap[t] for t in columns.tag_id])
        label_offset += columns.end[0] + 1
        index_offset += len(document)
    end[0] = label_offset
    return Document.from_columns(
        Columns(start, end, level, parent, tag_id, tuple(ids)), name=name
    )


def member_of(collection: Document, node: Node) -> int:
    """Index of the member document containing ``node``.

    Member roots are exactly the collection root's children, in order.
    """
    if node.parent_index < 0:
        raise ReproError("the collection root belongs to no member")
    roots = collection.children(collection.root)
    for position, root in enumerate(roots):
        if root.start <= node.start and node.end <= root.end:
            return position
    raise ReproError(f"node {node!r} is outside every member document")
