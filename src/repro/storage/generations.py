"""Generation-chained store manifests (MVCC snapshots, DESIGN.md §16).

A maintenance commit replaces ``manifest.json``/``document.xml``, which
alone would make the pre-commit state unreachable the instant the
replace landed.  Because view repairs are copy-on-write (repaired lists
go to freshly allocated pages; old pages are never patched —
``maintenance/repair.py``), the *pages* of every past commit are still
physically present in ``pages.bin``.  This module keeps the metadata
alive too: before :func:`~repro.storage.persistence.commit_store`
publishes a new manifest, it hard-links the outgoing one (plus its
document) into an immutable, numbered generation file — the replace
then gives the store fresh files and leaves the archived ones alone::

    <store>/
      document.xml          current generation's data tree
      pages.bin             all generations' pages, append-only
      manifest.json         current generation (carries "generation": N)
      generations/
        3.json              archived manifest of generation 3
        3.xml               archived document of generation 3
        4.json ...

A reader that pinned generation ``g`` before a commit can keep
answering from it: :func:`~repro.storage.persistence.load_catalog`
accepts ``generation=g`` and attaches the archived manifest against the
shared page file.  Generations are identified by their
``store_version`` — the chain is simply every manifest the store has
ever published, newest one living as ``manifest.json`` itself.

Garbage collection (:func:`reap_generations`) deletes archived
generation files oldest-first until the archive fits a byte budget,
never touching *pinned* generations (the current one is implicitly
pinned).  ``soft_pinned`` generations — referenced only by suspended
continuation sessions — are reaped last, and only when the hard-pinned
set alone cannot satisfy the budget; the caller is told which ones died
so it can expire their sessions with a typed error.  Reaping removes
the archive files only: pages stay in the append-only ``pages.bin``
(no compactor yet; the exclusive-page liability is reported so callers
can see what a compactor would reclaim).
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
from dataclasses import dataclass

from repro.errors import StorageError

_GENERATIONS_DIR = "generations"


def generation_dir(directory: str | os.PathLike) -> pathlib.Path:
    return pathlib.Path(directory) / _GENERATIONS_DIR


def generation_manifest_path(
    directory: str | os.PathLike, generation: int
) -> pathlib.Path:
    return generation_dir(directory) / f"{int(generation)}.json"


def generation_document_path(
    directory: str | os.PathLike, generation: int
) -> pathlib.Path:
    return generation_dir(directory) / f"{int(generation)}.xml"


def list_generations(directory: str | os.PathLike) -> list[int]:
    """Archived generation numbers on disk, oldest first (the current
    generation lives as ``manifest.json`` and is not listed here)."""
    root = generation_dir(directory)
    if not root.is_dir():
        return []
    found = []
    for entry in root.iterdir():
        if entry.suffix == ".json" and entry.stem.isdigit():
            found.append(int(entry.stem))
    return sorted(found)


def load_generation_manifest(
    directory: str | os.PathLike, generation: int
) -> dict:
    """The archived manifest of ``generation``; typed error if reaped."""
    path = generation_manifest_path(directory, generation)
    if not path.exists():
        raise StorageError(
            f"generation {generation} is not available in {directory}"
            " (reaped by GC or never published)"
        )
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def archive_current_generation(directory: str | os.PathLike) -> int | None:
    """Hard-link the store's current manifest + document into the archive.

    Called by ``commit_store`` *before* it replaces ``manifest.json``,
    so the outgoing generation stays loadable after the commit.  Both
    files are only ever published by ``os.replace``, never written in
    place, so a link pins the outgoing bytes in O(1) and nothing is
    copied, re-read or re-written.  The document is linked first and the
    ``<N>.json`` marker last, so a crash mid-archive leaves at worst an
    orphan ``<N>.xml`` nothing reads, which the next archive of ``N``
    replaces.  Returns the archived generation number, or ``None`` when
    the store has no manifest yet (first save).
    """
    target = pathlib.Path(directory)
    manifest_path = target / "manifest.json"
    if not manifest_path.exists():
        return None
    with open(manifest_path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    generation = int(
        manifest.get("generation", manifest.get("store_version", 1))
    )
    marker = generation_manifest_path(target, generation)
    if marker.exists():
        return generation
    generation_dir(target).mkdir(parents=True, exist_ok=True)
    document = generation_document_path(target, generation)
    try:
        os.link(target / "document.xml", document)
    except FileExistsError:  # an orphan left by a crash mid-archive
        os.unlink(document)
        os.link(target / "document.xml", document)
    os.link(manifest_path, marker)
    return generation


def clear_generations(directory: str | os.PathLike) -> None:
    """Drop the whole archive (``save_catalog`` chain reset: a snapshot
    save truncates ``pages.bin``, so archived manifests would point at
    pages that no longer exist)."""
    root = generation_dir(directory)
    if root.is_dir():
        shutil.rmtree(root)


@dataclass(frozen=True)
class GCReport:
    """What one :func:`reap_generations` pass did."""

    reaped: tuple[int, ...]
    kept: tuple[int, ...]
    pinned: tuple[int, ...]
    bytes_before: int
    bytes_after: int
    budget_bytes: int
    #: pages referenced *only* by already-reaped generations (neither by
    #: a surviving generation nor the current manifest) — what a page
    #: compactor could physically reclaim from ``pages.bin``.
    reclaimable_pages: int = 0
    page_size: int = 0

    def as_dict(self) -> dict:
        return {
            "reaped": list(self.reaped),
            "kept": list(self.kept),
            "pinned": list(self.pinned),
            "bytes_before": self.bytes_before,
            "bytes_after": self.bytes_after,
            "budget_bytes": self.budget_bytes,
            "reclaimable_pages": self.reclaimable_pages,
            "reclaimable_page_bytes": self.reclaimable_pages
            * self.page_size,
        }


def _archive_bytes(directory: pathlib.Path, generation: int) -> int:
    total = 0
    for path in (
        generation_manifest_path(directory, generation),
        generation_document_path(directory, generation),
    ):
        try:
            total += path.stat().st_size
        except OSError:
            pass
    return total


def _manifest_pages(manifest: dict) -> set[int]:
    return {int(page) for page in manifest.get("page_checksums", {})}


def reap_generations(
    directory: str | os.PathLike,
    budget_bytes: int | float,
    pinned: set[int] | frozenset[int] = frozenset(),
    soft_pinned: set[int] | frozenset[int] = frozenset(),
) -> GCReport:
    """Delete archived generations oldest-first until the archive fits
    ``budget_bytes``.

    ``pinned`` generations are never reaped (callers must include the
    current generation).  ``soft_pinned`` ones (live continuation
    sessions) are only reaped once every unpinned generation is gone and
    the archive is still over budget — the report's ``reaped`` tuple
    tells the caller which sessions to expire.
    """
    target = pathlib.Path(directory)
    generations = list_generations(target)
    sizes = {gen: _archive_bytes(target, gen) for gen in generations}
    total = sum(sizes.values())
    bytes_before = total
    budget = max(0, int(budget_bytes))
    hard = set(pinned)
    soft = set(soft_pinned) - hard

    reaped: list[int] = []
    for wave in (
        [g for g in generations if g not in hard and g not in soft],
        [g for g in generations if g in soft],
    ):
        for gen in wave:
            if total <= budget:
                break
            for path in (
                generation_manifest_path(target, gen),
                generation_document_path(target, gen),
            ):
                try:
                    path.unlink()
                except OSError:
                    pass
            total -= sizes[gen]
            reaped.append(gen)

    kept = [g for g in generations if g not in set(reaped)]
    manifest_path = target / "manifest.json"
    page_size = 0
    reclaimable = 0
    if manifest_path.exists():
        with open(manifest_path, "r", encoding="utf-8") as handle:
            current = json.load(handle)
        page_size = int(current.get("page_size", 0))
        live_pages = _manifest_pages(current)
        for gen in kept:
            try:
                live_pages |= _manifest_pages(
                    load_generation_manifest(target, gen)
                )
            except StorageError:
                pass
        allocated = _allocated_pages(target, page_size)
        if allocated is not None:
            reclaimable = max(0, allocated - len(live_pages))
    return GCReport(
        reaped=tuple(reaped),
        kept=tuple(kept),
        pinned=tuple(sorted(hard)),
        bytes_before=bytes_before,
        bytes_after=total,
        budget_bytes=budget,
        reclaimable_pages=reclaimable,
        page_size=page_size,
    )


def _allocated_pages(
    directory: pathlib.Path, page_size: int
) -> int | None:
    if page_size <= 0:
        return None
    try:
        size = (directory / "pages.bin").stat().st_size
    except OSError:
        return None
    return size // page_size
