"""ZIP archive source (S5, ``/root/reference/src/abcd/archive_reader.rs``).

The reference iterates ZIP members as byte blobs in member-index order
(``archive_reader.rs:45-58``). Same contract here via stdlib
``zipfile``."""

from __future__ import annotations

import zipfile
from typing import Iterator


def iter_archive_bytes(path: str) -> Iterator[tuple[str, bytes]]:
    """(member_name, bytes) in member-index order."""
    with zipfile.ZipFile(path) as zf:
        for info in zf.infolist():
            if info.is_dir():
                continue
            yield info.filename, zf.read(info)


def archive_len(path: str) -> int:
    with zipfile.ZipFile(path) as zf:
        return sum(1 for i in zf.infolist() if not i.is_dir())

