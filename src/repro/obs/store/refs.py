"""Branches, tags, HEAD, and the reflog for the experiment store.

Refs are the store's *names*: a branch per experiment line (the
convention is ``lines/<area>`` — ``lines/kernels``, ``lines/serving``),
tags for milestones (a paper submission, a released baseline), and
``HEAD`` for "where the next commit goes".  A ref is one file holding
one commit id; ``HEAD`` is either symbolic (``ref: refs/heads/<branch>``)
or a detached commit id.

Every HEAD/branch movement appends a JSONL record to ``reflog`` —
``{ts, ref, old, new, message}`` — so the history of *the history* is
itself auditable.

Ref names are validated against path traversal exactly because they
become file paths: each ``/``-separated segment must be non-empty,
drawn from ``[A-Za-z0-9._-]``, and must not be ``.`` or ``..`` or start
with a dash.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.store.objects import StoreError

#: The branch a fresh store points HEAD at.
DEFAULT_BRANCH = "main"

_SEGMENT_RE = re.compile(r"^[A-Za-z0-9._-]+$")

_HEX_RE = re.compile(r"^[0-9a-f]{64}$")


def validate_ref_name(name: str) -> str:
    """Reject names that would escape the refs directory (or just confuse).

    Returns the name unchanged so callers can validate inline.
    """
    if not name:
        raise StoreError("ref name cannot be empty")
    for segment in name.split("/"):
        if not segment or segment in (".", ".."):
            raise StoreError(f"invalid ref name {name!r}: empty or dot segment")
        if segment.startswith("-"):
            raise StoreError(f"invalid ref name {name!r}: segment starts with '-'")
        if not _SEGMENT_RE.match(segment):
            raise StoreError(
                f"invalid ref name {name!r}: segment {segment!r} has "
                "characters outside [A-Za-z0-9._-]"
            )
    return name


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=".tmp-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class RefStore:
    """All named pointers of one store root."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.heads_dir = self.root / "refs" / "heads"
        self.tags_dir = self.root / "refs" / "tags"
        self.head_path = self.root / "HEAD"
        self.reflog_path = self.root / "reflog"

    # -- generic ref files ---------------------------------------------

    def _read_ref_file(self, path: Path) -> Optional[str]:
        try:
            text = path.read_text().strip()
        except FileNotFoundError:
            return None
        if not _HEX_RE.match(text):
            raise StoreError(f"ref file {path} does not hold a commit id")
        return text

    def _list_refs(self, base: Path) -> List[str]:
        if not base.exists():
            return []
        names = []
        for path in sorted(base.rglob("*")):
            if path.is_file() and not path.name.startswith("."):
                names.append(str(path.relative_to(base)).replace(os.sep, "/"))
        return names

    # -- branches -------------------------------------------------------

    def branch_path(self, name: str) -> Path:
        return self.heads_dir / validate_ref_name(name)

    def list_branches(self) -> List[str]:
        return self._list_refs(self.heads_dir)

    def read_branch(self, name: str) -> Optional[str]:
        return self._read_ref_file(self.branch_path(name))

    def update_branch(
        self, name: str, oid: str, message: str = ""
    ) -> None:
        """Point ``name`` at ``oid`` (creating it), reflogging the move."""
        old = self.read_branch(name)
        _atomic_write(self.branch_path(name), oid + "\n")
        self.log_move(f"refs/heads/{name}", old, oid, message)

    def delete_branch(self, name: str) -> None:
        path = self.branch_path(name)
        if not path.exists():
            raise StoreError(f"branch {name!r} does not exist")
        current = self.current_branch()
        if current == name:
            raise StoreError(f"cannot delete the checked-out branch {name!r}")
        old = self._read_ref_file(path)
        path.unlink()
        self.log_move(f"refs/heads/{name}", old, None, "branch deleted")

    # -- tags -----------------------------------------------------------

    def tag_path(self, name: str) -> Path:
        return self.tags_dir / validate_ref_name(name)

    def list_tags(self) -> List[str]:
        return self._list_refs(self.tags_dir)

    def read_tag(self, name: str) -> Optional[str]:
        return self._read_ref_file(self.tag_path(name))

    def create_tag(self, name: str, oid: str, message: str = "") -> None:
        if self.read_tag(name) is not None:
            raise StoreError(f"tag {name!r} already exists")
        _atomic_write(self.tag_path(name), oid + "\n")
        self.log_move(f"refs/tags/{name}", None, oid, message or "tag created")

    # -- HEAD -----------------------------------------------------------

    def head(self) -> Tuple[str, str]:
        """``("branch", name)`` or ``("detached", oid)``."""
        try:
            text = self.head_path.read_text().strip()
        except FileNotFoundError:
            raise StoreError(
                f"{self.root} is not an experiment store (no HEAD)"
            ) from None
        if text.startswith("ref: refs/heads/"):
            return ("branch", validate_ref_name(text[len("ref: refs/heads/"):]))
        if _HEX_RE.match(text):
            return ("detached", text)
        raise StoreError(f"corrupt HEAD: {text!r}")

    def current_branch(self) -> Optional[str]:
        """The checked-out branch name, or ``None`` when detached."""
        try:
            kind, value = self.head()
        except StoreError:
            return None
        return value if kind == "branch" else None

    def resolve_head(self) -> Optional[str]:
        """The commit HEAD points at (``None`` on an unborn branch)."""
        kind, value = self.head()
        if kind == "detached":
            return value
        return self.read_branch(value)

    def set_head_branch(self, name: str, message: str = "") -> None:
        old = self._safe_resolve_head()
        _atomic_write(self.head_path, f"ref: refs/heads/{validate_ref_name(name)}\n")
        self.log_move("HEAD", old, self.read_branch(name), message or f"checkout: {name}")

    def set_head_detached(self, oid: str, message: str = "") -> None:
        old = self._safe_resolve_head()
        _atomic_write(self.head_path, oid + "\n")
        self.log_move("HEAD", old, oid, message or "checkout: detached")

    def _safe_resolve_head(self) -> Optional[str]:
        try:
            return self.resolve_head()
        except StoreError:
            return None

    # -- reflog ---------------------------------------------------------

    def log_move(
        self,
        ref: str,
        old: Optional[str],
        new: Optional[str],
        message: str = "",
    ) -> None:
        record = {
            "ts": time.time(),
            "ref": ref,
            "old": old,
            "new": new,
            "message": message,
        }
        self.reflog_path.parent.mkdir(parents=True, exist_ok=True)
        with self.reflog_path.open("a") as fh:
            fh.write(json.dumps(record) + "\n")

    def reflog(self) -> List[Dict[str, Any]]:
        """All reflog records, oldest first."""
        try:
            lines = self.reflog_path.read_text().splitlines()
        except FileNotFoundError:
            return []
        records = []
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise StoreError(
                    f"corrupt reflog at line {lineno}: {exc}"
                ) from exc
            records.append(record)
        return records


__all__ = ["DEFAULT_BRANCH", "RefStore", "validate_ref_name"]
