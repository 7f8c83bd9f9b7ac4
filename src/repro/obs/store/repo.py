"""The experiment store facade: init, commit, log, show, checkout.

:class:`ExperimentStore` ties the object database
(:mod:`repro.obs.store.objects`) to the ref layer
(:mod:`repro.obs.store.refs`) with the operations the CLI and
``run_all --commit-run`` drive:

* :meth:`ExperimentStore.init` / :meth:`ExperimentStore.open` — create
  or attach to a store root (default ``.obs/store``);
* :meth:`ExperimentStore.commit_artifacts` — blob a ``name -> (bytes,
  role)`` mapping, write its tree + commit, and advance a branch;
* :meth:`ExperimentStore.resolve` — turn ``HEAD`` / ``HEAD~2`` / a
  branch / a tag / a (possibly abbreviated) commit id into a commit;
* :meth:`ExperimentStore.log` — first-parent history walk;
* :meth:`ExperimentStore.checkout` — move HEAD (symbolic for branches,
  detached for commits) and optionally materialise a commit's
  artifacts into a directory.

:func:`collect_run_files` is the bridge from a finished ``run_all``
run to a committable file mapping: the telemetry JSONL, the optional
wire transcript, and a derived ``bounds.json`` summary (every
``bound_check`` event of the run) so bound verdicts are diffable
without re-parsing telemetry.
"""

from __future__ import annotations

import getpass
import json
import re
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.obs.store.objects import (
    Commit,
    ObjectStore,
    StoreError,
    Tree,
    short_oid,
    tree_from_files,
)
from repro.obs.store.refs import DEFAULT_BRANCH, RefStore

#: Default store root, relative to the working directory — lives beside
#: the legacy ``.obs/history.jsonl`` it supersedes.
DEFAULT_STORE = ".obs/store"

_REV_SUFFIX_RE = re.compile(r"^(?P<base>.+?)(?P<tildes>(~\d*)+)$")


def _default_author() -> str:
    try:
        return getpass.getuser()
    except (KeyError, OSError):  # no passwd entry in minimal containers
        return "repro"


class ExperimentStore:
    """A content-addressed, versioned store of experiment runs."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.objects = ObjectStore(self.root)
        self.refs = RefStore(self.root)

    # -- lifecycle ------------------------------------------------------

    @staticmethod
    def is_store(root) -> bool:
        """Whether ``root`` looks like an initialised store."""
        root = Path(root)
        return (root / "HEAD").is_file() and (root / "objects").is_dir()

    @classmethod
    def init(cls, root, default_branch: str = DEFAULT_BRANCH) -> "ExperimentStore":
        """Create a store at ``root`` (re-opening an existing one is fine)."""
        store = cls(root)
        if cls.is_store(root):
            return store
        store.objects.objects_dir.mkdir(parents=True, exist_ok=True)
        store.refs.heads_dir.mkdir(parents=True, exist_ok=True)
        store.refs.tags_dir.mkdir(parents=True, exist_ok=True)
        store.refs.set_head_branch(default_branch, message="init")
        return store

    @classmethod
    def open(cls, root) -> "ExperimentStore":
        """Attach to an existing store; raises when ``root`` is not one."""
        if not cls.is_store(root):
            raise StoreError(
                f"{root} is not an experiment store; "
                "create one with `obs_store.py init`"
            )
        return cls(root)

    # -- committing -----------------------------------------------------

    def commit_artifacts(
        self,
        files: Dict[str, Tuple[bytes, str]],
        message: str,
        branch: Optional[str] = None,
        meta: Optional[Dict[str, Any]] = None,
        author: Optional[str] = None,
        timestamp: Optional[float] = None,
    ) -> str:
        """Commit one run's artifacts; returns the new commit id.

        ``branch=None`` commits to the checked-out branch (HEAD must be
        on a branch).  Naming a branch that does not exist yet starts a
        new line whose first commit has no parent — experiment lines
        are independent histories, not forks of ``main``.
        """
        if not files:
            raise StoreError("refusing to create an empty commit (no artifacts)")
        if branch is None:
            branch = self.refs.current_branch()
            if branch is None:
                raise StoreError(
                    "HEAD is detached; name a branch to commit to"
                )
        parent = self.refs.read_branch(branch)
        tree_oid = tree_from_files(self.objects, files)
        commit = Commit(
            tree=tree_oid,
            parents=(parent,) if parent else (),
            message=message,
            author=author or _default_author(),
            timestamp=time.time() if timestamp is None else float(timestamp),
            meta=dict(meta or {}),
        )
        oid = self.objects.write_commit(commit)
        self.refs.update_branch(branch, oid, message=f"commit: {message}")
        return oid

    # -- reading --------------------------------------------------------

    def read_commit(self, oid: str) -> Commit:
        return self.objects.read_commit(oid)

    def read_tree_of(self, commit_oid: str) -> Tree:
        return self.objects.read_tree(self.read_commit(commit_oid).tree)

    def blob_bytes(self, oid: str) -> bytes:
        return self.objects.read_blob(oid)

    def tree_files(self, commit_oid: str) -> Dict[str, Tuple[str, str]]:
        """``{name: (blob oid, role)}`` of one commit's artifacts."""
        return {
            e.name: (e.oid, e.role) for e in self.read_tree_of(commit_oid).entries
        }

    def artifact_bytes(self, commit_oid: str, name: str) -> bytes:
        files = self.tree_files(commit_oid)
        if name not in files:
            raise StoreError(
                f"commit {short_oid(commit_oid)} has no artifact {name!r} "
                f"(has: {sorted(files)})"
            )
        return self.blob_bytes(files[name][0])

    def artifacts_by_role(
        self, commit_oid: str, role: str
    ) -> List[Tuple[str, bytes]]:
        """``(name, content)`` pairs of every artifact carrying ``role``."""
        tree = self.read_tree_of(commit_oid)
        return [
            (e.name, self.blob_bytes(e.oid)) for e in tree.by_role(role)
        ]

    # -- revision resolution --------------------------------------------

    def resolve(self, rev: str) -> str:
        """Commit id for ``HEAD``/``HEAD~N``/branch/tag/hex-prefix revs."""
        rev = rev.strip()
        if not rev:
            raise StoreError("empty revision")
        match = _REV_SUFFIX_RE.match(rev)
        hops = 0
        if match and "~" in rev:
            base = match.group("base")
            for part in match.group("tildes").split("~")[1:]:
                hops += int(part) if part else 1
            rev = base
        oid = self._resolve_base(rev)
        for _ in range(hops):
            commit = self.read_commit(oid)
            if not commit.parents:
                raise StoreError(
                    f"commit {short_oid(oid)} has no parent "
                    f"(walked past the root resolving {rev!r}~{hops})"
                )
            oid = commit.parents[0]
        return oid

    def _resolve_base(self, rev: str) -> str:
        if rev == "HEAD":
            oid = self.refs.resolve_head()
            if oid is None:
                raise StoreError("HEAD points at an unborn branch (no commits yet)")
            return oid
        branch = self.refs.read_branch(rev) if self._plausible_ref(rev) else None
        if branch is not None:
            return branch
        tag = self.refs.read_tag(rev) if self._plausible_ref(rev) else None
        if tag is not None:
            return tag
        resolved = self.objects.resolve_prefix(rev)
        if resolved is not None:
            kind, _ = self.objects.read(resolved)
            if kind != "commit":
                raise StoreError(f"{rev!r} names a {kind}, not a commit")
            return resolved
        raise StoreError(f"unknown revision {rev!r}")

    @staticmethod
    def _plausible_ref(rev: str) -> bool:
        try:
            from repro.obs.store.refs import validate_ref_name

            validate_ref_name(rev)
            return True
        except StoreError:
            return False

    # -- history --------------------------------------------------------

    def walk(self, start_oid: str) -> Iterator[Tuple[str, Commit]]:
        """First-parent walk from ``start_oid`` back to the root."""
        oid: Optional[str] = start_oid
        while oid is not None:
            commit = self.read_commit(oid)
            yield oid, commit
            oid = commit.parents[0] if commit.parents else None

    def log(
        self, rev: str = "HEAD", limit: Optional[int] = None
    ) -> List[Tuple[str, Commit]]:
        """``(oid, commit)`` pairs, newest first."""
        entries = []
        for oid, commit in self.walk(self.resolve(rev)):
            entries.append((oid, commit))
            if limit is not None and len(entries) >= limit:
                break
        return entries

    def history(self, rev: str = "HEAD") -> List[Tuple[str, Commit]]:
        """``(oid, commit)`` pairs, oldest first (the trends order)."""
        return list(reversed(self.log(rev)))

    # -- checkout -------------------------------------------------------

    def checkout(self, rev: str, out_dir=None) -> str:
        """Move HEAD to ``rev``; optionally extract its artifacts.

        A branch name checks out symbolically (new commits advance it);
        anything else detaches HEAD at the resolved commit.  With
        ``out_dir`` the commit's artifacts are written there under
        their tree names.  Returns the resolved commit id.
        """
        is_branch = False
        try:
            is_branch = self.refs.read_branch(rev) is not None
        except StoreError:
            pass
        oid = self.resolve(rev)
        if is_branch:
            self.refs.set_head_branch(rev, message=f"checkout: {rev}")
        else:
            self.refs.set_head_detached(oid, message=f"checkout: {rev}")
        if out_dir is not None:
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            for entry in self.read_tree_of(oid).entries:
                target = (out / entry.name).resolve()
                if not str(target).startswith(str(out.resolve())):
                    raise StoreError(
                        f"refusing to extract {entry.name!r} outside {out}"
                    )
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_bytes(self.blob_bytes(entry.oid))
        return oid


# ----------------------------------------------------------------------
# run_all -> store bridge
# ----------------------------------------------------------------------


def events_from_bytes(data: bytes) -> List[Dict[str, Any]]:
    """Parse telemetry/capture JSONL bytes into event dicts.

    The blob-side twin of :func:`repro.obs.report.load_events`; blank
    lines are tolerated, anything unparseable raises (a committed blob
    is immutable — if it does not parse, it never will).
    """
    events: List[Dict[str, Any]] = []
    for lineno, line in enumerate(data.decode("utf-8").splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise StoreError(f"blob line {lineno}: not valid JSON ({exc})") from exc
        if not isinstance(record, dict):
            raise StoreError(f"blob line {lineno}: expected a JSON object")
        events.append(record)
    return events


def bounds_summary(events: List[Dict[str, Any]]) -> bytes:
    """A ``bounds.json`` blob: every ``bound_check`` event of a run."""
    checks = [
        {k: v for k, v in record.items() if k not in ("seq", "ts")}
        for record in events
        if record.get("event") == "bound_check"
    ]
    payload = {
        "checks": checks,
        "violations": sum(1 for c in checks if c.get("status") == "violation"),
    }
    return json.dumps(payload, sort_keys=True, indent=1).encode("utf-8")


def collect_run_files(
    telemetry_path=None,
    capture_path=None,
) -> Dict[str, Tuple[bytes, str]]:
    """Build the committable ``name -> (bytes, role)`` map of one run."""
    files: Dict[str, Tuple[bytes, str]] = {}
    if telemetry_path is not None:
        data = Path(telemetry_path).read_bytes()
        files["telemetry.jsonl"] = (data, "telemetry")
        bounds = bounds_summary(events_from_bytes(data))
        files["bounds.json"] = (bounds, "bounds")
    if capture_path is not None:
        files["wire.capture.jsonl"] = (
            Path(capture_path).read_bytes(),
            "capture",
        )
    if not files:
        raise StoreError("nothing to commit: no telemetry or capture file")
    return files


__all__ = [
    "DEFAULT_STORE",
    "ExperimentStore",
    "bounds_summary",
    "collect_run_files",
    "events_from_bytes",
]
