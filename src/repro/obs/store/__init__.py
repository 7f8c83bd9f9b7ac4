"""The object and ref layers of the former experiment store.

The run history is perfbench's ``--record`` JSONL plus git and CI's
``digest-parity`` job; the store's repository facade, diff, bisect,
fsck, migration, CLI and ``run_all`` bridge are gone.  What is left is
the store's plumbing, a small git:

* :mod:`repro.obs.store.objects` — immutable zlib-compressed objects
  addressed by SHA-256 (:class:`ObjectStore`, :class:`Tree`,
  :class:`Commit`);
* :mod:`repro.obs.store.refs` — branches / tags / HEAD / reflog
  (:class:`RefStore`).

Nothing outside their tests imports them, and ROADMAP's "One history
store" item lists them for deletion.  The serving tier's graph oids
use the same blob framing but compute it in
:func:`repro.serving.protocol.graph_oid`, without importing this
package.
"""

from repro.obs.store.objects import (
    Commit,
    ObjectStore,
    StoreError,
    Tree,
    TreeEntry,
    hash_object,
    short_oid,
)
from repro.obs.store.refs import DEFAULT_BRANCH, RefStore, validate_ref_name

__all__ = [
    "Commit",
    "DEFAULT_BRANCH",
    "ObjectStore",
    "RefStore",
    "StoreError",
    "Tree",
    "TreeEntry",
    "hash_object",
    "short_oid",
    "validate_ref_name",
]
