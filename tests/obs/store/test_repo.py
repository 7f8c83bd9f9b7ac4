"""Tests for the ExperimentStore facade and the run_all bridge."""

import json

import pytest

from repro.obs.store.objects import StoreError
from repro.obs.store.repo import (
    ExperimentStore,
    bounds_summary,
    collect_run_files,
    events_from_bytes,
)


@pytest.fixture
def store(tmp_path):
    return ExperimentStore.init(tmp_path / "store")


def _commit(store, n, branch=None, **meta):
    return store.commit_artifacts(
        {"telemetry.jsonl": (f'{{"event":"summary","n":{n}}}\n'.encode(), "telemetry")},
        message=f"run {n}",
        branch=branch,
        meta=meta,
        timestamp=1000.0 + n,
    )


class TestLifecycle:
    def test_init_creates_layout(self, tmp_path):
        store = ExperimentStore.init(tmp_path / "s")
        assert ExperimentStore.is_store(tmp_path / "s")
        assert store.refs.head() == ("branch", "main")

    def test_init_is_idempotent(self, store):
        oid = _commit(store, 1)
        again = ExperimentStore.init(store.root)
        assert again.refs.resolve_head() == oid

    def test_open_rejects_non_store(self, tmp_path):
        with pytest.raises(StoreError, match="not an experiment store"):
            ExperimentStore.open(tmp_path / "nothing")


class TestCommit:
    def test_commit_advances_branch_with_parent_links(self, store):
        first = _commit(store, 1)
        second = _commit(store, 2)
        assert store.refs.read_branch("main") == second
        commit = store.read_commit(second)
        assert commit.parents == (first,)
        assert store.read_commit(first).parents == ()

    def test_empty_commit_refused(self, store):
        with pytest.raises(StoreError, match="empty commit"):
            store.commit_artifacts({}, message="nothing")

    def test_detached_head_needs_explicit_branch(self, store):
        oid = _commit(store, 1)
        store.checkout(oid)
        with pytest.raises(StoreError, match="detached"):
            _commit(store, 2)

    def test_new_branch_starts_independent_line(self, store):
        _commit(store, 1)
        other = _commit(store, 2, branch="lines/kernels")
        assert store.read_commit(other).parents == ()
        assert store.refs.read_branch("lines/kernels") == other
        # main is untouched
        assert store.refs.read_branch("main") != other

    def test_meta_round_trips(self, store):
        oid = _commit(store, 1, experiments=["e1"], kernels="python")
        meta = store.read_commit(oid).meta
        assert meta["experiments"] == ["e1"]
        assert meta["kernels"] == "python"


class TestResolve:
    def test_head_and_tilde(self, store):
        first = _commit(store, 1)
        second = _commit(store, 2)
        third = _commit(store, 3)
        assert store.resolve("HEAD") == third
        assert store.resolve("HEAD~1") == second
        assert store.resolve("HEAD~2") == first
        assert store.resolve("HEAD~~") == first

    def test_tilde_past_root_raises(self, store):
        _commit(store, 1)
        with pytest.raises(StoreError, match="no parent"):
            store.resolve("HEAD~5")

    def test_branch_tag_and_prefix(self, store):
        oid = _commit(store, 1)
        store.refs.create_tag("baseline", oid)
        assert store.resolve("main") == oid
        assert store.resolve("baseline") == oid
        assert store.resolve(oid[:8]) == oid
        assert store.resolve(oid) == oid

    def test_non_commit_object_rejected(self, store):
        _commit(store, 1)
        blob_oid = store.tree_files(store.resolve("HEAD"))["telemetry.jsonl"][0]
        with pytest.raises(StoreError, match="names a blob"):
            store.resolve(blob_oid)

    def test_unknown_revision(self, store):
        _commit(store, 1)
        with pytest.raises(StoreError, match="unknown revision"):
            store.resolve("no-such-thing")


class TestHistory:
    def test_log_newest_first_history_oldest_first(self, store):
        oids = [_commit(store, n) for n in (1, 2, 3)]
        assert [oid for oid, _ in store.log()] == list(reversed(oids))
        assert [oid for oid, _ in store.history()] == oids

    def test_log_limit(self, store):
        for n in (1, 2, 3):
            _commit(store, n)
        assert len(store.log(limit=2)) == 2


class TestCheckout:
    def test_branch_checkout_is_symbolic(self, store):
        _commit(store, 1)
        _commit(store, 2, branch="lines/x")
        store.checkout("lines/x")
        assert store.refs.head() == ("branch", "lines/x")

    def test_commit_checkout_detaches(self, store):
        first = _commit(store, 1)
        _commit(store, 2)
        store.checkout(first[:10])
        assert store.refs.head() == ("detached", first)

    def test_extracts_artifacts(self, store, tmp_path):
        _commit(store, 7)
        out = tmp_path / "out"
        store.checkout("HEAD", out_dir=out)
        data = (out / "telemetry.jsonl").read_text()
        assert json.loads(data)["n"] == 7


class TestRunAllBridge:
    def test_events_from_bytes_round_trip(self):
        raw = b'{"event":"span"}\n\n{"event":"summary"}\n'
        events = events_from_bytes(raw)
        assert [e["event"] for e in events] == ["span", "summary"]

    def test_events_from_bytes_rejects_corruption(self):
        with pytest.raises(StoreError, match="not valid JSON"):
            events_from_bytes(b'{"ok":1}\n{broken\n')

    def test_bounds_summary_counts_violations(self):
        events = [
            {"event": "bound_check", "spec": "a", "status": "pass", "seq": 1},
            {"event": "bound_check", "spec": "b", "status": "violation"},
            {"event": "row"},
        ]
        payload = json.loads(bounds_summary(events))
        assert payload["violations"] == 1
        assert len(payload["checks"]) == 2
        assert "seq" not in payload["checks"][0]

    def test_collect_run_files_derives_bounds(self, tmp_path):
        telemetry = tmp_path / "t.jsonl"
        telemetry.write_text(
            '{"event": "bound_check", "spec": "x", "status": "pass"}\n'
            '{"event": "summary", "metrics": {}}\n'
        )
        files = collect_run_files(telemetry_path=telemetry)
        assert files["telemetry.jsonl"][1] == "telemetry"
        assert files["bounds.json"][1] == "bounds"
        assert json.loads(files["bounds.json"][0])["violations"] == 0

    def test_collect_run_files_requires_something(self):
        with pytest.raises(StoreError, match="nothing to commit"):
            collect_run_files()
