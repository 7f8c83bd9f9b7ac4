"""JsonlSink edge cases: truncation, failure capture, seq monotonicity."""

import json

from repro import obs
from repro.obs.sink import JsonlSink, event


def _lines(path):
    return [
        json.loads(line)
        for line in path.read_text().splitlines()
        if line.strip()
    ]


class TestFileModes:
    def test_default_mode_truncates_existing_file(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"event": "stale"}\n')
        with JsonlSink(path) as sink:
            sink.write({"event": "fresh"})
        records = _lines(path)
        assert [r["event"] for r in records] == ["fresh"]


class TestFlushEvery:
    def test_flushed_records_visible_before_close(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path, flush_every=2)
        sink.write({"event": "a"})
        assert _lines(path) == []  # under the threshold: still buffered
        sink.write({"event": "b"})
        assert [r["event"] for r in _lines(path)] == ["a", "b"]
        sink.write({"event": "c"})
        assert len(_lines(path)) == 2  # counter reset after the flush
        sink.close()

    def test_explicit_flush_resets_the_counter(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path, flush_every=3)
        sink.write({"event": "a"})
        sink.flush()
        assert len(_lines(path)) == 1
        sink.write({"event": "b"})
        sink.write({"event": "c"})
        assert len(_lines(path)) == 1  # two fresh unflushed, threshold 3
        sink.close()

    def test_non_positive_flush_every_rejected(self, tmp_path):
        for bad in (0, -1):
            try:
                JsonlSink(tmp_path / "t.jsonl", flush_every=bad)
            except ValueError:
                continue
            raise AssertionError(f"flush_every={bad} must be rejected")

    def test_default_leaves_buffering_to_the_interpreter(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        assert sink.flush_every is None
        sink.write({"event": "a"})
        sink.close()
        assert len(_lines(path)) == 1


class TestAfterClose:
    def test_write_after_close_is_dropped(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = JsonlSink(path)
        sink.write({"event": "kept"})
        sink.close()
        sink.write({"event": "lost"})  # must not raise nor resurrect the fh
        sink.flush()
        sink.close()  # idempotent
        assert [r["event"] for r in _lines(path)] == ["kept"]
        assert sink.error is None


class _ExplodingFile:
    """File stub whose writes fail like a full disk."""

    def __init__(self, exc):
        self.exc = exc
        self.closed = False

    def write(self, text):
        raise self.exc

    def flush(self):
        raise self.exc

    def close(self):
        self.closed = True


class TestFailureCapture:
    def test_first_oserror_is_remembered_and_writes_stop(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        boom = OSError(28, "No space left on device")
        sink._fh = _ExplodingFile(boom)
        sink.write({"event": "a"})
        assert sink.error is boom
        assert sink._fh is None
        sink.write({"event": "b"})  # silently dropped
        sink.flush()
        assert sink.error is boom  # first error wins

    def test_flush_failure_recorded(self, tmp_path):
        sink = JsonlSink(tmp_path / "t.jsonl")
        boom = OSError(5, "I/O error")
        sink._fh = _ExplodingFile(boom)
        sink.flush()
        assert sink.error is boom
        assert sink._fh is None

    def test_open_failure_propagates(self, tmp_path):
        try:
            JsonlSink(tmp_path / "missing_dir" / "t.jsonl")
        except OSError:
            return
        raise AssertionError("expected OSError for unwritable path")


class TestSeqMonotonicity:
    def test_seq_increases_across_reenable_cycles(self, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        with obs.enabled(JsonlSink(first)) as sink_a:
            event("tick", phase=1)
            event("tick", phase=2)
        sink_a.close()
        with obs.enabled(JsonlSink(second)) as sink_b:
            event("tick", phase=3)
        sink_b.close()
        seqs = [r["seq"] for r in _lines(first)] + [
            r["seq"] for r in _lines(second)
        ]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)  # strictly increasing, no reuse

    def test_records_stamped_with_seq_and_ts(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with obs.enabled(JsonlSink(path)) as sink:
            event("tick")
        sink.close()
        (record,) = _lines(path)
        assert "seq" in record and "ts" in record
