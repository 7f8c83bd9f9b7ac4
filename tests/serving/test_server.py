"""End-to-end server behavior over real sockets (in-thread daemon)."""

import asyncio
import os
import socket
import subprocess
import sys
import threading
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro import kernels as kernels_mod
from repro import obs
from repro.graphs.csr import _DENSE_N_LIMIT
from repro.graphs.digraph import DiGraph
from repro.graphs.generators import random_regularish_ugraph
from repro.graphs.mincut import directed_global_min_cut, stoer_wagner
from repro.graphs.ugraph import UGraph
from repro.obs import capture as obs_capture
from repro.obs import live as obs_live
from repro.obs.announce import read_announcement
from repro.serving.client import AsyncServingClient, ServingClient
from repro.serving.protocol import ServingError, sock_recv
from repro.serving.server import ServerThread, main
from tests.serving.conftest import frame_with_header

REPO = Path(__file__).resolve().parent.parent.parent


def _graph(rng=1, n=48):
    return random_regularish_ugraph(n, 4, rng=rng)


def _sides(graph, count, rng=9):
    nodes = list(graph.nodes())
    gen = np.random.default_rng(rng)
    sides = []
    for _ in range(count):
        size = int(gen.integers(1, len(nodes)))
        picks = gen.choice(len(nodes), size=size, replace=False)
        sides.append([nodes[i] for i in picks])
    return sides


def _direct_values(graph, sides):
    csr = graph.freeze()
    member = csr.membership_matrix([frozenset(s) for s in sides])
    return [float(v) for v in csr.cut_weights_stable(member)]


class TestLifecycle:
    def test_port_raises_before_start(self):
        thread = ServerThread()
        with pytest.raises(ServingError, match="not running"):
            thread.port

    def test_bind_failure_surfaces_in_start(self):
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            taken = holder.getsockname()[1]
            with pytest.raises(ServingError, match="failed to start"):
                ServerThread(port=taken).start()

    def test_shutdown_op_stops_the_daemon(self):
        thread = ServerThread().start()
        with ServingClient("127.0.0.1", thread.port) as client:
            assert client.shutdown()["name"] == "sketch-server"
        thread._thread.join(timeout=10.0)
        assert not thread._thread.is_alive()

    def test_bad_slo_spec_exits_2_before_touching_obs(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--slo=widget:a<=1"])
        assert excinfo.value.code == 2
        assert "unknown SLO rule kind" in capsys.readouterr().err
        assert not obs.STATE.enabled
        assert obs_live.active() is None


class TestBasicOps:
    def test_ping_register_and_stats(self):
        graph = _graph()
        with ServerThread() as thread:
            with ServingClient("127.0.0.1", thread.port) as client:
                assert client.ping()["name"] == "sketch-server"
                oid = client.register_graph(graph)
                stats = client.stats()
                assert stats["cache"]["entries"] == 1
                assert stats["requests"] >= 2
                # Re-registering the identical graph is a cache hit.
                assert client.register_graph(graph) == oid
                assert client.stats()["cache"]["hits"] >= 1

    def test_cut_weight_matches_direct_evaluation(self):
        graph = _graph()
        sides = _sides(graph, 12)
        direct = _direct_values(graph, sides)
        with ServerThread() as thread:
            with ServingClient("127.0.0.1", thread.port) as client:
                oid = client.register_graph(graph)
                served = [client.cut_weight(oid, s) for s in sides]
                batch = client.cut_weights(oid, sides)
        assert served == direct
        assert batch == direct

    def test_min_cut_undirected(self):
        graph = _graph()
        value, side = stoer_wagner(graph)
        with ServerThread() as thread:
            with ServingClient("127.0.0.1", thread.port) as client:
                oid = client.register_graph(graph)
                reply = client.min_cut(oid)
        assert reply["value"] == float(value)
        assert set(reply["side"]) == set(side)

    def test_min_cut_directed(self):
        graph = DiGraph()
        for u, v, w in [(0, 1, 1.0), (1, 2, 3.0), (2, 0, 2.0), (0, 2, 1.0)]:
            graph.add_edge(u, v, w)
        value, _ = directed_global_min_cut(graph)
        with ServerThread() as thread:
            with ServingClient("127.0.0.1", thread.port) as client:
                oid = client.register_graph(graph)
                assert client.min_cut(oid)["value"] == float(value)

    def test_sketch_query_builds_then_caches(self):
        graph = _graph()
        side = _sides(graph, 1)[0]
        with ServerThread() as thread:
            with ServingClient("127.0.0.1", thread.port) as client:
                oid = client.register_graph(graph)
                first = client.sketch_query(oid, side, epsilon=0.5, seed=3)
                again = client.sketch_query(oid, side, epsilon=0.5, seed=3)
        assert first["size_bits"] > 0
        assert again == first  # cached sketch: same object, same answer


# id -> (op, payload); the strings OID and MASK are filled in per run.
_BAD_REQUESTS = {
    "min_cut": ("serve.min_cut", {"oid": "nope"}),
    "sketch_eps": ("serve.sketch_query", {"oid": "OID", "mask": "MASK", "epsilon": "abc"}),
    "sketch_seed": ("serve.sketch_query", {"oid": "OID", "mask": "MASK", "seed": -1}),
    "sketch_const_zero": ("serve.sketch_query", {"oid": "OID", "mask": "MASK", "constant": 0}),
    "sketch_const_neg": ("serve.sketch_query", {"oid": "OID", "mask": "MASK", "constant": -1}),
    "edge_arity": ("serve.register", {"directed": False, "nodes": [0, 1], "edges": [[0, 1]]}),
    "edge_weight": ("serve.register", {"directed": False, "nodes": [0, 1], "edges": [[0, 1, "w"]]}),
}


class TestErrors:
    def test_unknown_oid_is_a_serving_error(self):
        with ServerThread() as thread:
            with ServingClient("127.0.0.1", thread.port) as client:
                client._graphs["f" * 64] = type(
                    "R", (), {"oid": "f" * 64, "index": {0: 0}, "n": 1}
                )()
                with pytest.raises(ServingError, match="re-register"):
                    client.cut_weight("f" * 64, [0])

    def test_min_cut_above_dense_limit_is_a_serving_error(self):
        n = _DENSE_N_LIMIT + 1
        graph = UGraph(edges=[(i, i + 1, 1.0) for i in range(n - 1)])
        with ServerThread() as thread:
            with ServingClient("127.0.0.1", thread.port) as client:
                oid = client.register_graph(graph)
                with pytest.raises(ServingError, match="dense adjacency"):
                    client.min_cut(oid)
                assert client.ping()["name"] == "sketch-server"

    # A client still sending a removed shard op gets the unknown-op reply.
    @pytest.mark.parametrize(
        "op",
        ["serve.frobnicate", "serve.host_shard", "serve.shard_sketch", "serve.shard_cut"],
    )
    def test_unknown_op_is_a_serving_error(self, op):
        graph = _graph()
        side = _sides(graph, 1)[0]
        with ServerThread() as thread:
            with ServingClient("127.0.0.1", thread.port) as client:
                oid = client.register_graph(graph)
                with pytest.raises(ServingError, match=f"^{op}: unknown op"):
                    client.request(op, {"name": "SHARD"})
                assert client.cut_weight(oid, side) >= 0.0

    @pytest.mark.parametrize("op,payload", _BAD_REQUESTS.values(), ids=_BAD_REQUESTS)
    def test_error_reply_does_not_kill_the_connection(self, op, payload, caplog):
        graph = _graph()
        side = _sides(graph, 1)[0]
        with ServerThread() as thread:
            with ServingClient("127.0.0.1", thread.port) as client:
                oid = client.register_graph(graph)
                fill = {"OID": oid, "MASK": client._mask(oid, side)}
                payload = {k: fill.get(v, v) if isinstance(v, str) else v for k, v in payload.items()}
                # A serve.error reply naming the op, not a dropped socket.
                with pytest.raises(ServingError, match=f"^{op}: "):
                    client.request(op, payload)
                # Same connection still serves.
                assert client.cut_weight(oid, side) >= 0.0
        assert "Unhandled exception" not in caplog.text

    @pytest.mark.parametrize("bits", ["x", None, [1]], ids=["str", "null", "list"])
    def test_bad_frame_bits_get_an_error_reply(self, bits, caplog):
        with ServerThread() as thread:
            with socket.create_connection(("127.0.0.1", thread.port)) as sock:
                sock.sendall(frame_with_header(bits=bits))
                reply = sock_recv(sock)
        assert reply.kind == "serve.error"
        assert "bits" in reply.payload["error"]
        assert "Unhandled exception" not in caplog.text


def _serve_concurrently(port, graph, sides, clients=3):
    """N async clients interleaving queries down separate connections."""

    async def run():
        conns = [
            await AsyncServingClient("127.0.0.1", port, name=f"c{i}").connect()
            for i in range(clients)
        ]
        try:
            oids = await asyncio.gather(
                *[c.register_graph(graph) for c in conns]
            )
            tasks = [
                conns[i % clients].cut_weight(oids[i % clients], side)
                for i, side in enumerate(sides)
            ]
            return await asyncio.gather(*tasks)
        finally:
            for c in conns:
                await c.close()

    return asyncio.run(run())


class TestConcurrentDeterminism:
    """Interleaved concurrent clients == serial in-process, bytewise."""

    @pytest.mark.parametrize(
        "window_s,max_batch",
        [(0.0, 1), (0.002, 8), (0.01, 64), (0.05, 256)],
    )
    def test_batch_settings_do_not_change_bytes(self, window_s, max_batch):
        graph = _graph(rng=2)
        sides = _sides(graph, 30, rng=11)
        direct = _direct_values(graph, sides)
        with ServerThread(batch_window_s=window_s, max_batch=max_batch) as t:
            served = _serve_concurrently(t.port, graph, sides)
        assert served == direct

    @pytest.mark.parametrize("backend", ["python", "native"])
    def test_kernel_backends_do_not_change_bytes(self, backend):
        previous = kernels_mod.select_backend(backend)
        try:
            try:
                kernels_mod.get_backend()
            except kernels_mod.KernelUnavailableError as exc:
                pytest.skip(f"no {backend} kernel backend: {exc}")
            graph = _graph(rng=3)
            sides = _sides(graph, 20, rng=13)
            direct = _direct_values(graph, sides)
            with ServerThread(batch_window_s=0.005, max_batch=16) as t:
                served = _serve_concurrently(t.port, graph, sides)
            assert served == direct
        finally:
            kernels_mod.select_backend(previous)

    def test_many_clients_share_one_snapshot_entry(self):
        graph = _graph(rng=4)
        sides = _sides(graph, 12, rng=17)
        with ServerThread(batch_window_s=0.005, max_batch=32) as t:
            _serve_concurrently(t.port, graph, sides, clients=4)
            with ServingClient("127.0.0.1", t.port) as client:
                client.register_graph(graph)
                stats = client.stats()
        assert stats["cache"]["entries"] == 1

    def test_batching_actually_coalesces_under_concurrency(self):
        graph = _graph(rng=5)
        sides = _sides(graph, 40, rng=19)
        with ServerThread(batch_window_s=0.01, max_batch=256) as t:
            _serve_concurrently(t.port, graph, sides, clients=2)
            with ServingClient("127.0.0.1", t.port) as client:
                client.register_graph(graph)
                batcher = client.stats()["batcher"]
        assert batcher["rows"] == 40
        assert batcher["max_width"] > 1  # at least one real batch formed


class TestCaptureIntegration:
    def test_both_directions_recorded_with_digests(self):
        obs.enable()
        cap = obs_capture.WireCapture(meta={"kind": "serving-test"})
        obs_capture.install(cap)
        try:
            graph = _graph(rng=6, n=16)
            with ServerThread() as thread:
                with ServingClient("127.0.0.1", thread.port) as client:
                    oid = client.register_graph(graph)
                    client.cut_weight(oid, _sides(graph, 1)[0])
        finally:
            obs_capture.uninstall(cap)
        kinds = [m.kind for m in cap.messages]
        assert "serve.register" in kinds
        assert "serve.register.ok" in kinds
        assert "serve.cut_weight" in kinds
        assert "serve.cut_weight.ok" in kinds
        assert all(m.digest for m in cap.messages)
        # Client and server both record each frame: every wire message
        # appears an even number of times by (kind, digest).
        from collections import Counter

        by_identity = Counter((m.kind, m.digest) for m in cap.messages)
        assert all(count % 2 == 0 for count in by_identity.values())


class TestDaemonObsSession:
    """The daemon's obs wiring, in process: setup failures and the
    switch rule (a stand-in for the server thread records what the
    daemon would start under)."""

    def _assert_nothing_installed(self):
        assert not obs.STATE.enabled
        assert obs_live.active() is None
        assert obs_capture.active() is None

    def test_unopenable_capture_exits_3(self, tmp_path, capsys):
        path = tmp_path / "no_such_dir" / "wire.jsonl"
        assert main(["--capture", str(path)]) == 3
        assert "error: cannot open wire capture" in capsys.readouterr().err
        self._assert_nothing_installed()

    def test_unbindable_metrics_port_exits_3(self, capsys):
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen(1)
            taken = holder.getsockname()[1]
            assert main(["--metrics-port", str(taken)]) == 3
        err = capsys.readouterr().err
        assert f"error: cannot bind the live metrics server on port {taken}" in err
        self._assert_nothing_installed()

    @pytest.mark.parametrize(
        "flags", [[], ["--metrics-port", "0"], ["--slo"], ["--capture"]]
    )
    def test_obs_switches_on_only_when_a_flag_asks(
        self, flags, tmp_path, monkeypatch, capsys
    ):
        import repro.serving.server as server_mod

        if flags == ["--capture"]:
            flags = ["--capture", str(tmp_path / "wire.jsonl")]
        seen = {}

        class StandIn:
            def __init__(self, **kwargs):
                self._thread = threading.Thread()  # never alive: no wait
                self.server = type("S", (), {"url": "tcp://127.0.0.1:1"})

            def __enter__(self):
                seen["enabled"] = obs.STATE.enabled
                seen["bus"] = obs_live.active() is not None
                seen["capture"] = obs_capture.active() is not None
                return self

            def __exit__(self, *exc_info):
                return False

        monkeypatch.setattr(server_mod, "ServerThread", StandIn)
        monkeypatch.setattr(server_mod.signal, "signal", lambda *args: None)
        assert main(flags) == 0
        capsys.readouterr()
        assert seen == {
            "enabled": bool(flags),
            "bus": flags[:1] in (["--metrics-port"], ["--slo"]),
            "capture": flags[:1] == ["--capture"],
        }
        self._assert_nothing_installed()


class TestDaemonSubprocess:
    def test_module_runs_once_under_dash_m(self):
        result = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning",
             "-m", "repro.serving.server", "--help"],
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr

    @pytest.mark.skipif(
        not os.path.exists("/dev/full"), reason="needs /dev/full"
    )
    def test_capture_write_failure_exits_3_after_shutdown(self, tmp_path):
        log = tmp_path / "daemon.log"
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serving.server",
                "--port", "0", "--capture", "/dev/full",
            ],
            stderr=log.open("w"),
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        try:
            url = read_announcement(log, "serving", timeout_s=30.0)
            host, port = url.replace("tcp://", "").rsplit(":", 1)
            with ServingClient(host, int(port)) as client:
                client.ping()
                client.shutdown()
            assert proc.wait(timeout=30) == 3
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        assert "error: wire capture writing to /dev/full failed" in log.read_text()

    def test_cli_daemon_announces_serves_and_exits_clean(self, tmp_path):
        log = tmp_path / "daemon.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serving.server",
                "--port", "0", "--metrics-port", "0",
            ],
            stderr=log.open("w"),
            env=env,
        )
        try:
            url = read_announcement(log, "serving", timeout_s=30.0)
            host, port = url.replace("tcp://", "").rsplit(":", 1)
            metrics_url = read_announcement(log, "serving metrics", timeout_s=30.0)

            graph = random_regularish_ugraph(24, 4, rng=7)
            with ServingClient(host, int(port)) as client:
                oid = client.register_graph(graph)
                nodes = list(graph.nodes())
                assert client.cut_weight(oid, nodes[:5]) > 0.0

            with urllib.request.urlopen(metrics_url, timeout=10) as resp:
                text = resp.read().decode()
            assert "repro_serving_requests_total" in text

            with ServingClient(host, int(port)) as client:
                client.shutdown()
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    def test_tight_slo_breach_exits_6(self, tmp_path):
        log = tmp_path / "daemon.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.serving.server",
                "--port", "0",
                "--slo", "span:serve.request:p99<=0.000000001",
            ],
            stderr=log.open("w"),
            env=env,
        )
        try:
            url = read_announcement(log, "serving", timeout_s=30.0)
            host, port = url.replace("tcp://", "").rsplit(":", 1)
            graph = random_regularish_ugraph(24, 4, rng=7)
            with ServingClient(host, int(port)) as client:
                oid = client.register_graph(graph)
                nodes = list(graph.nodes())
                for _ in range(5):
                    client.cut_weight(oid, nodes[:5])
                client.shutdown()
            assert proc.wait(timeout=30) == 6
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
