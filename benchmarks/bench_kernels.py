"""E12 — kernel backends: python reference vs compiled native kernels.

The PR gate (written to BENCH_PR6.json by ``scripts/bench_report.py
--pr6-only``): the native backend must reach a >= 5x geometric-mean
speedup over the python reference across the three ported hot kernels —
Dinic max-flow solves, Karger–Stein edge contraction, and Lemma 3.2
coefficient decoding.  The tables here report the same workloads at
several sizes, plus two honest non-gate rows: batched codeword
combination (where the python "reference" is already a vectorized BLAS
``matmul`` and native C is *not* expected to win) and the
shared-memory result transport against the pickle pipe.

Every backend pair is run on identical inputs; outputs are asserted
equal before a row is reported — a speedup over wrong answers is not a
speedup.
"""

import time

import numpy as np
import pytest

from repro.experiments.harness import Table
from repro.graphs.generators import random_balanced_digraph
from repro.kernels import KernelUnavailableError, reference, using_backend
from repro.linalg.hadamard import Lemma32Matrix
from repro.parallel import TrialPool, fork_available, shmipc


def _native_or_skip():
    from repro.kernels import native_cc

    try:
        return native_cc.load()
    except KernelUnavailableError as exc:
        pytest.skip(f"no native kernel toolchain: {exc}")


def _time(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_dinic_backend_speedup(benchmark, emit_table):
    _native_or_skip()
    table = Table(
        title="E12a - Dinic max-flow solves: python vs native kernel",
        columns=["n", "m", "flows", "python_s", "native_s", "speedup"],
    )
    for n in (100, 200):
        g = random_balanced_digraph(n, beta=2.0, density=0.15, rng=int(n))
        csr = g.freeze()
        sinks = list(range(1, 6))

        def flows():
            return [csr.max_flow(0, t).value for t in sinks]

        with using_backend("python"):
            python_s = _time(flows)
            python_values = flows()
        with using_backend("native"):
            native_s = _time(flows)
            native_values = flows()
        assert python_values == native_values
        table.add_row(
            n=n,
            m=g.num_edges,
            flows=len(sinks),
            python_s=python_s,
            native_s=native_s,
            speedup=python_s / native_s,
        )
    table.add_note(
        "identical flat arc arrays and traversal order; the residual "
        "network is built once per snapshot and reset between solves"
    )
    emit_table(table)

    g = random_balanced_digraph(200, beta=2.0, density=0.15, rng=200)
    csr = g.freeze()
    with using_backend("native"):
        benchmark.pedantic(
            lambda: [csr.max_flow(0, t) for t in range(1, 6)],
            rounds=3,
            iterations=1,
        )


def test_contraction_kernel_speedup(emit_table):
    nat = _native_or_skip()
    table = Table(
        title="E12b - edge-contraction kernel: python vs native",
        columns=["n", "m", "python_s", "native_s", "speedup"],
    )
    gen = np.random.default_rng(12)
    for n, m in ((200, 4000), (400, 12000)):
        tails = gen.integers(0, n, size=m).astype(np.int64)
        heads = (tails + 1 + gen.integers(0, n - 1, size=m)) % n
        heads = heads.astype(np.int64)
        weights = gen.random(m) + 0.5
        uniforms = gen.random(n)

        def run(kernel):
            parent = np.arange(n, dtype=np.int64)
            result = kernel(tails, heads, weights, parent, n, 2, uniforms)
            return result, parent

        python_s = _time(lambda: run(reference.contract_to))
        native_s = _time(lambda: run(nat.contract_to))
        (r_py, p_py), (r_nat, p_nat) = run(reference.contract_to), run(
            nat.contract_to
        )
        assert r_py == r_nat and np.array_equal(p_py, p_nat)
        table.add_row(
            n=n,
            m=m,
            python_s=python_s,
            native_s=native_s,
            speedup=python_s / native_s,
        )
    table.add_note(
        "one union-find array replaces per-step state clones; both "
        "backends consume the same pre-drawn uniform stream"
    )
    emit_table(table)


def test_hadamard_decode_speedup(emit_table):
    _native_or_skip()
    table = Table(
        title="E12c - Lemma 3.2 coefficient decode: python vs native",
        columns=["side", "coeffs", "python_s", "native_s", "speedup"],
    )
    gen = np.random.default_rng(3)
    for side in (8, 16):
        matrix = Lemma32Matrix(side)
        x = gen.integers(-30, 30, size=matrix.row_length).astype(np.float64)

        def decode_all():
            return [
                matrix.decode_coefficient(x, t)
                for t in range(matrix.num_rows)
            ]

        with using_backend("python"):
            python_s = _time(decode_all)
            python_values = decode_all()
        with using_backend("native"):
            native_s = _time(decode_all)
            native_values = decode_all()
        assert python_values == native_values
        table.add_row(
            side=side,
            coeffs=matrix.num_rows,
            python_s=python_s,
            native_s=native_s,
            speedup=python_s / native_s,
        )
    table.add_note(
        "native decodes one (i, j) row product in place of the python "
        "kron materialization per coefficient"
    )
    emit_table(table)


def test_hadamard_combine_is_an_honest_non_gate(emit_table):
    _native_or_skip()
    table = Table(
        title="E12d - batched codeword combine (informative, not gated)",
        columns=["side", "batch", "python_s", "native_s", "ratio"],
    )
    gen = np.random.default_rng(4)
    for side, batch in ((16, 256), (32, 64)):
        matrix = Lemma32Matrix(side)
        signs = gen.choice([-1, 1], size=(batch, matrix.num_rows)).astype(
            np.int8
        )
        with using_backend("python"):
            python_s = _time(lambda: matrix.combine_many(signs))
            a = matrix.combine_many(signs)
        with using_backend("native"):
            native_s = _time(lambda: matrix.combine_many(signs))
            b = matrix.combine_many(signs)
        assert np.array_equal(a, b)
        table.add_row(
            side=side,
            batch=batch,
            python_s=python_s,
            native_s=native_s,
            ratio=python_s / native_s,
        )
    table.add_note(
        "the python path is already one BLAS matmul - native C loops do "
        "not beat it and this row is excluded from the 5x gate"
    )
    emit_table(table)


@pytest.mark.skipif(not fork_available(), reason="fork start method required")
def test_shm_transport_speedup(emit_table, monkeypatch):
    table = Table(
        title="E12e - result transport: shared-memory arena vs pickle pipe",
        columns=["trials", "kib_each", "pickle_s", "shm_s", "speedup"],
    )
    monkeypatch.setenv(shmipc.SHM_SLOT_ENV, str(64 << 20))

    def payload(i):
        return np.full(65536, float(i))  # 512 KiB per result

    items = list(range(128))

    def timed(enabled):
        monkeypatch.setenv(shmipc.SHM_ENV, "1" if enabled else "0")
        pool = TrialPool(jobs=2, chunk_factor=2)
        best = _time(lambda: pool.map(payload, items))
        return best, dict(pool.last_transport_stats)

    pickle_s, pickle_stats = timed(False)
    shm_s, shm_stats = timed(True)
    assert pickle_stats["shm_chunks"] == 0
    assert shm_stats["pickle_chunks"] == 0
    table.add_row(
        trials=len(items),
        kib_each=512,
        pickle_s=pickle_s,
        shm_s=shm_s,
        speedup=pickle_s / shm_s,
    )
    table.add_note(
        "numeric result tables skip the executor pickle pipe; value "
        "lists are identical either way (tests/parallel/test_shmipc.py)"
    )
    emit_table(table)
