"""``neighbors(v, indices)`` against its specification, the per-query loop.

Both oracles override the bulk query.  Whatever a batch holds (repeats,
slots past the degree, negative indices, unknown vertices), it must
leave what ``neighbor`` called once per index leaves: the answers, the
tallies, for :class:`CommOracle` the ledger and the exchanged index
pairs, and under a budget the same error after the same charges.  With
wire capture on, the events must match one for one.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import BudgetExceededError, OracleError
from repro.graphs.ugraph import UGraph
from repro.localquery.comm_oracle import CommOracle
from repro.localquery.gxy import PARTS
from repro.localquery.oracle import GraphOracle
from repro.obs import capture
from repro.obs.sink import ListSink


def _loop(oracle, v, indices):
    return [oracle.neighbor(v, int(index)) for index in indices]


def _state(oracle):
    """Everything a neighbor query may change, as plain values."""
    counter = oracle.counter
    state = [counter.degree_queries, counter.neighbor_queries, counter.pair_queries]
    if isinstance(oracle, CommOracle):
        state += [oracle.ledger.total_bits, oracle.ledger.charges, set(oracle._known)]
    return state


def _outcome(call, oracle, batches):
    """Answers of each batch (or the error that stopped them), then state."""
    answers = []
    try:
        for v, indices in batches:
            answers.append(call(oracle, v, indices))
    except (OracleError, BudgetExceededError) as exc:
        answers.append((type(exc), str(exc)))
    return answers, _state(oracle)


def _bulk(oracle, v, indices):
    return oracle.neighbors(v, indices)


@st.composite
def _graph_oracles(draw):
    """A factory for equal GraphOracles on 1–12 int nodes, some isolated."""
    n = draw(st.integers(1, 12))
    g = UGraph(nodes=range(n))
    for u, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))):
        if u != v:
            g.add_edge(u, v, 1.0, combine="set")
    budget = draw(st.none() | st.integers(0, 40))
    return lambda: GraphOracle(g, budget=budget), list(range(n)) + ["zz"]


@st.composite
def _comm_oracles(draw):
    """A factory for equal CommOracles with side 1–5."""
    side = draw(st.integers(1, 5))
    bits = st.lists(st.integers(0, 1), min_size=side * side, max_size=side * side)
    x = np.array(draw(bits), dtype=np.int8)
    y = np.array(draw(bits), dtype=np.int8)
    budget = draw(st.none() | st.integers(0, 40))
    vertices = [(part, i) for part in PARTS for i in range(side)]
    return lambda: CommOracle(x, y, budget=budget), vertices + [("A", side), "zz"]


def _batches(vertices):
    index = st.integers(-1, 7)
    return st.lists(
        st.tuples(st.sampled_from(vertices), st.lists(index, max_size=9)),
        max_size=6,
    )


class TestBulkEqualsLoop:
    @given(st.data(), st.sampled_from([_graph_oracles, _comm_oracles]))
    @settings(max_examples=200, deadline=None)
    def test_answers_tallies_ledger_and_errors(self, data, family):
        make, vertices = data.draw(family())
        batches = data.draw(_batches(vertices))
        assert _outcome(_bulk, make(), batches) == _outcome(_loop, make(), batches)

    @given(st.data(), st.sampled_from([_graph_oracles, _comm_oracles]))
    @settings(max_examples=60, deadline=None)
    def test_wire_events(self, data, family):
        make, vertices = data.draw(family())
        batches = data.draw(_batches(vertices))
        transcripts = []
        for call in (_bulk, _loop):
            with obs.enabled(ListSink()), capture.capturing() as wire:
                outcome = _outcome(call, make(), batches)
            transcripts.append(
                (outcome, [(m.kind, m.bits, m.digest) for m in wire.messages])
            )
        obs.reset_metrics()
        assert transcripts[0] == transcripts[1]

    def test_numpy_indices(self):
        g = UGraph(edges=[(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
        indices = np.array([2, 0, 5])
        bulk, loop = GraphOracle(g), GraphOracle(g)
        assert bulk.neighbors(0, indices) == _loop(loop, 0, indices) == [3, 1, None]
        assert _state(bulk) == _state(loop)

    def test_budget_stops_at_the_same_charge(self):
        x = np.ones(9, dtype=np.int8)
        batches = [(("A", 0), [0, 1]), (("A", 1), [0, 1, 2])]
        bulk = _outcome(_bulk, CommOracle(x, x, budget=4), batches)
        assert bulk == _outcome(_loop, CommOracle(x, x, budget=4), batches)
        assert bulk[0][-1][0] is BudgetExceededError
        assert bulk[1][1] == 5  # the fifth query is charged, then refused
