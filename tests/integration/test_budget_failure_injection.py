"""Failure injection: algorithms driven against budget-limited oracles.

Theorem 1.3 says any correct algorithm must pay
``Omega(min{m, m/(eps^2 k)})`` queries; here we enforce hard budgets
below that price and confirm the estimator *cannot finish* (it raises
:class:`BudgetExceededError` rather than silently returning a wrong
answer), while a budget comfortably above the price is never hit.
"""

import pytest

from repro.errors import BudgetExceededError
from repro.graphs.generators import planted_min_cut_ugraph
from repro.localquery.mincut_query import estimate_min_cut
from repro.localquery.oracle import GraphOracle


@pytest.fixture(scope="module")
def workload():
    graph, k = planted_min_cut_ugraph(24, 6, rng=0)
    return graph, k


class TestBudgets:
    def test_starved_estimator_raises(self, workload):
        graph, _ = workload
        oracle = GraphOracle(graph, budget=graph.num_nodes + 10)
        with pytest.raises(BudgetExceededError):
            estimate_min_cut(oracle, eps=0.2, rng=1)

    def test_generous_budget_unaffected(self, workload):
        graph, k = workload
        generous = 10 * (graph.num_nodes + 2 * graph.num_edges)
        oracle = GraphOracle(graph, budget=generous)
        estimate = estimate_min_cut(oracle, eps=0.25, rng=2)
        assert estimate.value == pytest.approx(k, rel=0.4)

    def test_budget_error_is_not_a_wrong_answer(self, workload):
        """The failure mode is loud (an exception), never a silently
        wrong estimate — the API contract the reduction relies on."""
        graph, k = workload
        for budget in (50, 200, 800):
            oracle = GraphOracle(graph, budget=budget)
            try:
                estimate = estimate_min_cut(oracle, eps=0.2, rng=3)
            except BudgetExceededError:
                continue
            assert estimate.value == pytest.approx(k, rel=0.5)
