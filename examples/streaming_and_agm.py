"""Sketching a turnstile graph stream with AGM linear sketches.

Run with:  python examples/streaming_and_agm.py

The paper's database motivation in one script: edges arrive as a stream
of inserts *and deletes* (too many to store), and AGM linear sketches of
node incidence vectors support spanning-forest extraction and a
k-connectivity certificate from O~(n) words, no matter how long the
stream is.
"""

from repro.graphs import random_regularish_ugraph
from repro.sketch import AGMSketch, certify_k_connectivity, sketch_spanning_forest


def turnstile_demo() -> None:
    print("--- turnstile: AGM linear sketches ---")
    graph = random_regularish_ugraph(24, 8, rng=3)
    sketch = AGMSketch.of_graph(graph, seed=4)
    print(f"graph: n={graph.num_nodes}, m={graph.num_edges}")
    print(f"sketch footprint: {sketch.size_words()} words (independent of m)")

    forest = sketch_spanning_forest(sketch)
    print(
        f"spanning forest recovered from the sketch alone: "
        f"{forest.num_edges} edges, connected={forest.is_connected()}"
    )

    # Deletions are just negated updates — remove a forest edge and the
    # sketch still answers.
    u, v, _ = next(forest.edges())
    sketch.remove_edge(u, v)
    print(f"deleted edge {u}~{v} from the stream; re-extracting...")
    forest2 = sketch_spanning_forest(sketch)
    print(
        f"post-deletion forest: {forest2.num_edges} edges, "
        f"connected={forest2.is_connected()}"
    )

    certified = certify_k_connectivity(graph, k=6, seed=5)
    print(f"forest-peeling certificate: min(6, edge connectivity) = {certified}")


def main() -> None:
    turnstile_demo()


if __name__ == "__main__":
    main()
