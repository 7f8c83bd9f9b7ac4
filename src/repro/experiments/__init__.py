"""The experiment harness and the paper's tables, run by ``run_all``.

``harness`` renders tables; ``tables`` defines every experiment (E1–E10)
once; ``python -m repro.experiments.run_all`` runs them.
"""

from repro.experiments.harness import Table, sweep

__all__ = ["Table", "sweep"]
