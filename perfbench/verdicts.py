"""Verdicts each workload checks in one full child run.

Kept apart from ``run.py`` so that a measured child imports none of the
parent's modules: their imports would add to its set-up time and memory.
"""

VERDICTS = {"carter-search": 2, "weyl-scan": 1, "quick-tier": 48, "oracle-lattice": 3}
