"""The seed implementation's search inner loop, kept as a test oracle.

:mod:`reference.seed_loop` holds the dict-of-columns ``FeatureSpace``
store and a ``SearchSession`` subclass that recomputes clustering, state
representations and pruning relevance from the full matrix every step,
scores novelty in two recorded passes and runs predictor inference with
the autograd graph on. The runtime's arena inner loop must match it bit
for bit; ``tests/core/test_incremental_search.py``, the arena-vs-dict
property tests and ``benchmarks/test_search_throughput.py`` check that.

``tests/`` is not a package: importers put ``tests/`` on ``sys.path``
(``tests/conftest.py`` and ``benchmarks/conftest.py`` do) and import
``reference``.
"""

from reference.seed_loop import DictFeatureSpace, SeedLoopSession

__all__ = ["DictFeatureSpace", "SeedLoopSession"]
