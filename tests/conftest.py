"""Shared fixtures: small deterministic datasets for fast tests."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

# The seed-implementation oracles in tests/reference/ import as
# ``reference``; tests/ is not a package, so make that explicit.
sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture
def binary_data(rng):
    """Linearly-ish separable binary classification data (200 x 5)."""
    X = rng.normal(size=(200, 5))
    y = (X[:, 0] + 0.5 * X[:, 1] - 0.2 * X[:, 2] > 0).astype(int)
    return X, y


@pytest.fixture
def multiclass_data(rng):
    """Three-class data driven by a single latent score (240 x 4)."""
    X = rng.normal(size=(240, 4))
    score = X[:, 0] * X[:, 1] + X[:, 2]
    edges = np.quantile(score, [1 / 3, 2 / 3])
    y = np.searchsorted(edges, score)
    return X, y


@pytest.fixture
def regression_data(rng):
    """Nonlinear regression data (200 x 5)."""
    X = rng.normal(size=(200, 5))
    y = X[:, 0] * X[:, 1] + 0.5 * X[:, 2] ** 2 + 0.1 * rng.normal(size=200)
    return X, y


@pytest.fixture
def detection_data(rng):
    """Imbalanced anomaly data: 8% positives shifted off-manifold (300 x 4)."""
    X = rng.normal(size=(300, 4))
    y = (rng.random(300) < 0.08).astype(int)
    X[y == 1] += 2.5
    return X, y


@pytest.fixture
def tiny_dataset():
    """A scaled registry dataset for integration tests."""
    from repro.data import load_dataset

    return load_dataset("openml_589", scale=0.15, seed=0)
