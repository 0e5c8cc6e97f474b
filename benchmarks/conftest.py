"""Benchmark-suite configuration.

Each benchmark regenerates one table or figure of the paper (or an
ablation) and asserts the qualitative shape the paper reports.  Heavy
experiment drivers run with ``benchmark.pedantic(rounds=1)`` — the point is
regeneration plus a wall-clock record, not micro-benchmark statistics.

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

# The ablation benches time the explicit oracles of ``tests/oracles.py``
# against the one implementation in ``src/``, so ``tests`` must import as
# a package however pytest was launched.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(2024)
