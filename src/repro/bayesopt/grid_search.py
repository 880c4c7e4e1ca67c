"""Grid search comparator (paper Section III-A: "less effective than BO").

Enumerates a full-factorial grid in a deterministic order.  Also the
engine behind the **LSTMBruteForce** baseline of Fig. 9: brute force is
grid search run to exhaustion over a dense grid (the paper reports up to
six weeks per workload at full density; our benches use reduced grids).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.bayesopt.optimizer import SearchOptimizer, TrialRecord
from repro.bayesopt.space import SearchSpace
from repro.state import INT

__all__ = ["GridSearch"]


class GridSearch(SearchOptimizer):
    """Deterministic full-factorial sweep over a :class:`SearchSpace`."""

    kind = "grid"
    _persisted = {"_cursor": INT}

    def __init__(
        self,
        space: SearchSpace,
        points_per_dim: int = 3,
        shuffle: bool = False,
        seed: int = 0,
    ):
        super().__init__(space)
        self.points_per_dim = int(points_per_dim)
        self._grid = space.grid(points_per_dim)
        if shuffle:
            rng = np.random.default_rng(seed)
            rng.shuffle(self._grid)
        self._cursor = 0

    @property
    def grid_size(self) -> int:
        return len(self._grid)

    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self._grid)

    def suggest(self) -> dict:
        """Next unexplored, non-quarantined grid point (raises when
        exhausted)."""
        while not self.exhausted:
            config = self._grid[self._cursor]
            self._cursor += 1
            if self._excluded is not None and self._excluded(config):
                continue
            return dict(config)
        raise StopIteration("grid exhausted")

    def run(
        self,
        objective: Callable[[dict], float],
        n_iters: int | None = None,
        callback: Callable[[TrialRecord], None] | None = None,
        n_workers: int | None = None,
    ) -> TrialRecord:
        """Sweep the grid (or its first ``n_iters`` points)."""
        budget = self.grid_size - self._cursor if n_iters is None else n_iters
        return super().run(objective, budget, callback, n_workers)
