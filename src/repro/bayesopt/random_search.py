"""Random search comparator (paper Section III-A).

The paper found random search reaches similar accuracy to BO but needs
more time; it shares the ask/tell/run interface of
:class:`~repro.bayesopt.optimizer.BayesianOptimizer` so the ablation
bench can swap optimizers without touching the evaluation loop.
"""

from __future__ import annotations

import numpy as np

from repro.bayesopt.optimizer import SearchOptimizer
from repro.bayesopt.space import SearchSpace
from repro.state import RNG

__all__ = ["RandomSearch"]


class RandomSearch(SearchOptimizer):
    """Uniform random sampling over a :class:`SearchSpace`."""

    kind = "random"
    _persisted = {"_rng": RNG}

    def __init__(self, space: SearchSpace, seed: int = 0, avoid_duplicates: bool = True):
        super().__init__(space)
        self._rng = np.random.default_rng(seed)
        self.avoid_duplicates = bool(avoid_duplicates)

    def suggest(self) -> dict:
        """Draw a uniform config (retrying a few times to dodge repeats
        and quarantined configs)."""
        retries = 16 if (self.avoid_duplicates or self._excluded is not None) else 1
        for _ in range(retries):
            config = self.space.sample(self._rng, 1)[0]
            if self._excluded is not None and self._excluded(config):
                continue
            if not self.avoid_duplicates or not (
                any(r.config == config for r in self.history)
                or any(p == config for p in self._pending_batch)
            ):
                return config
        return config
