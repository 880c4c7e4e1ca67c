#!/usr/bin/env python
"""CI perf-smoke stage: fast path stays exact, benchmarks stay runnable.

Three checks, all cheap enough for every CI run:

1. **Fast-path parity** — the cache-free inference kernels
   (``forward_inference``) must be bitwise-identical to the cached
   training forward for LSTM and GRU at deployment-like shapes, and
   batched search must reproduce serial trial records exactly.
2. **Quick benchmarks** — run the latency benches with
   ``REPRO_BENCH_QUICK=1`` so a broken benchmark (import error, shape
   drift, harness change) fails CI instead of the next perf PR.
3. **Artifact schema** — ``BENCH_inference.json`` / ``BENCH_training.json``
   must parse and carry the gauges perf PRs diff against.

Exit status: 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from repro.obs.logging import get_logger

logger = get_logger("perf_smoke")

#: Gauges every artifact must carry (the perf-trajectory contract).
REQUIRED_GAUGES = {
    "BENCH_inference.json": [
        "bench.inference.predict_next_mean_ms",
        "bench.inference.predict_series_per_interval_ms",
        "bench.inference.lstm_forward_64x48_mean_ms",
    ],
    "BENCH_training.json": [
        "bench.training.train_epoch_128x24_mean_ms",
        "bench.training.full_fit_serial_s",
    ],
}


def _quadratic(c: dict) -> float:
    """Search objective; module-level so a process pool can pickle it."""
    return (c["a"] - 3) ** 2 + (c["b"] - 0.4) ** 2


def check_fastpath_parity() -> None:
    from repro.bayesopt import IntParam, FloatParam, RandomSearch, SearchSpace
    from repro.nn.gru import GRULayer
    from repro.nn.lstm import LSTMLayer

    rng = np.random.default_rng(0)
    for layer_cls in (LSTMLayer, GRULayer):
        for B, T, D, H in [(150, 14, 1, 9), (64, 48, 1, 32), (8, 5, 3, 4)]:
            layer = layer_cls(D, H, rng)
            x = rng.standard_normal((B, T, D))
            cached, _ = layer.forward(x)
            fast = layer.forward_inference(x)
            if not np.array_equal(cached, fast):
                raise AssertionError(
                    f"{layer_cls.__name__} fast path diverged at "
                    f"B={B} T={T} D={D} H={H}"
                )
            # Re-run on the warmed scratch: reuse must stay exact too.
            if not np.array_equal(cached, layer.forward_inference(x)):
                raise AssertionError(
                    f"{layer_cls.__name__} scratch reuse diverged"
                )
    logger.info("fast-path parity: OK")

    space = SearchSpace([IntParam("a", 1, 10), FloatParam("b", 0.0, 1.0)])
    serial = RandomSearch(space, seed=3)
    serial.run(_quadratic, 6)
    space2 = SearchSpace([IntParam("a", 1, 10), FloatParam("b", 0.0, 1.0)])
    parallel = RandomSearch(space2, seed=3)
    parallel.run(_quadratic, 6, n_workers=2)
    if [(r.config, r.value) for r in serial.history] != [
        (r.config, r.value) for r in parallel.history
    ]:
        raise AssertionError("parallel random search diverged from serial")
    logger.info("parallel search determinism: OK")


def run_quick_benchmarks(artifact_dir: Path) -> None:
    env = dict(os.environ)
    env["REPRO_BENCH_QUICK"] = "1"
    env["REPRO_BENCH_ARTIFACT_DIR"] = str(artifact_dir)
    env["PYTHONPATH"] = f"{ROOT / 'src'}{os.pathsep}{env.get('PYTHONPATH', '')}"
    cmd = [
        sys.executable, "-m", "pytest", "-x", "-q",
        "benchmarks/bench_inference_latency.py",
        "benchmarks/bench_training_latency.py",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=env)
    if proc.returncode != 0:
        raise AssertionError("quick benchmarks failed")
    logger.info("quick benchmarks: OK")


def check_artifacts(artifact_dir: Path) -> None:
    """Validate the freshly-emitted artifacts and the committed ones."""
    for where in (artifact_dir, ROOT):
        for name, gauges in REQUIRED_GAUGES.items():
            path = where / name
            if not path.exists():
                raise AssertionError(f"{path} missing")
            data = json.loads(path.read_text())
            if data.get("schema") != 1:
                raise AssertionError(
                    f"{path}: unexpected schema {data.get('schema')!r}"
                )
            metrics = data.get("metrics", {})
            for gauge in gauges:
                snap = metrics.get(gauge)
                if snap is None:
                    raise AssertionError(f"{path}: missing metric {gauge}")
                if snap.get("kind") != "gauge" or not np.isfinite(
                    snap.get("value", np.nan)
                ):
                    raise AssertionError(f"{path}: bad snapshot for {gauge}: {snap}")
    logger.info("artifact schemas: OK")


def main() -> int:
    import tempfile

    check_fastpath_parity()
    with tempfile.TemporaryDirectory() as tmp:
        run_quick_benchmarks(Path(tmp))
        check_artifacts(Path(tmp))
    logger.info("perf smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
