#!/usr/bin/env python
"""Record the cloud simulator's outputs for bitwise equivalence tests.

``CloudSimulator.run`` promises that its outputs depend only on
``(seed, arrivals, provisioned, spec)``: never on how many worker
threads split the intervals, nor on how the per-job draws are buffered.
This script freezes those outputs for a handful of schedules chosen to
reach every branch of the per-interval model:

* the default :class:`VMSpec` over a mixed under/over-provisioned run;
* ``job_jitter_frac=0`` (every job lasts exactly ``job_seconds``);
* idle intervals, including runs that start where block splits fall;
* cold-start waves many times longer than ``max_concurrent_startups``;
* a schedule whose job count is above the simulator's threading
  threshold, so ``run`` itself takes the multi-block path.

Inputs and outputs are stored as hex-encoded little-endian float64 bytes
so ``tests/test_cloudsim_equivalence.py`` compares raw bits, not values
within a tolerance.  Re-running this script must reproduce
``tests/data/cloudsim_reference.json`` byte for byte.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.autoscale.cloudsim import CloudSimulator, VMSpec  # noqa: E402
from repro.obs.logging import get_logger  # noqa: E402

logger = get_logger("scripts.fixtures")

#: ``SimulationResult`` array fields pinned per case (plus ``vm_seconds``).
OUTPUTS = (
    "turnaround_seconds", "makespan_seconds",
    "under_provisioned", "over_provisioned",
)


def hex64(a) -> str:
    """Hex dump of a float64 array's little-endian bytes (bit-exact)."""
    return np.ascontiguousarray(np.asarray(a, dtype="<f8")).tobytes().hex()


def _mixed(rng: np.random.Generator, n: int, mean: float) -> tuple[np.ndarray, np.ndarray]:
    """Fractional arrivals with a forecast that both over- and undershoots."""
    arrivals = rng.gamma(4.0, mean / 4.0, n)
    provisioned = np.maximum(arrivals * rng.uniform(0.6, 1.4, n), 0.0)
    return arrivals, provisioned


def cases() -> dict[str, dict]:
    rng = np.random.default_rng(20)
    out: dict[str, dict] = {}

    a, p = _mixed(rng, 64, 40.0)
    out["default_spec"] = {"spec": {}, "seed": 0, "arrivals": a, "provisioned": p}

    a, p = _mixed(rng, 48, 25.0)
    out["no_jitter"] = {
        "spec": {"job_jitter_frac": 0.0}, "seed": 3, "arrivals": a, "provisioned": p,
    }

    # Idle runs start exactly where the 2- and 3-way job-balanced splits
    # cut (intervals 29; 17 and 41), and sit at the very start and end.
    a, p = _mixed(rng, 60, 30.0)
    for lo, hi in ((0, 2), (17, 20), (29, 32), (41, 43), (50, 51), (57, 60)):
        a[lo:hi] = 0.0
    p[::7] = 0.0
    out["idle_intervals"] = {
        "spec": {"max_concurrent_startups": 2}, "seed": 11, "arrivals": a, "provisioned": p,
    }

    # Provisioning far below demand: hundreds of cold VMs per interval
    # come up in waves of three.
    a = np.round(rng.uniform(200.0, 900.0, 40))
    p = np.round(a * rng.uniform(0.0, 0.3, 40))
    out["cold_waves"] = {
        "spec": {"startup_seconds": 95.0, "job_seconds": 240.0,
                 "job_jitter_frac": 0.25, "max_concurrent_startups": 3},
        "seed": 7, "arrivals": a, "provisioned": p,
    }

    # Above the threading threshold (~4.8M jobs in 48 intervals).
    a, p = _mixed(rng, 48, 100_000.0)
    a[[5, 23]] = 0.0
    out["fanout"] = {"spec": {}, "seed": 5, "arrivals": a, "provisioned": p}
    return out


def record(case: dict) -> dict:
    sim = CloudSimulator(VMSpec(**case["spec"]), seed=case["seed"])
    result = sim.run(case["arrivals"], case["provisioned"])
    return {
        "spec": case["spec"],
        "seed": case["seed"],
        "jobs": int(np.ceil(case["arrivals"]).sum()),
        "arrivals": hex64(case["arrivals"]),
        "provisioned": hex64(case["provisioned"]),
        **{name: hex64(getattr(result, name)) for name in OUTPUTS},
        "vm_seconds": hex64([result.vm_seconds]),
    }


def main() -> int:
    data_dir = Path(__file__).resolve().parent.parent / "tests" / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    fixture = {name: record(case) for name, case in cases().items()}
    out = data_dir / "cloudsim_reference.json"
    out.write_text(json.dumps(fixture, indent=2) + "\n")
    logger.info("cloud simulator fixture written to %s", out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
