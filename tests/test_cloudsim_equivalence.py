"""Bitwise equivalence of the cloud simulator across block splits.

``tests/data/cloudsim_reference.json`` (``scripts/make_cloudsim_fixture.py``)
pins the outputs of the simulator as it was before it learned to split
intervals into blocks and to share buffer fills between them.  Whatever
the split — one block, job-balanced blocks, or arbitrary contiguous
cuts — and whatever the fill size, every output must match those bits,
and so must the telemetry the run emits.  The splits are driven through
``CloudSimulator._run`` so the multi-block path is exercised on
single-CPU hosts too.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autoscale import cloudsim
from repro.autoscale.cloudsim import CloudSimulator, VMSpec, _balanced_cuts
from repro.obs import events as _events
from repro.obs import metrics as _metrics

FIXTURE = json.loads(
    (Path(__file__).parent / "data" / "cloudsim_reference.json").read_text()
)
OUTPUTS = (
    "turnaround_seconds", "makespan_seconds",
    "under_provisioned", "over_provisioned",
)


def hex64(a) -> str:
    return np.ascontiguousarray(np.asarray(a, dtype="<f8")).tobytes().hex()


def unhex(text: str) -> np.ndarray:
    return np.frombuffer(bytes.fromhex(text), dtype="<f8")


def outputs(result) -> dict[str, str]:
    out = {name: hex64(getattr(result, name)) for name in OUTPUTS}
    out["vm_seconds"] = hex64([result.vm_seconds])
    return out


def load_case(name: str):
    case = FIXTURE[name]
    sim = CloudSimulator(VMSpec(**case["spec"]), seed=case["seed"])
    arrivals, provisioned = unhex(case["arrivals"]), unhex(case["provisioned"])
    expected = {k: case[k] for k in (*OUTPUTS, "vm_seconds")}
    return sim, arrivals, provisioned, expected


@pytest.mark.parametrize("n_blocks", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(FIXTURE))
def test_matches_reference_at_every_block_count(name, n_blocks):
    sim, arrivals, provisioned, expected = load_case(name)
    cuts = _balanced_cuts(np.ceil(arrivals).astype(np.int64), n_blocks)
    assert len(cuts) == n_blocks - 1
    assert outputs(sim._run(arrivals, provisioned, cuts)) == expected


@pytest.mark.parametrize("fill_jobs", [1, 100, 1000])
@pytest.mark.parametrize("name", ["default_spec", "idle_intervals", "cold_waves"])
def test_matches_reference_at_any_fill_size(name, fill_jobs):
    """Runs of small intervals share one buffer fill; the size of those
    runs must not matter."""
    sim, arrivals, provisioned, expected = load_case(name)
    with mock.patch.object(cloudsim, "_FILL_JOBS", fill_jobs):
        assert outputs(sim._run(arrivals, provisioned, [])) == expected


@pytest.mark.parametrize("name", sorted(FIXTURE))
def test_public_run_matches_reference(name):
    sim, arrivals, provisioned, expected = load_case(name)
    assert outputs(sim.run(arrivals, provisioned)) == expected


def test_run_fans_out_above_threshold(monkeypatch):
    """``run`` splits by the worker count only above the job threshold."""
    sim, arrivals, provisioned, expected = load_case("fanout")
    assert FIXTURE["fanout"]["jobs"] >= cloudsim._THREADED_MIN_JOBS
    assert FIXTURE["default_spec"]["jobs"] < cloudsim._THREADED_MIN_JOBS
    splits = []
    real_cuts = cloudsim._balanced_cuts
    monkeypatch.setattr(cloudsim, "effective_workers", lambda: 3)
    monkeypatch.setattr(
        cloudsim, "_balanced_cuts",
        lambda jobs, n: splits.append(n) or real_cuts(jobs, n),
    )
    assert outputs(sim.run(arrivals, provisioned)) == expected
    small, a_small, p_small, expected_small = load_case("default_spec")
    assert outputs(small.run(a_small, p_small)) == expected_small
    assert splits == [3, 1]


def test_idle_intervals_on_block_boundaries():
    sim, arrivals, provisioned, expected = load_case("idle_intervals")
    jobs = np.ceil(arrivals).astype(np.int64)
    idle = np.flatnonzero(jobs == 0)
    # The fixture places idle runs where the job-balanced splits cut.
    for n_blocks in (2, 3):
        assert set(_balanced_cuts(jobs, n_blocks)) <= set(idle.tolist())
    # Blocks that start, end, or consist entirely of idle intervals.
    cuts = sorted({int(c) for c in np.concatenate([idle, idle + 1])
                   if 0 < c < jobs.size})
    assert outputs(sim._run(arrivals, provisioned, cuts)) == expected


def test_cold_waves_exceed_startup_throttle():
    case = FIXTURE["cold_waves"]
    cold = unhex(case["under_provisioned"])
    assert cold.max() > 50 * case["spec"]["max_concurrent_startups"]


def test_many_threads_under_fast_switching():
    """More blocks than cores, switching threads every microsecond: the
    blocks write disjoint intervals, so no result may be lost."""
    sim, arrivals, provisioned, expected = load_case("fanout")
    cuts = _balanced_cuts(np.ceil(arrivals).astype(np.int64), 8)
    assert len(cuts) == 7
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = sim._run(arrivals, provisioned, cuts)
    finally:
        sys.setswitchinterval(interval)
    assert outputs(result) == expected


def reference_run(sim: CloudSimulator, arrivals, provisioned) -> dict[str, str]:
    """The per-job loop the simulator replaced, arithmetic unchanged."""
    spec = sim.spec
    a = np.ceil(arrivals).astype(np.int64)
    p = np.ceil(provisioned).astype(np.int64)
    rng = np.random.default_rng(sim.seed)
    turnaround, makespan = np.zeros(a.size), np.zeros(a.size)
    under = np.maximum(a - p, 0).astype(np.float64)
    over = np.maximum(p - a, 0).astype(np.float64)
    vm_seconds = 0.0
    for i in range(a.size):
        jobs = int(a[i])
        warm = min(jobs, int(p[i]))
        if jobs == 0:
            vm_seconds += float(p[i]) * spec.job_seconds
            continue
        completion = spec.job_seconds * (
            1.0 + spec.job_jitter_frac * (2.0 * rng.uniform(size=jobs) - 1.0)
        )
        if jobs > warm:
            waves = 1 + np.arange(jobs - warm) // spec.max_concurrent_startups
            completion[warm:] += spec.startup_seconds * waves
        turnaround[i] = float(np.mean(completion))
        makespan[i] = float(np.max(completion))
        vm_seconds += float(np.sum(completion))
        vm_seconds += float(over[i]) * spec.job_seconds
    return {
        "turnaround_seconds": hex64(turnaround),
        "makespan_seconds": hex64(makespan),
        "under_provisioned": hex64(under),
        "over_provisioned": hex64(over),
        "vm_seconds": hex64([vm_seconds]),
    }


@pytest.mark.parametrize("name", sorted(FIXTURE))
def test_reference_loop_reproduces_fixture(name):
    sim, arrivals, provisioned, expected = load_case(name)
    assert reference_run(sim, arrivals, provisioned) == expected


@st.composite
def schedules(draw):
    n = draw(st.integers(1, 30))
    counts = st.lists(st.integers(0, 40), min_size=n, max_size=n)
    arrivals = np.array(draw(counts), dtype=np.float64)
    provisioned = np.array(draw(counts), dtype=np.float64)
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
    spec = VMSpec(
        startup_seconds=draw(st.sampled_from([0.0, 30.0, 120.0])),
        job_jitter_frac=draw(st.sampled_from([0.0, 0.1, 0.5])),
        max_concurrent_startups=draw(st.integers(1, 5)),
    )
    return spec, draw(st.integers(0, 2**32 - 1)), arrivals, provisioned, cuts


@given(schedules(), st.sampled_from([1, 7, 64, cloudsim._FILL_JOBS]))
@settings(max_examples=150, deadline=None)
def test_any_contiguous_split_is_bit_identical(schedule, fill_jobs):
    """Neither the block split nor how many intervals share one buffer
    fill (small fills put every interval in its own) changes a bit of
    what the per-job loop computes."""
    spec, seed, arrivals, provisioned, cuts = schedule
    sim = CloudSimulator(spec, seed=seed)
    expected = reference_run(sim, arrivals, provisioned)
    assert outputs(sim._run(arrivals, provisioned, [])) == expected
    with mock.patch.object(cloudsim, "_FILL_JOBS", fill_jobs):
        assert outputs(sim._run(arrivals, provisioned, cuts)) == expected


def _telemetry(sim, arrivals, provisioned, cuts):
    """``(autoscale.step events, autoscale.* metrics)`` of one run."""
    _metrics.reset_metrics()
    sink = _events.add_sink(_events.MemorySink())
    try:
        sim._run(arrivals, provisioned, cuts)
    finally:
        _events.remove_sink(sink)
    steps = [{k: v for k, v in e.items() if k != "time"}
             for e in sink.by_name("autoscale.step")]
    registry = _metrics.get_registry()
    metrics = registry.snapshot(prefix="autoscale.")
    metrics["turnaround_samples"] = list(
        _metrics.histogram("autoscale.turnaround_seconds")._samples
    )
    return steps, metrics


@pytest.mark.parametrize("name", ["idle_intervals", "cold_waves"])
def test_telemetry_parity_across_splits(name):
    sim, arrivals, provisioned, _ = load_case(name)
    jobs = np.ceil(arrivals).astype(np.int64)
    serial = _telemetry(sim, arrivals, provisioned, [])
    steps, metrics = serial
    assert len(steps) == arrivals.size
    assert [s["interval"] for s in steps] == list(range(arrivals.size))
    for name_ in ("autoscale.intervals", "autoscale.cold_starts",
                  "autoscale.idle_vm_intervals", "autoscale.turnaround_seconds"):
        assert name_ in metrics
    for n_blocks in (2, 3):
        cuts = _balanced_cuts(jobs, n_blocks)
        assert _telemetry(sim, arrivals, provisioned, cuts) == serial
