"""Interval-driven cloud simulator for predictive auto-scaling.

Models exactly what the paper's Google Cloud case study measures
(Section IV-C):

* at each interval ``i``, ``provisioned[i]`` VMs were created in advance
  (the policy decided this at interval ``i-1`` from its JAR prediction);
* ``arrivals[i]`` jobs arrive at the interval start, one job per VM;
* jobs landing on warm VMs start immediately; the overflow
  ``max(arrivals - provisioned, 0)`` waits for on-demand VM startup;
* each job runs for a service time drawn around ``job_seconds``
  (CloudSuite In-Memory Analytics-like fixed work with jitter);
* idle surplus VMs ``max(provisioned - arrivals, 0)`` burn cost.

The per-interval records are the paper's three Fig. 10 quantities:
average job turnaround, under-provisioning rate, over-provisioning rate.
"""

from __future__ import annotations

from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.parallel import effective_workers

__all__ = ["VMSpec", "SimulationResult", "CloudSimulator"]

#: Runs with fewer jobs stay on one thread: below this the per-job work
#: (a few ns) does not pay for a thread pool.
_THREADED_MIN_JOBS = 4_000_000

#: Draws per fill of the shared buffer (512 KiB of doubles): runs of
#: small intervals share one fill and one pass of each transform.
_FILL_JOBS = 1 << 16


def _balanced_cuts(jobs: np.ndarray, n_blocks: int) -> list[int]:
    """Interior interval indices splitting ``jobs`` into at most
    ``n_blocks`` contiguous blocks of roughly equal job count."""
    cum = np.cumsum(jobs)
    if n_blocks <= 1 or cum.size == 0 or cum[-1] == 0:
        return []
    targets = cum[-1] * np.arange(1, n_blocks) / n_blocks
    cuts = np.searchsorted(cum, targets) + 1
    return sorted({int(c) for c in cuts if 0 < c < cum.size})


@dataclass(frozen=True)
class VMSpec:
    """VM and job timing model.

    Defaults approximate the paper's setup: n1-standard-1 startup around
    two minutes end-to-end (VM boot + benchmark warm-up; Mao & Humphrey
    measured 50–100 s for the boot alone), and an In-Memory Analytics
    job of a few minutes.  ``max_concurrent_startups`` models the cloud
    API's throttling of on-demand VM creation: when an interval is badly
    under-provisioned, cold VMs come up in waves, which is what makes
    under-provisioning so expensive on real clouds.
    """

    startup_seconds: float = 120.0
    job_seconds: float = 180.0
    job_jitter_frac: float = 0.1
    max_concurrent_startups: int = 4

    def __post_init__(self):
        if self.startup_seconds < 0:
            raise ValueError("startup_seconds must be non-negative")
        if self.job_seconds <= 0:
            raise ValueError("job_seconds must be positive")
        if not 0.0 <= self.job_jitter_frac < 1.0:
            raise ValueError("job_jitter_frac must be in [0, 1)")
        if self.max_concurrent_startups < 1:
            raise ValueError("max_concurrent_startups must be >= 1")


@dataclass
class SimulationResult:
    """Per-interval outcomes of one auto-scaling run."""

    arrivals: np.ndarray
    provisioned: np.ndarray
    turnaround_seconds: np.ndarray     # mean job turnaround per interval
    makespan_seconds: np.ndarray       # time to finish all jobs per interval
    under_provisioned: np.ndarray      # VM shortfall per interval
    over_provisioned: np.ndarray       # idle VM surplus per interval
    vm_seconds: float = 0.0            # total VM time paid for
    extra: dict = field(default_factory=dict)

    @property
    def n_intervals(self) -> int:
        return int(self.arrivals.size)

    @property
    def mean_turnaround(self) -> float:
        """Average job turnaround across intervals with arrivals (Fig. 10a)."""
        mask = self.arrivals > 0
        if not mask.any():
            return 0.0
        return float(np.mean(self.turnaround_seconds[mask]))

    @property
    def underprovision_rate(self) -> float:
        """Average % of required VMs missing at interval start (Fig. 10b)."""
        mask = self.arrivals > 0
        if not mask.any():
            return 0.0
        return float(
            100.0 * np.mean(self.under_provisioned[mask] / self.arrivals[mask])
        )

    @property
    def overprovision_rate(self) -> float:
        """Average % of surplus VMs over required (Fig. 10c)."""
        denom = np.maximum(self.arrivals, 1.0)
        return float(100.0 * np.mean(self.over_provisioned / denom))


class CloudSimulator:
    """Replay a provisioning schedule against actual arrivals."""

    def __init__(self, spec: VMSpec | None = None, seed: int = 0):
        self.spec = spec if spec is not None else VMSpec()
        self.seed = int(seed)

    def run(self, arrivals: np.ndarray, provisioned: np.ndarray) -> SimulationResult:
        """Simulate all intervals.

        ``arrivals[i]`` and ``provisioned[i]`` are interpreted as VM/job
        counts (fractions are rounded up — you cannot provision 0.4 VMs).
        """
        return self._run(arrivals, provisioned, cuts=None)

    def _run(
        self, arrivals: np.ndarray, provisioned: np.ndarray,
        cuts: Sequence[int] | None,
    ) -> SimulationResult:
        """:meth:`run`, with the intervals split into blocks at ``cuts``.

        ``cuts`` are the interior block boundaries (interval indices);
        ``None`` picks them: one block below :data:`_THREADED_MIN_JOBS`
        jobs, else one job-balanced block per effective worker, each on
        its own thread.  Every split gives the same bits: interval ``i``'s
        draws start at offset ``sum(arrivals[:i])`` of the seeded stream
        whichever block runs it, and ``vm_seconds`` is folded in interval
        order once all blocks are done.
        """
        a_raw = np.asarray(arrivals, dtype=np.float64)
        p_raw = np.asarray(provisioned, dtype=np.float64)
        # NaN/inf would silently wrap through the int64 cast into garbage
        # provisioning; reject loudly — forecasts must be guarded
        # upstream (repro.serving.GuardedPredictor) before reaching here.
        if not np.all(np.isfinite(a_raw)) or not np.all(np.isfinite(p_raw)):
            raise ValueError(
                "arrivals and provisioned must be finite; guard predictions "
                "with repro.serving before simulating"
            )
        a = np.ceil(a_raw).astype(np.int64)
        p = np.ceil(p_raw).astype(np.int64)
        if a.shape != p.shape:
            raise ValueError("arrivals and provisioned must have the same length")
        if np.any(a < 0) or np.any(p < 0):
            raise ValueError("counts must be non-negative")
        n = a.size
        spec = self.spec
        cold_jobs = np.maximum(a - p, 0)
        under = cold_jobs.astype(np.float64)
        over = np.maximum(p - a, 0).astype(np.float64)
        # Stream offset of interval i's first draw: one double per job.
        offsets = np.concatenate(([0], np.cumsum(a)))
        if cuts is None:
            threaded = offsets[-1] >= _THREADED_MIN_JOBS
            cuts = _balanced_cuts(a, effective_workers() if threaded else 1)
        bounds = [0, *cuts, n]
        # The k-th cold VM of an interval is ready after
        # (1 + k // max_concurrent) throttled startup waves.
        max_cold = int(cold_jobs.max()) if n else 0
        cold_delay = spec.startup_seconds * (
            1 + np.arange(max_cold) // spec.max_concurrent_startups
        )

        turnaround = np.zeros(n)
        makespan = np.zeros(n)
        busy_seconds = np.zeros(n)     # sum of job completion times

        def block(lo: int, hi: int) -> None:
            rng = np.random.Generator(np.random.PCG64(self.seed))
            rng.bit_generator.advance(int(offsets[lo]))
            buf = np.empty(max(_FILL_JOBS, int(a[lo:hi].max()) if hi > lo else 0))
            g0 = lo
            while g0 < hi:
                # The longest run of whole intervals (at least one) whose
                # draws fit one fill: interval i's jobs sit at
                # [offsets[i], offsets[i+1]) of the stream.
                g1 = int(np.searchsorted(offsets, offsets[g0] + _FILL_JOBS, "right")) - 1
                g1 = min(max(g1, g0 + 1), hi)
                base = offsets[g0]
                d = buf[:offsets[g1] - base]
                # Same doubles, same operations in the same order as
                # job_seconds * (1 + jitter * (2 * uniform(size=jobs) - 1))
                # per interval, computed in place in a reused buffer.
                rng.random(out=d)
                d *= 2.0
                d -= 1.0
                d *= spec.job_jitter_frac
                d += 1.0
                d *= spec.job_seconds
                starts = offsets[g0:g1] - base
                ends = offsets[g0 + 1:g1 + 1] - base
                busy = np.flatnonzero(ends > starts)
                for j, lo_j, hi_j, cold in zip(
                    busy.tolist(), starts[busy].tolist(), ends[busy].tolist(),
                    cold_jobs[g0 + busy].tolist(),
                ):
                    # Cold jobs are the interval's last ones; the k-th
                    # waits cold_delay[k].
                    if cold:
                        d[hi_j - cold:hi_j] += cold_delay[:cold]
                    busy_seconds[g0 + j] = np.add.reduce(d[lo_j:hi_j])
                if busy.size:
                    makespan[g0 + busy] = np.maximum.reduceat(d, starts[busy])
                g0 = g1

        spans = list(zip(bounds[:-1], bounds[1:]))
        if len(spans) == 1:
            block(*spans[0])
        else:
            with ThreadPoolExecutor(max_workers=len(spans)) as pool:
                list(pool.map(lambda span: block(*span), spans))

        # np.mean's own division: the sum over the job count.
        np.divide(busy_seconds, a, out=turnaround, where=a > 0)

        # Paid VM time, folded left in interval order: every used VM for
        # its job (+startup for cold), then idle surplus for a nominal
        # job-length lease (an idle interval adds only the latter).
        paid = np.empty(2 * n + 1)
        paid[0] = 0.0
        paid[1::2] = busy_seconds
        paid[2::2] = over * spec.job_seconds
        vm_seconds = float(np.add.accumulate(paid)[-1])

        # Per-step scaling-decision telemetry costs nothing when no event
        # sink is registered.
        if _events.enabled():
            for i in range(n):
                jobs = int(a[i])
                if jobs == 0:
                    _events.emit(
                        "autoscale.step", interval=i, arrivals=0,
                        provisioned=int(p[i]), cold_starts=0,
                        idle_vms=int(p[i]), turnaround_s=0.0,
                    )
                    continue
                _events.emit(
                    "autoscale.step", interval=i, arrivals=jobs,
                    provisioned=int(p[i]), cold_starts=int(under[i]),
                    idle_vms=int(over[i]), turnaround_s=turnaround[i],
                    makespan_s=makespan[i],
                )

        m = _metrics
        m.counter("autoscale.intervals").inc(n)
        m.counter("autoscale.cold_starts").inc(float(np.sum(under)))
        m.counter("autoscale.idle_vm_intervals").inc(float(np.sum(over)))
        m.histogram("autoscale.turnaround_seconds").observe_many(
            turnaround[a > 0].tolist()
        )
        return SimulationResult(
            arrivals=a.astype(np.float64),
            provisioned=p.astype(np.float64),
            turnaround_seconds=turnaround,
            makespan_seconds=makespan,
            under_provisioned=under,
            over_provisioned=over,
            vm_seconds=vm_seconds,
        )
