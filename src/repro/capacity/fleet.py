"""Synthetic fleet workload traces: thousands of jobs with diurnal arrivals.

Capacity questions ("how many GPUs does next quarter's RLHF fleet need?")
are answered by replaying a representative workload trace against candidate
cluster shapes.  Real fleet traces are proprietary, so this module generates
synthetic ones with the statistical structure capacity planning cares about:

* a **job-type mix** — a few recurring RLHF job templates (algorithm, model
  sizes, data shape, elastic GPU range) drawn with configured weights, which
  also mirrors production reality: recurring job types are exactly what makes
  the plan service's cache (and the scheduler's candidate memo) effective;
* **Poisson arrivals** with a **diurnal rate modulation** — a sinusoidal
  day/night load swing, generated by thinning a homogeneous Poisson stream;
* **deterministic seeding** — the same :class:`FleetTraceConfig` always
  yields byte-identical job lists, so benchmarks and what-if grids are
  reproducible.

:func:`fleet_scheduler_config` bundles the scheduler knobs a fleet-scale
replay wants (timeline off, throttled counter sampling, candidate memo on,
tight search budgets) into one preset.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..core.search import SearchConfig
from ..sched.job import JobSpec
from ..sched.scheduler import SchedulerConfig

__all__ = [
    "FleetJobType",
    "FleetTraceConfig",
    "generate_fleet_trace",
    "fleet_scheduler_config",
]


@dataclass(frozen=True)
class FleetJobType:
    """One recurring job template of the fleet mix."""

    name: str
    algorithm: str = "ppo"
    actor_size: str = "7b"
    critic_size: str = "7b"
    batch_size: int = 128
    prompt_len: int = 512
    gen_len: int = 512
    n_ppo_minibatches: int = 4
    min_gpus: int = 4
    max_gpus: Optional[int] = 8
    priority: int = 0
    iterations: Tuple[int, int] = (20, 60)
    """Inclusive ``(low, high)`` range of ``target_iterations`` per job."""
    weight: float = 1.0
    """Relative draw probability within the mix."""

    def __post_init__(self) -> None:
        low, high = self.iterations
        if low < 1 or high < low:
            raise ValueError(f"iterations range must be 1 <= low <= high, got {self.iterations}")
        if self.weight <= 0:
            raise ValueError(f"weight must be > 0, got {self.weight}")


DEFAULT_JOB_TYPES: Tuple[FleetJobType, ...] = (
    FleetJobType(
        name="ppo-small",
        algorithm="ppo",
        actor_size="7b",
        critic_size="7b",
        batch_size=128,
        prompt_len=512,
        gen_len=512,
        n_ppo_minibatches=4,
        min_gpus=4,
        max_gpus=8,
        iterations=(20, 60),
        weight=0.55,
    ),
    FleetJobType(
        name="grpo-mid",
        algorithm="grpo",
        actor_size="7b",
        critic_size="7b",
        batch_size=256,
        prompt_len=1024,
        gen_len=1024,
        n_ppo_minibatches=8,
        min_gpus=8,
        max_gpus=16,
        iterations=(30, 80),
        weight=0.30,
    ),
    FleetJobType(
        name="ppo-large",
        algorithm="ppo",
        actor_size="13b",
        critic_size="13b",
        batch_size=256,
        prompt_len=1024,
        gen_len=1024,
        n_ppo_minibatches=8,
        min_gpus=16,
        max_gpus=32,
        priority=1,
        iterations=(40, 120),
        weight=0.15,
    ),
)
"""A production-flavoured default mix: many small jobs, few large ones."""


_DIURNAL_AMPLITUDE = 0.5
"""Relative day/night swing of the arrival rate: the rate varies between
``(1 - a)`` and ``(1 + a)`` times the mean."""
_DIURNAL_PERIOD_S = 86400.0
"""Period of the arrival-rate swing: one day."""


@dataclass(frozen=True)
class FleetTraceConfig:
    """Shape of one synthetic fleet trace (fully determined by ``seed``)."""

    n_jobs: int = 1000
    horizon_s: float = 86400.0
    """Nominal arrival window; the mean arrival rate is ``n_jobs / horizon_s``
    (the last arrival lands near — not exactly at — the horizon)."""
    seed: int = 0
    job_types: Tuple[FleetJobType, ...] = field(default=DEFAULT_JOB_TYPES)

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {self.n_jobs}")
        if self.horizon_s <= 0:
            raise ValueError(f"horizon_s must be > 0, got {self.horizon_s}")
        if not self.job_types:
            raise ValueError("job_types must be non-empty")


def generate_fleet_trace(config: FleetTraceConfig = FleetTraceConfig()) -> List[JobSpec]:
    """Generate one synthetic fleet trace as a list of :class:`JobSpec`.

    Arrivals follow a nonhomogeneous Poisson process with rate
    ``mean * (1 + a * sin(2πt / period))`` (``a`` = ``_DIURNAL_AMPLITUDE``,
    ``period`` = ``_DIURNAL_PERIOD_S``), realised by thinning a
    homogeneous stream at the peak rate; each accepted arrival draws a job
    type by weight and a target-iteration count from the type's range.  The
    whole trace is a pure function of ``config`` (one seeded ``Random``).
    """
    rng = random.Random(config.seed)
    mean_rate = config.n_jobs / config.horizon_s
    amplitude = _DIURNAL_AMPLITUDE
    peak_rate = mean_rate * (1.0 + amplitude)
    omega = 2.0 * math.pi / _DIURNAL_PERIOD_S
    types = list(config.job_types)
    weights = [jtype.weight for jtype in types]
    jobs: List[JobSpec] = []
    now = 0.0
    while len(jobs) < config.n_jobs:
        now += rng.expovariate(peak_rate)
        rate = mean_rate * (1.0 + amplitude * math.sin(omega * now))
        if rng.random() * peak_rate > rate:
            continue  # thinned: a night-time candidate arrival
        jtype = rng.choices(types, weights=weights)[0]
        low, high = jtype.iterations
        jobs.append(
            JobSpec(
                name=f"{jtype.name}-{len(jobs):05d}",
                algorithm=jtype.algorithm,
                actor_size=jtype.actor_size,
                critic_size=jtype.critic_size,
                batch_size=jtype.batch_size,
                prompt_len=jtype.prompt_len,
                gen_len=jtype.gen_len,
                n_ppo_minibatches=jtype.n_ppo_minibatches,
                priority=jtype.priority,
                arrival_time=now,
                target_iterations=rng.randint(low, high),
                min_gpus=jtype.min_gpus,
                max_gpus=jtype.max_gpus,
            )
        )
    return jobs


FLEET_COUNTER_INTERVAL_S = 600.0
"""Virtual seconds between counter-track samples of a fleet replay."""


def fleet_scheduler_config() -> SchedulerConfig:
    """Scheduler preset for fleet-scale replay.

    A default :class:`SchedulerConfig` with the fleet knobs applied:
    per-decision timeline off (no unbounded in-memory lists, no
    per-decision logging), counter tracks throttled to one sample per
    :data:`FLEET_COUNTER_INTERVAL_S` of virtual time, tight search budgets,
    and elasticity off — a fleet replay asks capacity questions, where
    opportunistic per-job growth mostly adds re-planning churn to every
    dispatch.
    """
    return SchedulerConfig(
        search=SearchConfig(max_iterations=60, time_budget_s=0.25, record_history=False),
        elastic=False,
        timeline=False,
        counter_interval_s=FLEET_COUNTER_INTERVAL_S,
    )
