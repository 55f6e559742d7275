"""Profiling-assisted layer statistics for the lightweight runtime estimator.

Section 5.1 of the paper: ReaL profiles the cost of forward, backward and
decoding operations of *individual layers* at data input sizes that are powers
of two, plus the intra/inter-node bandwidths, in a few minutes per model.  The
estimator then reconstructs the cost of any candidate execution plan from
these statistics by linear interpolation, in hundreds of microseconds per
plan.

In this reproduction the "measurement" source is the analytical kernel model
(:class:`repro.model.layers.LayerCostModel`); the profiler samples it exactly
the way the paper's profiler samples CUDA kernels, records the statistics in a
:class:`ProfileStats` table, and the estimator interpolates from that table.
The runtime engine, by contrast, evaluates the analytical model at the exact
data sizes, which is what creates the estimated-versus-measured gap studied in
Figure 12 (right).

Like the paper's estimator, which measures each layer operation once and
rebuilds every plan's cost from those numbers, each provider prices a layer
operation once: its six methods look their argument tuple up in a per-method
:class:`_TimingMemo` and compute only on a miss.  Every method is a pure
function of the provider's model, cluster (and profile) and its arguments,
and :class:`~repro.model.layers.LayerTiming` is frozen, so the memo needs no
lock and no off switch, and the estimator's from-scratch reference
(``RuntimeEstimator._exact_cost``) goes through it as well.  It needs no eviction either: it holds one
entry per distinct layer shape its provider was asked about, a few dozen for
one plan request.  The memo lives and dies with its provider: estimators,
engines and the profiler each build their own.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Protocol, Sequence, Tuple

from ..cluster.hardware import ClusterSpec
from ..model.config import ModelConfig
from ..model.layers import LayerCostModel, LayerTiming

__all__ = [
    "LayerTimeProvider",
    "AnalyticalProvider",
    "ProfiledProvider",
    "ProfileStats",
    "Profiler",
]

DEFAULT_TP_DEGREES = (1, 2, 4, 8)
DEFAULT_SEQ_LENGTHS = (256, 512, 1024, 2048, 4096, 8192)
DEFAULT_MAX_TOKENS = 2 ** 21
PROFILE_TRIALS = 3
"""Number of repetitions the (simulated) profiler runs per measurement."""


class LayerTimeProvider(Protocol):
    """Interface shared by the exact analytical model and the profile table."""

    def forward(self, n_tokens: int, seqlen: int, tp: int) -> LayerTiming:
        """One layer's forward pass over ``n_tokens`` tokens."""
        ...

    def backward(self, n_tokens: int, seqlen: int, tp: int) -> LayerTiming:
        """One layer's backward pass."""
        ...

    def decode(self, batch: int, kv_len: float, tp: int, use_cuda_graph: bool) -> LayerTiming:
        """One layer's decoding step for ``batch`` sequences."""
        ...

    def head_forward(self, n_tokens: int, tp: int) -> LayerTiming:
        """Output head forward pass."""
        ...

    def head_backward(self, n_tokens: int, tp: int) -> LayerTiming:
        """Output head backward pass."""
        ...

    def optimizer_step(self, tp: int, pp: int) -> LayerTiming:
        """Per-layer optimizer update."""
        ...


class _TimingMemo(dict):
    """Results of one pure timing function, keyed on its argument tuple.

    A lookup of an unseen tuple calls ``compute(*args)`` once and stores the
    result; every later lookup is a plain dict hit.
    """

    __slots__ = ("compute",)

    def __init__(self, compute: Callable[..., LayerTiming]) -> None:
        super().__init__()
        self.compute = compute

    def __missing__(self, args: tuple) -> LayerTiming:
        timing = self[args] = self.compute(*args)
        return timing


class _MemoisedProvider:
    """The :class:`LayerTimeProvider` interface over six memoised timing functions.

    Subclasses pass the functions that compute each timing; each public
    method answers from its :class:`_TimingMemo`.
    """

    def __init__(
        self,
        forward: Callable[[int, int, int], LayerTiming],
        backward: Callable[[int, int, int], LayerTiming],
        decode: Callable[[int, float, int, bool], LayerTiming],
        head_forward: Callable[[int, int], LayerTiming],
        head_backward: Callable[[int, int], LayerTiming],
        optimizer_step: Callable[[int, int], LayerTiming],
    ) -> None:
        self._forward = _TimingMemo(forward)
        self._backward = _TimingMemo(backward)
        self._decode = _TimingMemo(decode)
        self._head_forward = _TimingMemo(head_forward)
        self._head_backward = _TimingMemo(head_backward)
        self._optimizer_step = _TimingMemo(optimizer_step)

    def forward(self, n_tokens: int, seqlen: int, tp: int) -> LayerTiming:
        return self._forward[n_tokens, seqlen, tp]

    def backward(self, n_tokens: int, seqlen: int, tp: int) -> LayerTiming:
        return self._backward[n_tokens, seqlen, tp]

    def decode(self, batch: int, kv_len: float, tp: int, use_cuda_graph: bool) -> LayerTiming:
        return self._decode[batch, kv_len, tp, use_cuda_graph]

    def head_forward(self, n_tokens: int, tp: int) -> LayerTiming:
        return self._head_forward[n_tokens, tp]

    def head_backward(self, n_tokens: int, tp: int) -> LayerTiming:
        return self._head_backward[n_tokens, tp]

    def optimizer_step(self, tp: int, pp: int) -> LayerTiming:
        return self._optimizer_step[tp, pp]


class AnalyticalProvider(_MemoisedProvider):
    """Exact per-layer costs from the analytical kernel model."""

    def __init__(self, config: ModelConfig, cluster: ClusterSpec) -> None:
        self.config = config
        self.cluster = cluster
        model = LayerCostModel(config, cluster)
        super().__init__(
            model.forward_time,
            model.backward_time,
            model.decode_time,
            model.head_forward_time,
            model.head_backward_time,
            model.optimizer_step_time,
        )


@dataclass
class ProfileStats:
    """Per-layer timing samples for one model on one cluster.

    Samples are keyed by ``(op, tp)`` and stored as sorted ``(size, timing)``
    lists, where *size* is the token count (forward/backward) or batch size
    (decode).  Decode samples additionally carry the key/value length.
    """

    model_name: str
    token_sizes: Tuple[int, ...]
    tp_degrees: Tuple[int, ...]
    seq_lengths: Tuple[int, ...]
    forward_samples: Dict[Tuple[int, int], List[Tuple[int, LayerTiming]]] = field(default_factory=dict)
    backward_samples: Dict[Tuple[int, int], List[Tuple[int, LayerTiming]]] = field(default_factory=dict)
    decode_samples: Dict[Tuple[int, int, bool], List[Tuple[int, LayerTiming]]] = field(default_factory=dict)
    head_samples: Dict[int, List[Tuple[int, LayerTiming]]] = field(default_factory=dict)
    optimizer_samples: Dict[int, LayerTiming] = field(default_factory=dict)
    profiling_seconds: float = 0.0
    n_measurements: int = 0

    def sample_count(self) -> int:
        """Total number of recorded measurements."""
        return self.n_measurements


def _interp_timing(
    samples: Sequence[Tuple[int, LayerTiming]], size: float
) -> LayerTiming:
    """Piecewise-linear interpolation of a timing table, clamped at the ends.

    Beyond the profiled range the cost is extrapolated proportionally to the
    data size, matching the paper's linear interpolation of profiling
    statistics.
    """
    if not samples:
        raise ValueError("cannot interpolate from an empty sample table")
    sizes = [s for s, _ in samples]
    if size <= sizes[0]:
        base = samples[0][1]
        scale = size / sizes[0]
        return LayerTiming(base.compute_s * scale, base.tp_comm_s * scale, base.launch_s)
    if size >= sizes[-1]:
        base = samples[-1][1]
        scale = size / sizes[-1]
        return LayerTiming(base.compute_s * scale, base.tp_comm_s * scale, base.launch_s)
    hi = bisect.bisect_left(sizes, size)
    lo = hi - 1
    (s0, t0), (s1, t1) = samples[lo], samples[hi]
    w = (size - s0) / (s1 - s0)
    return LayerTiming(
        compute_s=t0.compute_s + w * (t1.compute_s - t0.compute_s),
        tp_comm_s=t0.tp_comm_s + w * (t1.tp_comm_s - t0.tp_comm_s),
        launch_s=t0.launch_s + w * (t1.launch_s - t0.launch_s),
    )


class Profiler:
    """Collects per-layer timing statistics from the analytical kernel model.

    ``profile`` measures forward/backward times at power-of-two token counts,
    decode times at power-of-two batch sizes for a set of sequence lengths,
    and head/optimizer costs, for every tensor-parallel degree of interest.
    ``profiling_seconds`` models the wall time this would have taken on real
    hardware (each measurement repeated :data:`PROFILE_TRIALS` times), which
    reproduces Figure 12 (left).
    """

    def __init__(self, cluster: ClusterSpec) -> None:
        self.cluster = cluster

    @staticmethod
    def powers_of_two(lo: int, hi: int) -> List[int]:
        """Powers of two in ``[lo, hi]`` (both clamped to at least 1)."""
        out: List[int] = []
        value = max(1, lo)
        # round up to a power of two
        p = 1
        while p < value:
            p *= 2
        while p <= hi:
            out.append(p)
            p *= 2
        return out

    def profile(
        self,
        config: ModelConfig,
        max_tokens: int = DEFAULT_MAX_TOKENS,
        tp_degrees: Sequence[int] = DEFAULT_TP_DEGREES,
        seq_lengths: Sequence[int] = DEFAULT_SEQ_LENGTHS,
        max_batch: int = 512,
    ) -> ProfileStats:
        """Profile one model and return its statistics table."""
        provider = AnalyticalProvider(config, self.cluster)
        token_sizes = self.powers_of_two(256, max_tokens)
        batch_sizes = self.powers_of_two(1, max_batch)
        tp_degrees = tuple(t for t in tp_degrees if config.n_heads % t == 0)
        stats = ProfileStats(
            model_name=config.name,
            token_sizes=tuple(token_sizes),
            tp_degrees=tp_degrees,
            seq_lengths=tuple(seq_lengths),
        )
        wall = 0.0
        n = 0
        for tp in tp_degrees:
            for seqlen in seq_lengths:
                fwd_key = (tp, seqlen)
                stats.forward_samples[fwd_key] = []
                stats.backward_samples[fwd_key] = []
                for tokens in token_sizes:
                    fwd = provider.forward(tokens, seqlen, tp)
                    bwd = provider.backward(tokens, seqlen, tp)
                    stats.forward_samples[fwd_key].append((tokens, fwd))
                    stats.backward_samples[fwd_key].append((tokens, bwd))
                    wall += PROFILE_TRIALS * (fwd.total_s + bwd.total_s)
                    n += 2
                for graph in (False, True):
                    dec_key = (tp, seqlen, graph)
                    stats.decode_samples[dec_key] = []
                    for batch in batch_sizes:
                        dec = provider.decode(batch, seqlen, tp, use_cuda_graph=graph)
                        stats.decode_samples[dec_key].append((batch, dec))
                        wall += PROFILE_TRIALS * dec.total_s
                        n += 1
            stats.head_samples[tp] = []
            for tokens in token_sizes:
                head = provider.head_forward(tokens, tp)
                stats.head_samples[tp].append((tokens, head))
                wall += PROFILE_TRIALS * head.total_s
                n += 1
            stats.optimizer_samples[tp] = provider.optimizer_step(tp, 1)
            wall += PROFILE_TRIALS * stats.optimizer_samples[tp].total_s
            n += 1
        stats.profiling_seconds = wall
        stats.n_measurements = n
        return stats


class ProfiledProvider(_MemoisedProvider):
    """Layer time provider that interpolates a :class:`ProfileStats` table."""

    def __init__(self, config: ModelConfig, cluster: ClusterSpec, stats: ProfileStats) -> None:
        if stats.model_name != config.name:
            raise ValueError(
                f"profile is for {stats.model_name!r}, not {config.name!r}"
            )
        self.config = config
        self.cluster = cluster
        self.stats = stats
        # Fallback for TP degrees / sequence lengths outside the profiled set.
        self._fallback = LayerCostModel(config, cluster)
        super().__init__(
            self._interp_forward,
            self._interp_backward,
            self._interp_decode,
            self._interp_head_forward,
            self._interp_head_backward,
            self._interp_optimizer_step,
        )

    # ------------------------------------------------------------------ #
    # Key resolution helpers
    # ------------------------------------------------------------------ #
    def _nearest_seq(self, seqlen: float) -> int:
        return min(self.stats.seq_lengths, key=lambda s: abs(s - seqlen))

    def _has_tp(self, tp: int) -> bool:
        return tp in self.stats.tp_degrees

    # ------------------------------------------------------------------ #
    # Interpolation (memoised by the provider interface)
    # ------------------------------------------------------------------ #
    def _interp_forward(self, n_tokens: int, seqlen: int, tp: int) -> LayerTiming:
        if not self._has_tp(tp):
            return self._fallback.forward_time(n_tokens, seqlen, tp)
        key = (tp, self._nearest_seq(seqlen))
        return _interp_timing(self.stats.forward_samples[key], n_tokens)

    def _interp_backward(self, n_tokens: int, seqlen: int, tp: int) -> LayerTiming:
        if not self._has_tp(tp):
            return self._fallback.backward_time(n_tokens, seqlen, tp)
        key = (tp, self._nearest_seq(seqlen))
        return _interp_timing(self.stats.backward_samples[key], n_tokens)

    def _interp_decode(
        self, batch: int, kv_len: float, tp: int, use_cuda_graph: bool
    ) -> LayerTiming:
        if not self._has_tp(tp):
            return self._fallback.decode_time(batch, kv_len, tp, use_cuda_graph)
        key = (tp, self._nearest_seq(kv_len), use_cuda_graph)
        return _interp_timing(self.stats.decode_samples[key], batch)

    def _interp_head_forward(self, n_tokens: int, tp: int) -> LayerTiming:
        if not self._has_tp(tp):
            return self._fallback.head_forward_time(n_tokens, tp)
        return _interp_timing(self.stats.head_samples[tp], n_tokens)

    def _interp_head_backward(self, n_tokens: int, tp: int) -> LayerTiming:
        fwd = self.head_forward(n_tokens, tp)
        return LayerTiming(2.0 * fwd.compute_s, 2.0 * fwd.tp_comm_s, fwd.launch_s)

    def _interp_optimizer_step(self, tp: int, pp: int) -> LayerTiming:
        if not self._has_tp(tp):
            return self._fallback.optimizer_step_time(tp, pp)
        return self.stats.optimizer_samples[tp]
