"""Layer time providers price each distinct layer operation once.

Both providers memoise their six methods on the full argument tuple.  The
memo may change how often the kernel model runs, never what it returns: a
memoised answer equals (``==``) the direct ``LayerCostModel`` or
interpolation result, and repeated questions get the very same object.
"""

from __future__ import annotations

import functools
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algorithms import build_ppo_graph
from repro.cluster import make_cluster
from repro.core import (
    AnalyticalProvider,
    MCMCSearcher,
    ProfiledProvider,
    Profiler,
    SearchConfig,
    instructgpt_workload,
)
from repro.core.estimator import RuntimeEstimator
from repro.core.pruning import allocation_options
from repro.model import LayerCostModel, get_model_config

CLUSTER = make_cluster(16)
CONFIG = get_model_config("7b")
CRITIC = CONFIG.as_critic()
PROFILE = Profiler(CLUSTER).profile(
    CONFIG, max_tokens=2 ** 14, tp_degrees=(1, 2, 4), seq_lengths=(256, 1024), max_batch=32
)

# Small domains so examples repeat arguments (memo hits), with sizes inside,
# between and beyond the profiled samples and one TP degree (8) that the
# profile lacks, so the profiled provider also falls back.
tokens = st.sampled_from([1, 100, 256, 3000, 2 ** 14, 50_000])
seqlens = st.sampled_from([128, 256, 700, 1024, 4096])
kv_lens = st.sampled_from([256.0, 640.5, 1024.0, 3000.0])
tps = st.sampled_from([1, 2, 4, 8])
pps = st.sampled_from([1, 2, 4])

CALLS = st.one_of(
    st.tuples(st.just("forward"), tokens, seqlens, tps),
    st.tuples(st.just("backward"), tokens, seqlens, tps),
    st.tuples(st.just("decode"), st.sampled_from([1, 8, 20, 64]), kv_lens, tps, st.booleans()),
    st.tuples(st.just("head_forward"), tokens, tps),
    st.tuples(st.just("head_backward"), tokens, tps),
    st.tuples(st.just("optimizer_step"), tps, pps),
)

_MODEL_METHOD = {
    "forward": "forward_time",
    "backward": "backward_time",
    "decode": "decode_time",
    "head_forward": "head_forward_time",
    "head_backward": "head_backward_time",
    "optimizer_step": "optimizer_step_time",
}

ANALYTICAL = {config.name: AnalyticalProvider(config, CLUSTER) for config in (CONFIG, CRITIC)}
PROFILED = ProfiledProvider(CONFIG, CLUSTER, PROFILE)


@given(call=CALLS, critic=st.booleans())
def test_analytical_memo_equals_the_kernel_model(call, critic):
    config = CRITIC if critic else CONFIG
    provider = ANALYTICAL[config.name]
    name, *args = call
    direct = getattr(LayerCostModel(config, CLUSTER), _MODEL_METHOD[name])(*args)
    first = getattr(provider, name)(*args)
    assert first == direct
    assert getattr(provider, name)(*args) is first


@given(call=CALLS)
def test_profiled_memo_equals_the_interpolation(call):
    name, *args = call
    fresh = ProfiledProvider(CONFIG, CLUSTER, PROFILE)
    direct = getattr(fresh, f"_interp_{name}")(*args)
    first = getattr(PROFILED, name)(*args)
    assert first == direct
    assert getattr(PROFILED, name)(*args) is first


def test_keyword_calls_share_the_positional_entry():
    provider = AnalyticalProvider(CONFIG, CLUSTER)
    timing = provider.decode(8, 1024.0, 2, True)
    assert provider.decode(8, 1024.0, tp=2, use_cuda_graph=True) is timing
    assert provider.optimizer_step(tp=4, pp=2) is provider.optimizer_step(4, 2)


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count outermost ``LayerCostModel`` calls per (model instance, method, args).

    ``backward_time`` and ``head_backward_time`` call their forward
    counterparts; those inner calls are not questions a provider asked, so
    only the outermost call of each chain is counted.
    """
    calls: Counter = Counter()
    depth = [0]
    for method in _MODEL_METHOD.values():
        original = getattr(LayerCostModel, method)

        @functools.wraps(original)
        def counted(self, *args, _original=original, _method=method):
            if depth[0] == 0:
                calls[self, _method, args] += 1
            depth[0] += 1
            try:
                return _original(self, *args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(LayerCostModel, method, counted)
    return calls


@pytest.mark.parametrize("profiled", [False, True], ids=["analytical", "profiled"])
def test_plan_search_runs_the_kernel_model_once_per_argument_tuple(kernel_calls, profiled):
    graph = build_ppo_graph()
    workload = instructgpt_workload("7b", "7b", batch_size=128)
    cluster = make_cluster(8)
    profiles = None
    if profiled:
        # TP 4 and 8 are missing from the profile, so the fallback kernel
        # model is asked too.
        profiles = {
            name: Profiler(cluster).profile(
                workload.model_config(name), max_tokens=2 ** 14, tp_degrees=(1, 2),
                seq_lengths=(256, 1024), max_batch=32,
            )
            for name in graph.model_names()
        }
    # ``cross_check`` re-prices every evaluation on the from-scratch
    # reference path, which asks the same providers again.
    estimator = RuntimeEstimator(graph, workload, cluster, profiles=profiles, cross_check=True)
    searcher = MCMCSearcher(
        graph=graph, workload=workload, cluster=cluster, estimator=estimator,
        options=allocation_options(graph, workload, cluster),
        config=SearchConfig(max_iterations=300, seed=0),
    )
    searcher.search()
    assert kernel_calls
    assert max(kernel_calls.values()) == 1
