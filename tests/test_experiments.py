"""Tests for the experiment harness: settings, metrics, runner and ablations."""

import pytest

from repro.baselines import RealHeuristicSystem
from repro.core import SearchConfig, instructgpt_workload
from repro.cluster import make_cluster
from repro.experiments import (
    ExperimentSetting,
    algorithm_settings,
    evaluate_setting,
    figure2_opportunity,
    figure8_settings,
    format_table,
    gpus_for_actor,
    petaflops_per_second,
    progressive_optimization,
    run_comparison,
    static_memory_utilization,
    strong_scaling_settings,
    weak_scaling_settings,
)
from repro.experiments.runner import default_search_config


class TestSettings:
    def test_weak_scaling_matches_appendix_a(self):
        settings = weak_scaling_settings()
        assert [(s.actor_size, s.n_gpus, s.batch_size) for s in settings] == [
            ("7b", 16, 512), ("13b", 32, 1024), ("34b", 64, 2048), ("70b", 128, 4096),
        ]

    def test_figure8_pairs(self):
        settings = figure8_settings()
        assert len(settings) == 7
        assert settings[0].actor_size == "7b" and settings[-1].critic_size == "13b"

    def test_figure8_long_context_keeps_token_budget(self):
        base = figure8_settings(2048)[0]
        long = figure8_settings(8192)[0]
        assert long.context_len == 8192
        assert long.batch_size * long.context_len == pytest.approx(
            base.batch_size * base.context_len, rel=0.05
        )

    def test_strong_scaling_fixed_problem(self):
        settings = strong_scaling_settings("7b", gpu_counts=(8, 16, 32))
        assert all(s.batch_size == 512 for s in settings)
        assert [s.n_gpus for s in settings] == [8, 16, 32]

    def test_algorithm_settings(self):
        settings = algorithm_settings("7b", n_gpus=16)
        assert [s.algorithm for s in settings] == ["dpo", "grpo", "remax"]
        assert all((s.critic_size, s.batch_size) == ("7b", 512) for s in settings)

    def test_setting_builders(self):
        setting = ExperimentSetting("t", "7b", "7b", n_gpus=16, batch_size=64)
        assert setting.workload().batch_size == 64
        assert setting.cluster().n_gpus == 16
        assert setting.graph().name == "ppo"

    def test_gpus_for_actor(self):
        assert gpus_for_actor("70b") == 128


class TestMetrics:
    def test_petaflops(self, ppo_graph):
        workload = instructgpt_workload("7b", "7b", batch_size=128)
        value = petaflops_per_second(workload, ppo_graph, seconds_per_iteration=10.0)
        assert value > 0
        with pytest.raises(ValueError):
            petaflops_per_second(workload, ppo_graph, 0.0)

    def test_static_memory_utilization(self, ppo_graph):
        from repro.core import ParallelStrategy, RuntimeEstimator, symmetric_plan

        cluster = make_cluster(16)
        workload = instructgpt_workload("7b", "7b", batch_size=128)
        plan = symmetric_plan(ppo_graph, cluster, ParallelStrategy(2, 8, 1), n_microbatches=8)
        memory = RuntimeEstimator(ppo_graph, workload, cluster).max_memory(plan)
        util = static_memory_utilization(memory, cluster.device_memory_bytes)
        assert 0 < util < 1


class TestReporting:
    def test_format_table(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy", "c": 3.5}]
        text = format_table(rows, title="T")
        assert "T" in text and "a" in text and "22" in text and "c" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])


class TestRunner:
    def test_default_search_config_scalable(self, monkeypatch):
        monkeypatch.setenv("REPRO_SEARCH_BUDGET_SCALE", "2.0")
        assert default_search_config().max_iterations == 6000
        monkeypatch.delenv("REPRO_SEARCH_BUDGET_SCALE")
        assert default_search_config().max_iterations == 3000
        monkeypatch.setenv("REPRO_SEARCH_BUDGET_SCALE", "  ")
        assert default_search_config().max_iterations == 3000

    @pytest.mark.parametrize("bad", ["bogus", "0", "-1", "-2.5", "nan", "inf"])
    def test_default_search_config_rejects_garbage_scale(self, monkeypatch, bad):
        monkeypatch.setenv("REPRO_SEARCH_BUDGET_SCALE", bad)
        with pytest.raises(ValueError, match="REPRO_SEARCH_BUDGET_SCALE"):
            default_search_config()

    def test_evaluate_setting_produces_record(self):
        setting = ExperimentSetting("tiny", "7b", "7b", n_gpus=8, batch_size=64)
        record = evaluate_setting(setting, RealHeuristicSystem())
        assert record.setting == "tiny"
        assert record.feasible
        assert record.petaflops > 0
        assert record.extra and "static_mem_util" in record.extra
        row = record.as_row()
        assert row["system"] == "ReaL-Heuristic"

    def test_run_comparison_grid(self):
        setting = ExperimentSetting("tiny", "7b", "7b", n_gpus=8, batch_size=64)
        records = run_comparison([setting], [RealHeuristicSystem()])
        assert len(records) == 1


class TestAblations:
    @pytest.fixture(scope="class")
    def tiny_problem(self, ppo_graph):
        cluster = make_cluster(8)
        workload = instructgpt_workload("7b", "7b", batch_size=64)
        return ppo_graph, workload, cluster

    def test_progressive_optimization_monotone_overall(self, tiny_problem):
        graph, workload, cluster = tiny_problem
        levels = progressive_optimization(
            graph, workload, cluster,
            search_config=SearchConfig(max_iterations=200, time_budget_s=10, seed=0),
        )
        assert len(levels) == 5
        # The final (full ReaL) level is at least as fast as the unoptimised
        # heuristic without CUDA graphs.
        assert levels[-1].seconds_per_iteration <= levels[0].seconds_per_iteration
        # CUDA-graph capture alone already helps generation.
        assert levels[1].seconds_per_iteration <= levels[0].seconds_per_iteration

    def test_figure2_opportunity_levels(self, tiny_problem):
        graph, workload, cluster = tiny_problem
        levels = figure2_opportunity(
            graph, workload, cluster,
            search_config=SearchConfig(max_iterations=200, time_budget_s=10, seed=0),
        )
        assert [l.name for l in levels][0].startswith("3D parallelism")
        assert len(levels) == 4
        assert levels[-1].seconds_per_iteration <= levels[0].seconds_per_iteration * 1.05


class TestSchedulerComparisonTraces:
    def test_trace_dir_exports_one_merged_trace_per_policy(self, tmp_path):
        from repro.cluster import make_cluster
        from repro.core import SearchConfig
        from repro.experiments import run_scheduler_comparison
        from repro.sched import JobSpec, SchedulerConfig
        from repro.sim import load_chrome_trace

        config = SchedulerConfig(
            search=SearchConfig(max_iterations=25, time_budget_s=0.5, record_history=False)
        )
        jobs = [
            JobSpec(name="a", batch_size=64, target_iterations=3, min_gpus=8, max_gpus=8),
            JobSpec(name="b", batch_size=64, target_iterations=3, min_gpus=8, max_gpus=8),
        ]
        reports = run_scheduler_comparison(
            make_cluster(16),
            jobs,
            policies=["first_fit", "best_throughput"],
            config=config,
            trace_dir=str(tmp_path),
        )
        assert [r.policy for r in reports] == ["first_fit", "best_throughput"]
        for report in reports:
            assert report.trace_path is not None
            assert load_chrome_trace(report.trace_path)
        # Each trace brings its METRICS_* snapshot and PROVENANCE_* ledger.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "METRICS_schedule_best_throughput.json",
            "METRICS_schedule_first_fit.json",
            "PROVENANCE_schedule_best_throughput.jsonl",
            "PROVENANCE_schedule_first_fit.jsonl",
            "schedule_best_throughput.json",
            "schedule_first_fit.json",
        ]
