"""Tests for repro.core.heuristic (App_FIT), repro.core.policies and estimators."""

import pytest

from repro.core.engine import decide_for_graph
from repro.core.estimator import ArgumentSizeEstimator
from repro.core.heuristic import AppFit
from repro.core.policies import (
    CompleteReplication,
    NoReplication,
    RandomReplication,
    TopFitReplication,
)
from repro.faults.rates import FitRateSpec
from repro.util.rng import RngStream
from repro.util.units import MIB
from tests.conftest import make_independent_graph, make_task


def uniform_graph(n=200, size_bytes=MIB):
    return make_independent_graph(n, size_bytes=size_bytes)


class TestEstimators:
    def test_argument_size_estimator_matches_model(self):
        est = ArgumentSizeEstimator(FitRateSpec())
        task = make_task(0, size_bytes=32e6)
        rates = est.estimate(task)
        assert rates.crash_fit == pytest.approx(2.22, rel=1e-6)


class TestAppFit:
    def _threshold(self, graph, spec=None):
        spec = spec or FitRateSpec()
        est = ArgumentSizeEstimator(spec)
        return sum(est.estimate(t).total_fit for t in graph.tasks())

    def test_threshold_always_respected(self):
        graph = uniform_graph(300)
        threshold = self._threshold(graph)
        policy = AppFit(threshold, len(graph), ArgumentSizeEstimator(FitRateSpec(multiplier=10.0)))
        decide_for_graph(graph, policy)
        audit = policy.audit()
        assert audit.threshold_respected and audit.envelope_respected

    def test_10x_rates_replicate_about_90_percent_uniform(self):
        graph = uniform_graph(500)
        threshold = self._threshold(graph)
        policy = AppFit(threshold, len(graph), ArgumentSizeEstimator(FitRateSpec(multiplier=10.0)))
        decisions = decide_for_graph(graph, policy)
        assert 0.87 <= decisions.task_fraction <= 0.93

    def test_5x_needs_less_replication_than_10x(self):
        graph = uniform_graph(500)
        threshold = self._threshold(graph)
        frac = {}
        for mult in (5.0, 10.0):
            policy = AppFit(threshold, len(graph), ArgumentSizeEstimator(FitRateSpec(multiplier=mult)))
            frac[mult] = decide_for_graph(graph, policy).task_fraction
        assert frac[5.0] < frac[10.0]

    def test_1x_rates_require_essentially_no_replication(self):
        # At today's rates the threshold equals the unprotected FIT, so no task
        # needs protection (floating-point rounding may flag at most one task,
        # since every uniform task sits exactly on the envelope boundary).
        graph = uniform_graph(200)
        threshold = self._threshold(graph)
        policy = AppFit(threshold, len(graph), ArgumentSizeEstimator(FitRateSpec(multiplier=1.0)))
        decisions = decide_for_graph(graph, policy)
        assert decisions.replicated_tasks <= 1

    def test_generous_threshold_means_no_replication(self):
        graph = uniform_graph(100)
        policy = AppFit(1e9, len(graph), ArgumentSizeEstimator())
        assert decide_for_graph(graph, policy).task_fraction == 0.0

    def test_zero_threshold_replicates_everything(self):
        graph = uniform_graph(100)
        policy = AppFit(0.0, len(graph), ArgumentSizeEstimator())
        assert decide_for_graph(graph, policy).task_fraction == 1.0

    def test_skewed_fit_distribution_needs_fewer_task_replicas(self):
        """When a few big tasks carry most of the FIT, App_FIT covers the budget
        with far fewer tasks — the granularity effect the paper describes."""
        from repro.runtime.graph import TaskGraph

        skewed = TaskGraph("skewed")
        for i in range(500):
            size = 100 * MIB if i % 10 == 0 else 0.5 * MIB
            skewed.add_task(make_task(i, size_bytes=size))
        est_1x = ArgumentSizeEstimator(FitRateSpec())
        threshold = sum(est_1x.estimate(t).total_fit for t in skewed.tasks())
        policy = AppFit(threshold, len(skewed), ArgumentSizeEstimator(FitRateSpec(multiplier=10.0)))
        frac_skewed = decide_for_graph(skewed, policy).task_fraction

        uniform = uniform_graph(500)
        threshold_u = self._threshold(uniform)
        policy_u = AppFit(threshold_u, len(uniform), ArgumentSizeEstimator(FitRateSpec(multiplier=10.0)))
        frac_uniform = decide_for_graph(uniform, policy_u).task_fraction
        assert frac_skewed < frac_uniform

    def test_decisions_recorded(self):
        graph = uniform_graph(10)
        policy = AppFit(self._threshold(graph), len(graph), ArgumentSizeEstimator(FitRateSpec(multiplier=10.0)))
        decide_for_graph(graph, policy)
        assert len(policy.decisions) == 10
        assert policy.replication_fraction() == pytest.approx(
            len(policy.replicated_task_ids()) / 10
        )

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            AppFit(-1.0, 10)
        with pytest.raises(ValueError):
            AppFit(1.0, 0)

    def test_replication_fraction_empty(self):
        assert AppFit(1.0, 10).replication_fraction() == 0.0


class TestBaselinePolicies:
    def test_complete_replication(self):
        graph = uniform_graph(50)
        decisions = decide_for_graph(graph, CompleteReplication())
        assert decisions.task_fraction == 1.0
        assert decisions.time_fraction == 1.0

    def test_no_replication(self):
        graph = uniform_graph(50)
        decisions = decide_for_graph(graph, NoReplication())
        assert decisions.task_fraction == 0.0

    def test_random_replication_rate(self):
        graph = uniform_graph(2000)
        policy = RandomReplication(0.3, rng=RngStream(5))
        frac = decide_for_graph(graph, policy).task_fraction
        assert 0.25 < frac < 0.35

    def test_random_zero_and_one(self):
        graph = uniform_graph(50)
        assert decide_for_graph(graph, RandomReplication(0.0)).task_fraction == 0.0
        assert decide_for_graph(graph, RandomReplication(1.0)).task_fraction == 1.0

    def test_top_fit_requires_prepare(self):
        policy = TopFitReplication(0.5)
        with pytest.raises(RuntimeError):
            policy.decide(make_task(0))

    def test_top_fit_selects_heaviest(self):
        from repro.runtime.graph import TaskGraph

        graph = TaskGraph()
        for i in range(10):
            graph.add_task(make_task(i, size_bytes=(i + 1) * MIB))
        decisions = decide_for_graph(graph, TopFitReplication(0.2))
        assert decisions.replicated_ids == {8, 9}

    def test_invalid_policy_parameters(self):
        with pytest.raises(ValueError):
            RandomReplication(1.5)
        with pytest.raises(ValueError):
            TopFitReplication(2.0)
