"""Tests for repro.faults.rates and repro.faults.model (Section IV-A estimation)."""

import math

import pytest

from repro.faults.model import FailureModel
from repro.faults.rates import (
    DEFAULT_CRASH_FIT_PER_32GIB,
    ROADRUNNER_REFERENCE_BYTES,
    FitRateSpec,
    exascale_scenario,
)
from repro.util.units import GIB, KIB, MIB, fit_to_failures_per_second
from tests.conftest import make_chain_graph, make_task


class TestFitRateSpec:
    def test_paper_example_32mb(self):
        """The paper: crash FIT 2.22e3 for 32 GB -> 2.22 for a 32 MB input."""
        spec = FitRateSpec()
        assert spec.crash_fit_for_bytes(32e6) == pytest.approx(2.22, rel=1e-6)

    def test_paper_example_32kb(self):
        """... and 2.22e-3 for a 32 KB task argument."""
        spec = FitRateSpec()
        assert spec.crash_fit_for_bytes(32e3) == pytest.approx(2.22e-3, rel=1e-6)

    def test_reference_rate_recovered(self):
        spec = FitRateSpec()
        assert spec.crash_fit_for_bytes(ROADRUNNER_REFERENCE_BYTES) == pytest.approx(
            DEFAULT_CRASH_FIT_PER_32GIB
        )

    def test_rates_scale_linearly_with_bytes(self):
        spec = FitRateSpec()
        assert spec.total_fit_for_bytes(2 * GIB) == pytest.approx(
            2 * spec.total_fit_for_bytes(GIB)
        )

    def test_multiplier_scales_rates(self):
        spec = FitRateSpec()
        scaled = spec.scaled(10.0)
        assert scaled.crash_fit_per_byte == pytest.approx(10 * spec.crash_fit_per_byte)
        assert scaled.sdc_fit_per_byte == pytest.approx(10 * spec.sdc_fit_per_byte)

    def test_at_todays_rates_resets_multiplier(self):
        assert FitRateSpec(multiplier=10.0).at_todays_rates().multiplier == 1.0

    def test_total_is_crash_plus_sdc(self):
        spec = FitRateSpec()
        assert spec.total_fit_per_byte == pytest.approx(
            spec.crash_fit_per_byte + spec.sdc_fit_per_byte
        )

    def test_exascale_scenario_defaults_to_10x(self):
        assert exascale_scenario().multiplier == 10.0
        assert exascale_scenario(5.0).multiplier == 5.0

    def test_zero_bytes_zero_fit(self):
        assert FitRateSpec().total_fit_for_bytes(0.0) == 0.0

    def test_invalid_multiplier_rejected(self):
        with pytest.raises(ValueError):
            FitRateSpec(multiplier=0.0)

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            FitRateSpec(crash_fit_per_ref=-1.0)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            FitRateSpec().crash_fit_for_bytes(-5)


class TestFailureModel:
    def test_task_rates_proportional_to_argument_bytes(self):
        model = FailureModel()
        small = model.task_rates(make_task(0, size_bytes=1 * MIB))
        big = model.task_rates(make_task(1, size_bytes=4 * MIB))
        assert big.crash_fit == pytest.approx(4 * small.crash_fit)
        assert big.sdc_fit == pytest.approx(4 * small.sdc_fit)

    def test_total_fit_is_sum(self):
        model = FailureModel()
        rates = model.task_rates(make_task(0, size_bytes=MIB))
        assert rates.total_fit == pytest.approx(rates.crash_fit + rates.sdc_fit)

    def test_graph_total_fit_is_sum_over_tasks(self):
        model = FailureModel()
        graph = make_chain_graph(4, size_bytes=MIB)
        per_task = model.task_total_fit(graph.task(0))
        assert model.graph_total_fit(graph) == pytest.approx(4 * per_task)

    def test_graph_rates_keyed_by_task(self):
        model = FailureModel()
        graph = make_chain_graph(3)
        rates = model.graph_rates(graph)
        assert set(rates) == {0, 1, 2}

    def test_application_fit_from_input_size(self):
        model = FailureModel()
        assert model.application_fit(32 * GIB) == pytest.approx(
            model.rate_spec.total_fit_for_bytes(32 * GIB)
        )
        assert model.application_crash_fit(32 * GIB) < model.application_fit(32 * GIB)
        assert model.application_sdc_fit(32 * GIB) < model.application_fit(32 * GIB)

    def test_crash_probability_exponential_model(self):
        model = FailureModel()
        task = make_task(0, size_bytes=32 * GIB, duration_s=3600.0)
        expected = 1.0 - math.exp(
            -model.rate_spec.crash_fit_for_bytes(32 * GIB) / 1e9
        )
        assert model.crash_probability(task) == pytest.approx(expected, rel=1e-6)
        # Crash and SDC, down to the millisecond tasks every paper benchmark
        # runs: a task shorter than 1 s must not read as fault-free.
        for duration_s in (3600.0, 1.0, 1e-3):
            task = make_task(0, size_bytes=32 * GIB, duration_s=duration_s)
            rates = model.task_rates(task)
            for probability, fit in (
                (model.crash_probability, rates.crash_fit),
                (model.sdc_probability, rates.sdc_fit),
            ):
                expected = 1.0 - math.exp(-fit_to_failures_per_second(fit) * duration_s)
                got = probability(task)
                assert got == pytest.approx(expected, rel=1e-9), (duration_s, fit)
                assert got > 0.0, (duration_s, fit)

    def test_probability_zero_for_zero_duration(self):
        model = FailureModel()
        assert model.crash_probability(make_task(0, duration_s=0.0)) == 0.0

    def test_probability_monotone_in_duration(self):
        model = FailureModel()
        task = make_task(0, size_bytes=GIB, duration_s=1.0)
        p1 = model.crash_probability(task, duration_s=1.0)
        p2 = model.crash_probability(task, duration_s=1000.0)
        assert p2 > p1

    def test_probability_bounded_by_one(self):
        model = FailureModel(FitRateSpec(multiplier=1e6))
        task = make_task(0, size_bytes=1024 * GIB, duration_s=1e9)
        assert 0.0 <= model.crash_probability(task) <= 1.0

    def test_with_spec_returns_new_model(self):
        model = FailureModel()
        scaled = model.with_spec(model.rate_spec.scaled(5.0))
        task = make_task(0, size_bytes=MIB)
        assert scaled.task_total_fit(task) == pytest.approx(5 * model.task_total_fit(task))
