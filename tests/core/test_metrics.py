"""Exact metric accumulation."""

import pytest

from repro.core.bundle import BundleId
from repro.core.metrics import MetricsCollector, TimeWeightedAccumulator
from tests.helpers import copy_count, removal_total


class TestTimeWeightedAccumulator:
    def test_integral_of_piecewise_constant(self):
        acc = TimeWeightedAccumulator()
        acc.update(2.0, 10.0)  # 0 over [0,10)
        acc.update(5.0, 20.0)  # 2 over [10,20)
        assert acc.integral(30.0) == 0 * 10 + 2 * 10 + 5 * 10
        assert acc.value == 5.0

    def test_add_is_relative(self):
        acc = TimeWeightedAccumulator(value=1.0)
        acc.add(2.0, 10.0)
        assert acc.value == 3.0
        assert acc.integral(10.0) == 10.0

    def test_mean_over_window(self):
        acc = TimeWeightedAccumulator()
        acc.update(4.0, 5.0)
        assert acc.mean(10.0) == pytest.approx((0 * 5 + 4 * 5) / 10)

    def test_mean_with_start_offset(self):
        acc = TimeWeightedAccumulator(value=2.0, start=10.0)
        assert acc.mean(20.0) == pytest.approx(2.0)

    def test_mean_uses_birth_time_not_zero(self):
        # regression: a constant value must average to itself no matter
        # when the accumulator was born; the old mean() divided the
        # lifetime integral by `now - 0` and reported 3.0 here
        acc = TimeWeightedAccumulator(value=6.0, start=5.0)
        assert acc.mean(10.0) == pytest.approx(6.0)
        acc.update(6.0, 8.0)  # no-op update must not change the mean
        assert acc.mean(10.0) == pytest.approx(6.0)

    def test_mean_of_zero_span_returns_value(self):
        acc = TimeWeightedAccumulator(value=7.0)
        assert acc.mean(0.0) == 7.0

    def test_time_reversal_rejected(self):
        acc = TimeWeightedAccumulator()
        acc.update(1.0, 10.0)
        with pytest.raises(ValueError):
            acc.update(2.0, 5.0)
        with pytest.raises(ValueError):
            acc.integral(5.0)


class TestOccupancyMetric:
    def test_mean_buffer_occupancy(self):
        m = MetricsCollector(num_nodes=2, buffer_capacity=10)
        m.on_buffer_delta(+10, 0.0)  # one node instantly full
        assert m.mean_buffer_occupancy(100.0) == pytest.approx(10 / 20)

    def test_control_storage_included(self):
        m = MetricsCollector(num_nodes=2, buffer_capacity=10)
        m.on_control_storage_delta(+5.0, 0.0)
        assert m.mean_buffer_occupancy(10.0) == pytest.approx(5 / 20)


class TestDuplicationMetric:
    def _bid(self, seq=1):
        return BundleId(0, seq)

    def test_single_bundle_full_window(self):
        m = MetricsCollector(num_nodes=4, buffer_capacity=10)
        m.on_bundle_born(self._bid(), 0.0)  # 1 copy
        m.on_copy_delta(self._bid(), +1, 50.0)  # 2 copies
        # [0,50): 1/4, [50,100): 2/4 -> mean 1.5/4
        assert m.mean_duplication_rate(100.0) == pytest.approx(1.5 / 4)

    def test_alive_window_frozen_at_delivery(self):
        m = MetricsCollector(num_nodes=4, buffer_capacity=10)
        m.on_bundle_born(self._bid(), 0.0)
        m.on_copy_delta(self._bid(), +1, 50.0)
        m.on_delivered(self._bid(), 100.0)
        frozen = m.mean_duplication_rate(100.0)
        # post-delivery purges must not change the alive-window value
        m.on_copy_delta(self._bid(), -1, 150.0)
        assert m.mean_duplication_rate(1_000.0) == pytest.approx(frozen)

    def test_average_over_bundles(self):
        m = MetricsCollector(num_nodes=2, buffer_capacity=10)
        m.on_bundle_born(self._bid(1), 0.0)
        m.on_bundle_born(self._bid(2), 0.0)
        m.on_copy_delta(self._bid(1), +1, 0.0)  # bundle 1: 2 copies always
        # bundle 1 mean = 1.0, bundle 2 mean = 0.5 -> average 0.75
        assert m.mean_duplication_rate(100.0) == pytest.approx(0.75)

    def test_born_twice_rejected(self):
        m = MetricsCollector(2, 10)
        m.on_bundle_born(self._bid(), 0.0)
        with pytest.raises(ValueError):
            m.on_bundle_born(self._bid(), 1.0)

    def test_delta_for_unborn_rejected(self):
        m = MetricsCollector(2, 10)
        with pytest.raises(ValueError):
            m.on_copy_delta(self._bid(), +1, 0.0)

    def test_negative_copy_count_rejected(self):
        m = MetricsCollector(2, 10)
        m.on_bundle_born(self._bid(), 0.0)
        with pytest.raises(ValueError):
            m.on_copy_delta(self._bid(), -2, 1.0)

    def test_copy_count_query(self):
        m = MetricsCollector(2, 10)
        assert copy_count(m, self._bid()) == 0
        m.on_bundle_born(self._bid(), 0.0)
        assert copy_count(m, self._bid()) == 1

    def test_empty_collector_zero(self):
        assert MetricsCollector(2, 10).mean_duplication_rate(10.0) == 0.0


class TestDeliveryAndCounters:
    def test_delivery_ratio_and_completion(self):
        m = MetricsCollector(3, 10)
        for seq, t in ((1, 10.0), (2, 30.0)):
            m.on_bundle_born(BundleId(0, seq), 0.0)
            m.on_delivered(BundleId(0, seq), t)
        assert m.delivery_ratio(4) == 0.5
        assert m.completion_time(2) == 30.0
        assert m.completion_time(3) is None
        with pytest.raises(ValueError):
            m.delivery_ratio(0)

    def test_double_delivery_rejected(self):
        m = MetricsCollector(3, 10)
        m.on_bundle_born(BundleId(0, 1), 0.0)
        m.on_delivered(BundleId(0, 1), 5.0)
        with pytest.raises(ValueError):
            m.on_delivered(BundleId(0, 1), 6.0)

    def test_signaling_counters(self):
        m = MetricsCollector(3, 10)
        m.on_control_units("anti_packet", 3)
        m.on_control_units("immunity_table", 5)
        m.on_control_units("summary_vector", 1)
        assert (m.signaling.anti_packet, m.signaling.immunity_table) == (3, 5)
        assert m.signaling.summary_vector == 1
        with pytest.raises(ValueError):
            m.on_control_units("bogus", 1)

    def test_removal_reasons(self):
        m = MetricsCollector(3, 10)
        for reason in ("evicted", "expired", "immunized", "ec-aged-out", "weird"):
            m.on_removal(reason)
        assert m.removals.evicted == 1
        assert m.removals.ec_aged_out == 1
        assert m.removals.other == 1
        assert removal_total(m.removals) == 5
