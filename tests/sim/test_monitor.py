"""Unit tests for the measurement time series."""

import pytest

from repro.sim import TimeSeries


class TestTimeSeries:
    def test_record_and_stats(self):
        ts = TimeSeries("watts")
        for t, v in [(0.0, 90.0), (1.0, 100.0), (2.0, 110.0)]:
            ts.record(t, v)
        assert len(ts) == 3
        assert ts.mean() == pytest.approx(100.0)
        assert ts.min() == 90.0
        assert ts.max() == 110.0

    def test_non_monotonic_rejected(self):
        ts = TimeSeries()
        ts.record(5.0, 1.0)
        with pytest.raises(ValueError):
            ts.record(4.0, 1.0)

    def test_integral_trapezoidal(self):
        # Constant 100 W for 10 s → 1000 J.
        ts = TimeSeries()
        for t in range(11):
            ts.record(float(t), 100.0)
        assert ts.integral() == pytest.approx(1000.0)

    def test_integral_ramp(self):
        # Ramp 0→10 over 10 s → area 50.
        ts = TimeSeries()
        for t in range(11):
            ts.record(float(t), float(t))
        assert ts.integral() == pytest.approx(50.0)

    def test_window(self):
        ts = TimeSeries()
        for t in range(10):
            ts.record(float(t), float(t))
        w = ts.window(3.0, 6.0)
        assert w.times == [3.0, 4.0, 5.0, 6.0]

    def test_empty_mean_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries().mean()


class TestIntegralContract:
    """TimeSeries.integral's documented contract: exact [t0, tN] span,
    linear interpolation between consecutive samples — even across
    gaps."""

    def test_gap_is_interpolated_not_held(self):
        # A producer that stops sampling while idle: 100 W at t=0 and
        # t=10 with nothing between reads as a flat 100 W line, even if
        # the true value dipped to 0 in between.  This is the trap the
        # contract documents — holes are *not* treated as idle.
        ts = TimeSeries()
        ts.record(0.0, 100.0)
        ts.record(10.0, 100.0)
        assert ts.integral() == pytest.approx(1000.0)

    def test_fixed_cadence_represents_idle_correctly(self):
        # The fix the PDU loop applies: emit at a fixed cadence even
        # when nothing changed.  An idle stretch is then a run of
        # identical samples and the integral is exact.
        ts = TimeSeries()
        ts.record(0.0, 100.0)
        ts.record(1.0, 0.0)    # drop to idle
        ts.record(9.0, 0.0)    # still idle (cadence samples)
        ts.record(10.0, 100.0)
        assert ts.integral() == pytest.approx(50.0 + 0.0 * 8 + 50.0)

    def test_nothing_outside_sampled_span(self):
        ts = TimeSeries()
        ts.record(2.0, 100.0)
        ts.record(4.0, 100.0)
        # Only [2, 4] contributes; [0, 2] is not imputed.
        assert ts.integral() == pytest.approx(200.0)

    def test_single_sample_integrates_to_zero(self):
        ts = TimeSeries()
        ts.record(1.0, 100.0)
        assert ts.integral() == 0.0


class TestTimeWeightedMean:
    def test_equals_mean_for_even_spacing(self):
        ts = TimeSeries()
        for t, v in [(0.0, 10.0), (1.0, 20.0), (2.0, 30.0)]:
            ts.record(t, v)
        assert ts.time_weighted_mean() == pytest.approx(20.0)

    def test_uneven_spacing_weights_by_time(self):
        ts = TimeSeries()
        ts.record(0.0, 0.0)
        ts.record(1.0, 10.0)
        ts.record(10.0, 10.0)
        # Plain mean over-weights the dense start (6.67); the weighted
        # mean reflects that the series sat at 10 for 9 of 10 seconds.
        assert ts.mean() == pytest.approx(20.0 / 3)
        assert ts.time_weighted_mean() == pytest.approx(9.5)

    def test_zero_span_falls_back_to_mean(self):
        ts = TimeSeries()
        ts.record(1.0, 4.0)
        assert ts.time_weighted_mean() == 4.0
        ts.record(1.0, 8.0)  # same instant
        assert ts.time_weighted_mean() == pytest.approx(6.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries().time_weighted_mean()

