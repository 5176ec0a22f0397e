"""Unit tests for repro.core.stats."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.stats import Cdf, histogram_counts, percent, summarize

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestSummary:
    def test_basic_fields(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.mean == pytest.approx(2.5)
        assert s.minimum == 1.0
        assert s.maximum == 4.0
        assert s.median == pytest.approx(2.5)

    def test_std_population(self):
        s = summarize([2.0, 4.0])
        assert s.std == pytest.approx(1.0)

    def test_empty_raises_uniform_message(self):
        with pytest.raises(ValueError, match="^empty sample$"):
            summarize([])

    def test_str_format(self):
        assert "±" in str(summarize([1.0, 2.0]))

    @given(st.lists(finite_floats, min_size=1, max_size=50))
    def test_mean_within_bounds(self, xs):
        s = summarize(xs)
        assert s.minimum - 1e-9 <= s.mean <= s.maximum + 1e-9


class TestCdf:
    def test_fraction_below(self):
        cdf = Cdf([1.0, 2.0, 2.0, 4.0])
        assert cdf.fraction_below(2.5) == pytest.approx(0.75)
        assert cdf.fraction_below(0.5) == 0.0
        assert cdf.fraction_below(4.0) == 1.0

    def test_fraction_above_complements(self):
        cdf = Cdf([1.0, 2.0, 3.0])
        assert cdf.fraction_above(1.5) == pytest.approx(1.0 - cdf.fraction_below(1.5))

    def test_percentile_median(self):
        assert Cdf([1.0, 2.0, 3.0]).percentile(50) == 2.0

    def test_percentile_out_of_range(self):
        with pytest.raises(ValueError):
            Cdf([1.0]).percentile(101)

    def test_empty_raises_uniform_message(self):
        with pytest.raises(ValueError, match="^empty sample$"):
            Cdf([])

    def test_points_monotone(self):
        pts = Cdf([3.0, 1.0, 2.0]).points()
        values = [v for v, _ in pts]
        fracs = [f for _, f in pts]
        assert values == sorted(values)
        assert fracs == sorted(fracs)
        assert fracs[-1] == pytest.approx(1.0)

    def test_values_read_only(self):
        cdf = Cdf([1.0, 2.0])
        with pytest.raises(ValueError):
            cdf.values[0] = 99.0

    @given(st.lists(finite_floats, min_size=1, max_size=100), finite_floats)
    def test_fraction_below_is_probability(self, xs, threshold):
        assert 0.0 <= Cdf(xs).fraction_below(threshold) <= 1.0

    @given(st.lists(finite_floats, min_size=2, max_size=100))
    def test_percentiles_monotone(self, xs):
        cdf = Cdf(xs)
        assert cdf.percentile(25) <= cdf.percentile(50) <= cdf.percentile(75)


class TestCdfVsReservoirSketch:
    """Cross-validate ``Cdf.percentile`` against the registry's quantile sketch.

    Two independent implementations of "the p-th percentile of this
    sample" — numpy over the full sample vs the interpolation that
    :class:`~repro.metrics.sketches.ReservoirQuantile` and the metric
    summaries share — must agree while the reservoir still holds every
    sample, or one of them is wrong.
    """

    def _samples(self, n=2000):
        from repro.core.rng import RngFactory

        rng = RngFactory(123).stream("stats:sketch:crosscheck")
        return [float(v) for v in rng.gamma(2.0, 15.0, size=n)]

    @pytest.mark.parametrize("pct", [50.0, 90.0, 99.0])
    def test_streaming_estimate_matches_exact_percentile(self, pct):
        from repro.metrics.sketches import ReservoirQuantile

        samples = self._samples()
        sketch = ReservoirQuantile(k=len(samples), tag="stats:crosscheck")
        for value in samples:
            sketch.observe(value)
        assert sketch.quantile(pct) == pytest.approx(Cdf(samples).percentile(pct), rel=1e-12)

    def test_small_samples_are_exact(self):
        from repro.metrics.sketches import ReservoirQuantile

        sketch = ReservoirQuantile(k=8, tag="stats:small")
        for value in (4.0, 1.0, 3.0, 2.0):
            sketch.observe(value)
        for pct in (0.0, 25.0, 50.0, 90.0, 100.0):
            assert sketch.quantile(pct) == pytest.approx(Cdf([1.0, 2.0, 3.0, 4.0]).percentile(pct))

    def test_empty_sketch_raises_uniform_message(self):
        from repro.metrics.sketches import ReservoirQuantile

        with pytest.raises(ValueError, match="^empty sample$"):
            ReservoirQuantile(k=8, tag="stats:empty").quantile(50.0)


class TestHistogram:
    def test_paper_style_bins(self):
        rows = histogram_counts([-110, -95, -85, -85, -75, -65, -50], (-140, -105, -90, -80, -70, -60, -40))
        counts = [c for _, c, _ in rows]
        assert counts == [1, 1, 2, 1, 1, 1]

    def test_fractions_sum_to_one(self):
        rows = histogram_counts([1, 2, 3, 4], (0, 2, 5))
        assert sum(f for _, _, f in rows) == pytest.approx(1.0)

    def test_out_of_range_ignored(self):
        rows = histogram_counts([-200.0, 50.0], (-140, -105, -40))
        assert sum(c for _, c, _ in rows) == 0

    def test_empty_sample(self):
        rows = histogram_counts([], (0, 1))
        assert rows[0][1] == 0
        assert rows[0][2] == 0.0


def test_percent_formatting():
    assert percent(0.0807) == "8.07%"
    assert percent(1.0) == "100.00%"
