"""Shock schedule, intensity, detection, decay fitting."""

import numpy as np
import pytest

from contagion_lab.errors import DataError, ParseError
from contagion_lab.shocks import (
    AdoptionSeries,
    ShockSchedule,
    detect_shocks,
    fit_power_law,
    shock_day_mask,
    shock_intensity,
)


def sched(taus, gammas, alphas):
    return ShockSchedule(np.array(taus), np.array(gammas), np.array(alphas))


# -- intensity ---------------------------------------------------------------


def test_peak_day_identity():
    s = sched([10, 40], [0.3, 1.0], [0.5, 0.7])
    assert shock_intensity(s, 10) == 0.3
    assert shock_intensity(s, 40) == 1.0


def test_day_after_peak():
    s = sched([5], [1.0], [0.679])
    assert shock_intensity(s, 6) == pytest.approx(2.0 ** (-0.679), abs=1e-12)
    assert shock_intensity(s, 6) == pytest.approx(0.6246, abs=5e-4)


def test_zero_before_first_peak():
    s = sched([10], [1.0], [0.5])
    assert shock_intensity(s, 0) == 0.0
    assert shock_intensity(s, 9) == 0.0


def test_window_switches_at_next_peak():
    s = sched([0, 10], [0.5, 1.0], [1.0, 2.0])
    # day 9 still decays from the first peak, day 10 restarts at the second
    assert shock_intensity(s, 9) == pytest.approx(0.5 / 10.0)
    assert shock_intensity(s, 10) == 1.0
    assert shock_intensity(s, 11) == pytest.approx(2.0 ** (-2.0))


def test_vectorized_matches_scalar():
    s = sched([3, 8], [0.4, 1.0], [0.3, 1.1])
    days = np.arange(20)
    vec = shock_intensity(s, days)
    for t in days:
        assert vec[t] == shock_intensity(s, int(t))


def test_nonincreasing_within_window():
    s = sched([2, 30], [0.8, 1.0], [0.25, 0.9])
    lam = shock_intensity(s, np.arange(2, 30))
    assert np.all(np.diff(lam) <= 0)
    lam2 = shock_intensity(s, np.arange(30, 100))
    assert np.all(np.diff(lam2) <= 0)


def test_empty_schedule_is_all_zero():
    s = ShockSchedule.empty()
    assert shock_intensity(s, 5) == 0.0
    assert np.all(shock_intensity(s, np.arange(10)) == 0.0)


def test_schedule_validation():
    with pytest.raises(DataError):
        sched([5, 5], [0.5, 1.0], [1.0, 1.0])  # not strictly increasing
    with pytest.raises(DataError):
        sched([1, 2], [0.5, 0.9], [1.0, 1.0])  # max height != 1
    with pytest.raises(DataError):
        sched([1], [1.0], [-0.2])  # negative exponent


def test_height_normalization_from_peak_counts():
    # five bursts; heights are peak-day counts, normalized to the largest
    s = ShockSchedule.from_peaks(
        taus=[10, 50, 90, 130, 170],
        heights=[322, 590, 247, 153, 1759],
        alphas=[0.626, 0.231, 0.775, 0.556, 0.679],
    )
    assert np.allclose(np.round(s.gamma, 3), [0.183, 0.335, 0.140, 0.087, 1.0])


def test_json_round_trip(tmp_path):
    s = sched([3, 12], [0.25, 1.0], [0.6, 1.4])
    p = tmp_path / "shocks.json"
    s.to_json(p)
    s2 = ShockSchedule.from_json(p)
    assert np.array_equal(s.tau, s2.tau)
    assert np.allclose(s.gamma, s2.gamma)
    assert np.allclose(s.alpha, s2.alpha)


def test_json_parse_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ParseError):
        ShockSchedule.from_json(p)
    p.write_text('[{"tau": 1, "gamma": 1.0}]')
    with pytest.raises(ParseError):
        ShockSchedule.from_json(p)


# -- detection ---------------------------------------------------------------


def test_constant_series_no_shocks():
    s = AdoptionSeries(np.full(60, 100))
    assert detect_shocks(s) == []


def test_single_spike_flagged():
    counts = np.full(40, 10)
    counts[35] = 500
    assert detect_shocks(AdoptionSeries(counts)) == [(35, 35)]


def test_adjacent_flagged_days_merge():
    counts = np.full(50, 10)
    counts[40] = 500
    counts[41] = 480
    ranges = detect_shocks(AdoptionSeries(counts))
    assert ranges == [(40, 41)]


def detect_oracle(counts, min_count=150, window=30, z=3.0):
    """Day-by-day recomputation of the flag rule with plain Python."""
    flags = []
    for t in range(len(counts)):
        if t < window:
            continue
        past = [float(c) for c in counts[t - window : t]]
        mu = sum(past) / window
        var = sum((c - mu) ** 2 for c in past) / (window - 1)
        if counts[t] >= min_count and counts[t] > mu + z * var**0.5:
            flags.append(t)
    return flags


def test_five_spike_series_five_ranges():
    rng = np.random.default_rng(42)
    counts = rng.poisson(20, size=400)
    peaks = [60, 120, 180, 240, 330]
    heights = [322, 590, 247, 200, 1759]
    for p, h in zip(peaks, heights):
        counts[p] = h
        counts[p + 1] = int(h * 0.6)
    ranges = detect_shocks(AdoptionSeries(counts))
    assert len(ranges) == 5
    flagged = sorted(d for a, b in ranges for d in range(a, b + 1))
    assert flagged == detect_oracle(counts)


def detect_loop(counts, min_count, window, z):
    """The day-by-day numpy loop `detect_shocks` replaced, kept as its reference."""
    counts = counts.astype(float)
    flagged = np.zeros(len(counts), dtype=bool)
    for t in range(window, len(counts)):
        past = counts[t - window : t]
        flagged[t] = counts[t] >= min_count and counts[t] > past.mean() + z * past.std(ddof=1)
    edges = np.flatnonzero(np.diff(np.concatenate(([False], flagged, [False]))))
    return [(int(a), int(b) - 1) for a, b in zip(edges[::2], edges[1::2])]


def test_windowed_detection_equals_the_day_loop():
    # besides fixed z values, z is set to a random day's exact boundary
    # (counts[t] - mean) / sd, so a last bit moved in that day's window mean
    # or SD can flip its flag
    rng = np.random.default_rng(7)
    cases = [(np.zeros(40, dtype=np.int64), 0, 30), (np.zeros(3, dtype=np.int64), 0, 2)]
    for _ in range(150):
        n = int(rng.integers(3, 900))
        window = int(rng.integers(2, min(n - 1, 199) + 1))
        counts = rng.poisson(rng.uniform(0, 50), size=n)
        counts[rng.random(n) < 0.05] = 0
        spikes = rng.random(n) < 0.02
        counts[spikes] = rng.integers(100, 3000, size=int(spikes.sum()))
        cases.append((counts, int(rng.choice([0, 1, 150])), window))
    cases.append((cases[-1][0], 0, len(cases[-1][0]) - 1))  # window == n - 1
    for counts, min_count, window in cases:
        t = int(rng.integers(window, len(counts)))
        past = counts[t - window : t].astype(float)
        sd = past.std(ddof=1)
        zs = [3.0, -1.0] + ([(counts[t] - past.mean()) / sd] if sd > 0 else [])
        for z in zs:
            got = detect_shocks(AdoptionSeries(counts), min_count=min_count, window=window, z=z)
            assert got == detect_loop(counts, min_count, window, z), (len(counts), window, z)
    assert detect_shocks(AdoptionSeries(np.zeros(40, dtype=np.int64)), min_count=0) == []


def test_detection_ignores_early_days():
    counts = np.full(40, 10)
    counts[5] = 500  # inside the warm-up window: never flagged
    assert detect_shocks(AdoptionSeries(counts)) == []


def test_trailing_zeros_do_not_change_detection():
    rng = np.random.default_rng(1)
    counts = rng.poisson(30, size=100)
    counts[70] = 900
    base = detect_shocks(AdoptionSeries(counts))
    padded = detect_shocks(AdoptionSeries(np.concatenate([counts, np.zeros(50, int)])))
    assert base == padded


def test_short_series_raises():
    with pytest.raises(DataError):
        detect_shocks(AdoptionSeries(np.full(20, 10)))


@pytest.mark.parametrize("window", [1, 0, -5])
def test_window_below_two_days_raises(window):
    # a trailing SD needs two days
    with pytest.raises(DataError, match="window must be >= 2"):
        detect_shocks(AdoptionSeries(np.full(40, 10)), window=window)


def test_shock_day_mask():
    mask = shock_day_mask(10, [(2, 4), (8, 9)])
    assert list(np.flatnonzero(mask)) == [2, 3, 4, 8, 9]
    # ranges before the horizon, after it, reversed, and straddling its ends
    for ranges, days in [
        ([(-5, -3)], []),
        ([(-5, -1)], []),
        ([(10, 12)], []),
        ([(6, 3)], []),
        ([(-2, 1), (9, 14)], [0, 1, 9]),
    ]:
        assert list(np.flatnonzero(shock_day_mask(10, ranges))) == days, ranges


def test_series_csv_round_trip(tmp_path):
    s = AdoptionSeries(np.array([3, 0, 7, 1]))
    p = tmp_path / "series.csv"
    s.to_csv(p)
    s2 = AdoptionSeries.from_csv(p)
    assert np.array_equal(s.counts, s2.counts)


def test_series_csv_gap_raises(tmp_path):
    p = tmp_path / "series.csv"
    p.write_text("day,count\n0,5\n2,3\n")
    with pytest.raises(ParseError):
        AdoptionSeries.from_csv(p)


# -- power-law fitting -------------------------------------------------------


def test_noiseless_recovery():
    t = np.arange(30)
    counts = 100.0 * (t + 1.0) ** (-0.6)
    fit = fit_power_law(counts, peak=0)
    assert fit.alpha == pytest.approx(0.6, abs=1e-3)
    assert fit.r_squared > 0.999
    assert fit.gamma == pytest.approx(1.0, abs=1e-6)


def test_flat_series_zero_exponent():
    fit = fit_power_law(np.full(20, 50.0), peak=0)
    assert abs(fit.alpha) < 1e-6


def test_peak_offset_respected():
    t = np.arange(25)
    tail = 200.0 * (t + 1.0) ** (-0.9)
    counts = np.concatenate([np.full(10, 3.0), tail])
    fit = fit_power_law(counts, peak=10)
    assert fit.alpha == pytest.approx(0.9, abs=1e-3)


def test_noisy_recovery_within_band():
    # multiplicative log-normal noise, sigma = 0.1
    t = np.arange(60)
    clean = 1759.0 * (t + 1.0) ** (-0.679)
    for seed in range(20):
        rng = np.random.default_rng(seed)
        noisy = clean * np.exp(rng.normal(0, 0.1, size=len(t)))
        fit = fit_power_law(noisy, peak=0)
        assert fit.alpha == pytest.approx(0.679, abs=0.15)


def test_count_scaling_leaves_alpha_unchanged():
    t = np.arange(40)
    counts = 80.0 * (t + 1.0) ** (-0.45)
    f1 = fit_power_law(counts, peak=0)
    f2 = fit_power_law(counts * 37.5, peak=0)
    assert f1.alpha == pytest.approx(f2.alpha, abs=1e-9)


def test_huber_downweights_outlier():
    t = np.arange(40)
    counts = 100.0 * (t + 1.0) ** (-0.5)
    counts[20] *= 30.0  # gross outlier
    robust = fit_power_law(counts, peak=0)
    assert robust.alpha == pytest.approx(0.5, abs=0.05)


def test_too_few_points_raises():
    with pytest.raises(DataError):
        fit_power_law(np.array([10.0, 5.0, 0.0, 0.0]), peak=0)


def test_zero_peak_count_raises():
    with pytest.raises(DataError):
        fit_power_law(np.array([0.0, 5.0, 3.0, 2.0]), peak=0)
