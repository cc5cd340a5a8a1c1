"""Speed-probe scaling arithmetic."""

from pytest import approx

import pace


def probe_with(samples):
    probe = pace.Pace()
    for start, seconds in samples:
        probe.starts.append(start)
        probe.kernel_s.append(seconds)
    return probe


def test_unsampled_probe_reports_plain_time():
    assert pace.Pace().scaled((0.0, 2.0, 1.5)) == 1.5


def test_interval_is_scaled_by_the_kernel_time_around_it():
    slow = 2 * pace.NOMINAL_S
    probe = probe_with([(0.0, slow), (1.0, slow), (5.0, pace.NOMINAL_S)])
    # only the sample at 1.0 starts within INTERVAL_S of the interval [0.5, 1.0]
    assert probe.scaled((0.5, 1.0, 0.4)) == approx(0.2)


def test_interval_without_samples_uses_the_next_one():
    probe = probe_with([(0.0, pace.NOMINAL_S), (10.0, 4 * pace.NOMINAL_S)])
    assert probe.scaled((9.0, 9.5, 1.0)) == approx(0.25)


def test_reading_subtracts_probe_time():
    probe = pace.Pace()
    assert probe.reading((1.0, 0.25), (3.0, 0.75)) == (1.0, 3.0, 1.5)
