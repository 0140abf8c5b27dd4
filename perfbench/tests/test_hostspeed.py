"""Host-corrected seconds."""

import pytest

from hostspeed import REFERENCE_S, SENSITIVITY, HostSpeed


def sampler(costs_by_time):
    host = HostSpeed()
    for t, cost in costs_by_time:
        host.times.append(t)
        host.costs.append(cost)
    return host


def test_correction_scales_by_mean_calibration_time():
    # 1 s at the reference speed, then 1 s with the calibration twice as slow.
    host = sampler([(i * 0.1, REFERENCE_S) for i in range(10)]
                   + [(1.0 + i * 0.1, 2 * REFERENCE_S) for i in range(10)])
    assert host.slowdown(0.0, 0.95) == pytest.approx(1.0)
    assert host.slowdown(1.0, 1.95) == pytest.approx(2 ** SENSITIVITY)
    assert host.slowdown(0.0, 2.0) == pytest.approx(1.5 ** SENSITIVITY)


def test_short_spans_borrow_neighbouring_samples():
    host = sampler([(i * 0.1, REFERENCE_S * (1 + i)) for i in range(20)])
    # No sample falls inside [0.51, 0.52]: the nearest MIN_SAMPLES are used.
    window = host.slowdown(0.51, 0.52)
    assert 1.0 < window < 20.0


def test_no_samples_is_an_error():
    with pytest.raises(RuntimeError):
        HostSpeed().slowdown(0.0, 1.0)


def test_sampler_records_while_work_runs():
    host = HostSpeed().start()
    try:
        while len(host.costs) < 3:
            sum(i * i for i in range(20_000))
    finally:
        host.stop()
    assert all(cost > 0 for cost in host.costs)
