"""The speed probe's scaling: an interval's time at the reference speed.

    PYTHONPATH=src python -m pytest perfbench/test_speed.py   # from the repository root
"""

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import speed  # noqa: E402


def _probe(starts, durations):
    probe = speed.SpeedProbe()
    probe.starts, probe.durations = list(starts), list(durations)
    return probe


def test_reference_speed_leaves_time_unchanged():
    probe = _probe([k * 0.01 for k in range(100)], [speed.REF_KERNEL_S] * 100)
    assert probe.scaled(0.2, 0.7) == pytest.approx(0.5)


def test_slow_host_scales_time_down():
    # the kernel ran 1.8x slower than its reference: 0.9 s of wall time is
    # 0.5 s of work at the reference speed
    probe = _probe([k * 0.01 for k in range(100)], [1.8 * speed.REF_KERNEL_S] * 100)
    assert probe.scaled(0.0, 0.9) == pytest.approx(0.5)


def test_speed_is_averaged_over_the_interval():
    # half the interval fast, half 2x slow: mean speed 0.75 of the reference
    durations = [speed.REF_KERNEL_S] * 50 + [2 * speed.REF_KERNEL_S] * 50
    probe = _probe([k * 0.01 for k in range(100)], durations)
    assert probe.scaled(0.0, 0.995) == pytest.approx(0.995 * 0.75)


def test_short_interval_uses_window_around_it():
    # a 10 ms op between kernels is scaled by the kernels of the 0.2 s around it
    durations = [2 * speed.REF_KERNEL_S] * 100
    probe = _probe([k * 0.01 for k in range(100)], durations)
    assert probe.scaled(0.503, 0.513) == pytest.approx(0.005)


def test_too_few_kernels_is_an_error():
    probe = _probe([0.0, 5.0], [speed.REF_KERNEL_S] * 2)
    with pytest.raises(RuntimeError):
        probe.scaled(1.0, 2.0)


def test_probe_records_kernels_while_entered():
    with speed.SpeedProbe() as probe:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    n = len(probe.durations)
    time.sleep(0.05)
    assert n >= 5 and len(probe.durations) == n
    assert all(d > 0 for d in probe.durations)
