"""The pacer's units leave the program clock, scale by their own times, and stop at exit."""

from __future__ import annotations

import signal
import time

import pytest

import reference


def busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        sum(i * i for i in range(500))


def test_units_run_while_armed_and_are_taken_out_of_the_program_clock():
    before = signal.getsignal(signal.SIGALRM)
    pacer = reference.Pacer()
    with pacer:
        w0, t0 = time.perf_counter(), pacer.clock()
        busy(0.5)
        w1, t1 = time.perf_counter(), pacer.clock()
    inside = [took for at, took in zip(pacer.at, pacer.took) if t0 < at < t1]
    assert len(inside) >= 3
    # Wall time minus program time is the handler's time: the units and a few
    # microseconds each of bookkeeping.
    gap = (w1 - w0) - (t1 - t0)
    assert sum(inside) <= gap < sum(inside) + 0.001 * len(inside)

    units = len(pacer.took)
    busy(0.2)
    assert len(pacer.took) == units
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_scale_uses_the_units_near_the_stretch():
    pacer = reference.Pacer()
    margin = reference.MARGIN_S
    pacer.at.extend([0.0, 1.0, 2.0, 2.0 + margin / 2, 5.0])
    pacer.took.extend([0.010, 0.020, 0.030, 0.040, 0.050])
    nominal = reference.UNIT_NOMINAL_S
    # The units at 1.0 and 2.0, and the one within the margin after 2.0.
    assert pacer.scale(1.0, 2.0) == pytest.approx(nominal * 3 / 0.090)
    assert pacer.scale() == pytest.approx(nominal * 5 / 0.150)
    assert pacer.scale(4.0, 5.0 - margin / 2) == pytest.approx(nominal / 0.050)
