"""Times are corrected for the host's speed by the reference kernel."""

import gc

from perfbench import run


def test_scaled_times_and_rates_move_opposite_ways():
    # a host slower than nominal (scale below one): walls shrink, rates grow
    scale = 0.5
    assert run._scaled("verify_cold_s", 4.0, scale) == 2.0
    assert run._scaled("queue_trials_per_s", 100.0, scale) == 200.0


def test_reference_kernel_leaves_the_collector_on():
    assert gc.isenabled()
    assert 0 < run.reference_s() < 10
    assert gc.isenabled()
