import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # the benchmark's modules

from profiles import MIN_ROUNDS  # noqa: E402
from run import END_TO_END  # noqa: E402
from workload import (LATENCIES, MIN_TAIL, RATES, Stage, percentile,  # noqa: E402
                      scale_to_reference)


def test_p90_needs_ten_samples_beyond_it():
    samples = list(range(1, 101))
    assert percentile(samples, 90) == 90          # 10 samples lie beyond
    assert percentile(samples[:99], 90) is None   # only 9 would
    assert MIN_TAIL == 10


def test_p50_and_order_independence():
    assert percentile([5, 1, 4, 2, 3] * 4, 50) == 3
    assert percentile(list(range(19)), 50) is None
    assert percentile(list(range(20)), 50) == 9


def test_rate_is_total_work_over_total_time():
    stage = Stage(None, None, {}, None)
    for work, seconds in [(10, 1.0), (10, 2.0), (20, 3.0)]:
        stage.add("docs_per_s", work, seconds)
    assert stage.rate("docs_per_s") == 40 / 6.0


def test_scaling_speeds_rates_up_and_times_down_and_leaves_the_rest():
    measured = dict.fromkeys(RATES, 3.0) | dict.fromkeys(LATENCIES, 3.0)
    measured |= {"setup_s": 2.0, "train_loss": 1.5, "peak_rss_mb": 200.0}
    scaled = scale_to_reference(measured, 1.5, 2.0)
    assert all(scaled[name] == 4.5 for name in RATES)
    assert all(scaled[name] == 2.0 for name in LATENCIES)
    assert (scaled["setup_s"], scaled["train_loss"], scaled["peak_rss_mb"]) == (1.0, 1.5, 200.0)
    assert set(RATES) | set(LATENCIES) | {"setup_s", "train_loss", "peak_rss_mb"} == set(END_TO_END)


def test_a_stage_is_done_after_whole_rounds_only():
    stage = Stage(None, None, {}, None)
    stage.units = 2
    for ops, done in [(2 * MIN_ROUNDS - 1, False), (2 * MIN_ROUNDS, True),
                      (2 * MIN_ROUNDS + 1, False), (2 * MIN_ROUNDS + 2, True)]:
        stage.ops = ops
        assert stage.done() is done
