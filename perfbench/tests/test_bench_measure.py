import pytest

from run import TAIL_BEYOND, TAIL_LADDER, tail_percentile


@pytest.mark.parametrize(
    "n_ops, expected",
    [(10000, 99.9), (9999, 99.0), (1000, 99.0), (999, 90.0), (100, 90.0), (99, 75.0), (40, 75.0), (39, 50.0), (20, 50.0)],
)
def test_ladder_steps(n_ops, expected):
    assert tail_percentile(n_ops) == expected


def test_highest_ladder_step_with_ten_beyond():
    for n in range(20, 5000):
        p = tail_percentile(n)
        assert n * (100.0 - p) / 100.0 >= TAIL_BEYOND - 1e-9
        higher = [q for q in TAIL_LADDER if q > p]
        assert all(n * (100.0 - q) / 100.0 < TAIL_BEYOND - 1e-9 for q in higher)


def test_short_runs_use_the_exact_percentile():
    assert tail_percentile(19) == pytest.approx(100.0 * 9 / 19)
    assert tail_percentile(10) == 0.0
    assert tail_percentile(3) == 0.0


def test_tick_probe_time_is_left_out_of_the_operation(monkeypatch):
    import time

    import run

    probes = []

    class RecordingTickProbe(run.TickProbe):
        def __init__(self):
            super().__init__()
            probes.append(self)

    monkeypatch.setattr(run, "TickProbe", RecordingTickProbe)

    class Busy:
        expected = None
        window = None

        @staticmethod
        def run():
            start = time.perf_counter()
            for _ in range(1500):  # a fixed amount of work, about 0.5 s on a 2 GHz core
                run.speed_probe(50)
            Busy.window = (start, time.perf_counter())

        @staticmethod
        def check(out, expected):
            return None

    seconds, failure, _, speeds = run.run_op(Busy, tick=True)
    assert failure is None
    (probe,) = probes
    start, end = Busy.window
    tick_time = sum(spent for begun, spent, _ in probe.ticks if start <= begun < end)
    assert len(speeds) >= 1 and tick_time > 0.0
    # without the subtraction the error would be the whole tick time
    assert abs(seconds - ((end - start) - tick_time)) < 0.25 * tick_time
