"""The process pool under `run_suite`: its size, its workers' lifetime, its inputs."""
import functools
import multiprocessing
import os
import signal
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest

from selfpaced import bench
from selfpaced.bench import BenchConfig, run_suite

TINY = dict(methods=("rand-under", "spe"), repeats=2, n_minority=15, n_majority=90,
            n_estimators=2, seed=6)


def force_workers(monkeypatch, workers):
    monkeypatch.setattr(bench, "_workers", lambda cells: workers)


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity mask")
def test_pool_size_follows_the_affinity_mask_and_the_cells():
    cpus = len(os.sched_getaffinity(0))
    assert bench._workers(1000) == cpus
    assert bench._workers(1) == 1


def test_a_process_with_other_threads_runs_its_cells_in_process():
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert bench._workers(1000) == 1
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_a_suite_that_raises_leaves_no_worker(monkeypatch):
    force_workers(monkeypatch, 2)

    def failing_points(config):
        raise RuntimeError("no boards")
        yield  # a generator, as `_sweep_points` is

    monkeypatch.setattr(bench, "_sweep_points", failing_points)
    with pytest.raises(RuntimeError, match="no boards"):
        run_suite(BenchConfig(**TINY))
    assert multiprocessing.active_children() == []


def test_a_cell_that_raises_past_its_error_record_leaves_no_worker(monkeypatch):
    # `_cell` records an Exception; anything else stops the suite.
    force_workers(monkeypatch, 2)

    def interrupted(*args):
        raise KeyboardInterrupt("stop")

    monkeypatch.setattr(bench, "_fit_and_score", interrupted)
    with pytest.raises(KeyboardInterrupt, match="stop"):
        run_suite(BenchConfig(**TINY))
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_stops_the_suite_and_leaves_no_worker(monkeypatch):
    force_workers(monkeypatch, 2)
    parent = os.getpid()

    def killed(*args):
        assert os.getpid() != parent, "the cell ran in process"
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(bench, "_fit_and_score", killed)
    with pytest.raises(BrokenProcessPool):
        run_suite(BenchConfig(**TINY))
    assert multiprocessing.active_children() == []


def test_a_traced_suite_runs_its_cells_in_process(monkeypatch):
    # A tracer that wraps this module's fit_method records spans only in its
    # own process, so the cells stay there.
    traced = functools.wraps(bench.fit_method)(lambda *args, **kwargs: None)
    monkeypatch.setattr(bench, "fit_method", traced)
    assert bench._workers(1000) == 1


def test_workers_take_a_config_that_cannot_be_pickled(monkeypatch):
    # The config reaches the workers through the fork, so a lambda hardness
    # runs there as it does in process.
    config = BenchConfig(**TINY, hardness=lambda p, y: abs(p - y))
    rows = {}
    for workers in (1, 2):
        force_workers(monkeypatch, workers)
        rows[workers] = run_suite(config)
        assert multiprocessing.active_children() == []
    assert not any(row.errors for row in rows[2])
    assert rows[1] == rows[2]
