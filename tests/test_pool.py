import os
import warnings

import pytest

from vcpde import pool
from vcpde.pool import Workers


@pytest.fixture(params=[1, 2], ids=["inline", "forked"])
def n_workers(request, monkeypatch):
    monkeypatch.setattr(pool, "worker_count", lambda n_tasks: request.param)
    return request.param


def run_all(workers, tasks):
    for task in tasks:
        workers.submit(task)
    done = {}
    while len(done) < len(tasks):
        done.update((task, (result, error)) for task, result, error in workers.collect())
    return done


class TestWorkers:
    def test_each_task_comes_back_once_with_its_result(self, n_workers):
        shared = list(range(1000))  # inherited by the workers, never sent

        with Workers(lambda task: sum(shared[:task]), 5) as workers:
            done = run_all(workers, [10, 20, 30, 40, 50])
            assert len(workers.processes) == (n_workers if n_workers > 1 else 0)
        assert done == {n: (sum(range(n)), None) for n in (10, 20, 30, 40, 50)}
        assert not any(p.is_alive() for p in workers.processes)

    def test_a_task_exception_comes_back_as_its_outcome(self, n_workers):
        def run(task):
            if task == 2:
                raise ValueError("no 2")
            return task

        with Workers(run, 3) as workers:
            done = run_all(workers, [1, 2, 3])
        assert done[1] == (1, None) and done[3] == (3, None)
        result, error = done[2]
        assert result is None and isinstance(error, ValueError) and str(error) == "no 2"

    def test_warnings_are_raised_again_in_this_process(self, n_workers):
        def run(task):
            warnings.warn(f"task {task}", UserWarning)
            return task

        with pytest.warns(UserWarning) as caught, Workers(run, 2) as workers:
            run_all(workers, [1, 2])
        assert sorted(str(w.message) for w in caught) == ["task 1", "task 2"]
        assert {w.filename for w in caught} == {__file__}

    def test_a_worker_error_carries_its_traceback(self, monkeypatch):
        monkeypatch.setattr(pool, "worker_count", lambda n_tasks: 2)

        def run(task):
            raise KeyError(task)

        with Workers(run, 2) as workers:
            (_, (_, error)), = run_all(workers, [7]).items()
        assert isinstance(error, KeyError) and error.args == (7,)
        assert "raised in a worker process" in error.__notes__[-1]
        assert "raise KeyError(task)" in error.__notes__[-1]

    def test_more_workers_than_cores_lose_no_task(self, monkeypatch):
        monkeypatch.setattr(pool, "worker_count", lambda n_tasks: 2 * os.cpu_count())
        tasks = list(range(200))
        with Workers(lambda task: task * task, len(tasks)) as workers:
            done = run_all(workers, tasks)
        assert done == {task: (task * task, None) for task in tasks}
        assert not any(p.is_alive() for p in workers.processes)

    def test_an_outcome_that_does_not_pickle_is_an_error(self, monkeypatch):
        monkeypatch.setattr(pool, "worker_count", lambda n_tasks: 2)
        with Workers(lambda task: (lambda: task), 2) as workers:
            done = run_all(workers, [1, 2])
        assert all(isinstance(error, RuntimeError) and "sent back" in str(error)
                   for _, error in done.values())

    def test_a_worker_that_dies_is_an_error(self, monkeypatch):
        monkeypatch.setattr(pool, "worker_count", lambda n_tasks: 2)
        with pytest.raises(RuntimeError, match="exited during its task"):
            with Workers(lambda task: os._exit(3), 2) as workers:
                run_all(workers, [1])
        assert not any(p.is_alive() for p in workers.processes)

    def test_one_task_one_cpu_no_fork_or_another_thread_runs_inline(self, monkeypatch):
        assert pool.worker_count(1) == 1
        monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: {0})
        assert pool.worker_count(8) == 1
        monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert pool.worker_count(8) == 3 and pool.worker_count(2) == 2
        monkeypatch.setattr(pool.threading, "active_count", lambda: 2)
        assert pool.worker_count(8) == 1  # never fork a process with another thread running
        monkeypatch.setattr(pool.threading, "active_count", lambda: 1)
        monkeypatch.setattr(pool.multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert pool.worker_count(8) == 1

    def test_workers_opened_inside_a_task_run_it_inline(self, monkeypatch):
        # a worker may not fork children of its own, so its Workers run their tasks in it
        monkeypatch.setattr(pool.os, "sched_getaffinity", lambda pid: {0, 1})

        def run(task):
            with Workers(lambda inner: (inner, os.getpid()), 2) as nested:
                done = run_all(nested, [task, task + 10])
            return len(nested.processes), os.getpid(), done

        with Workers(run, 2) as workers:
            done = run_all(workers, [1, 2])
        assert len(workers.processes) == 2
        for task, (result, error) in done.items():
            assert error is None
            n_nested, pid, nested_done = result
            assert n_nested == 0 and pid != os.getpid()
            assert nested_done == {task: ((task, pid), None), task + 10: ((task + 10, pid), None)}
