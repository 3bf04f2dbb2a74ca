"""Forked workers (``hssmmc.workers``) and the exports that run on them:
``simulate-closed``'s phase legs and both simulations' trajectory.csv."""

import os

import numpy as np
import pytest

from hssmmc import workers
from hssmmc.cli import main
from hssmmc.errors import NumericalBlowupError

from test_cli import FAST, fast_config_with_step


def assert_no_worker_left(out=None):
    """Every child is reaped, and no part file is left in ``out``."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    if out is not None:
        assert not [p.name for p in out.iterdir() if ".part" in p.name]


@pytest.fixture()
def forks(monkeypatch):
    """The number of processes forked so far."""
    count = [0]
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            count[0] += 1
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return count


def failing_fork_after(allowed):
    """``os.fork`` that forks ``allowed`` times, then raises BlockingIOError
    as a fork under a process limit does."""
    fork, left = os.fork, [allowed]

    def limited():
        if left[0] == 0:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        left[0] -= 1
        return fork()

    return limited


def run(monkeypatch, tmp_path, scenario, config, cpus):
    """Exit code and output directory of ``scenario`` with the usable-CPU
    check reading ``cpus``: 1 runs everything inline."""
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    out = tmp_path / f"{scenario}-{cpus}"
    code = main([scenario, "--config", config, "--out", str(out), "--no-timestamp"])
    assert_no_worker_left(out)
    return code, out


class TestForkMap:
    def test_items_after_the_first_run_in_children_and_results_keep_their_order(self, monkeypatch):
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        assert workers.fork_map(lambda x: x * x, range(5)) == [0, 1, 4, 9, 16]
        pids = workers.fork_map(lambda _: os.getpid(), range(3))
        assert pids[0] == os.getpid()
        assert len(set(pids)) == 3
        assert_no_worker_left()

    def test_inline_with_one_usable_cpu(self, monkeypatch, forks):
        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
        assert workers.fork_map(lambda _: os.getpid(), range(3)) == [os.getpid()] * 3
        assert forks[0] == 0

    def test_children_write_shared_memory(self, monkeypatch):
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        shared = workers.shared_empty((4, 3))

        def fill(column):
            shared[:, column] = column + np.arange(4)

        workers.fork_map(fill, range(3))
        assert np.array_equal(shared, np.arange(3) + np.arange(4)[:, None])

    def test_the_first_failing_item_is_raised_with_its_type_and_message(self, monkeypatch):
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)

        def fail_from_two(x):
            if x >= 2:
                raise NumericalBlowupError(f"item {x}")
            return x

        with pytest.raises(NumericalBlowupError, match="^item 2$"):
            workers.fork_map(fail_from_two, range(5))
        assert_no_worker_left()

    def test_a_failing_first_item_kills_and_reaps_the_children(self, monkeypatch):
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)

        def first_fails(x):
            if x == 0:
                raise NumericalBlowupError("first")
            os.read(os.pipe()[0], 1)  # blocks until killed

        with pytest.raises(NumericalBlowupError, match="^first$"):
            workers.fork_map(first_fails, range(3))
        assert_no_worker_left()

    @pytest.mark.parametrize("forks_allowed", [0, 1])
    def test_items_whose_fork_fails_run_here_in_order(self, monkeypatch, forks_allowed):
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        monkeypatch.setattr(os, "fork", failing_fork_after(forks_allowed))
        pids = workers.fork_map(lambda _: os.getpid(), range(4))
        assert pids[0] == pids[2] == pids[3] == os.getpid()
        assert (pids[1] != os.getpid()) == (forks_allowed == 1)
        assert workers.fork_map(lambda x: x * x, range(4)) == [0, 1, 4, 9]
        assert_no_worker_left()

    def test_a_child_that_dies_is_a_child_process_error(self, monkeypatch):
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        with pytest.raises(ChildProcessError):
            workers.fork_map(lambda x: os._exit(7) if x else x, range(2))
        assert_no_worker_left()


class TestExportsWithWorkers:
    @pytest.mark.parametrize("step", [None, (4, "b"), (10, "a"), (12, "c")])
    def test_simulate_closed_writes_the_same_bytes_with_and_without_workers(
        self, monkeypatch, tmp_path, forks, step
    ):
        # total_periods = 10: steps at period 10 and 12 come at or after the
        # end of the run.
        config = tmp_path / "fast.ini"
        config.write_text(FAST, encoding="utf-8")
        config = str(config) if step is None else fast_config_with_step(tmp_path, *step)
        code, inline = run(monkeypatch, tmp_path, "simulate-closed", config, 1)
        assert code == 0 and forks[0] == 0
        code, forked = run(monkeypatch, tmp_path, "simulate-closed", config, 3)
        # Legs b and c, and the second of two row ranges.
        assert code == 0 and forks[0] == 3
        for name in ("trajectory.csv", "report.txt"):
            assert (forked / name).read_bytes() == (inline / name).read_bytes()

    def test_simulate_open_writes_the_same_bytes_with_and_without_workers(
        self, monkeypatch, tmp_path, forks
    ):
        config = tmp_path / "fast.ini"
        config.write_text(FAST, encoding="utf-8")
        code, inline = run(monkeypatch, tmp_path, "simulate-open", str(config), 1)
        assert code == 0 and forks[0] == 0
        code, forked = run(monkeypatch, tmp_path, "simulate-open", str(config), 2)
        assert code == 0 and forks[0] == 1
        assert sorted(p.name for p in forked.iterdir()) == sorted(p.name for p in inline.iterdir())
        for path in inline.iterdir():
            assert (forked / path.name).read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("forks_allowed", [0, 1])
    def test_failed_forks_write_the_same_bytes(self, monkeypatch, tmp_path, forks_allowed):
        # The legs' and the row ranges' forks fail, or all but the first.
        config = fast_config_with_step(tmp_path, 4, "b")
        _, inline = run(monkeypatch, tmp_path, "simulate-closed", config, 1)
        monkeypatch.setattr(os, "fork", failing_fork_after(forks_allowed))
        code, forked = run(monkeypatch, tmp_path, "simulate-closed", config, 3)
        assert code == 0
        for name in ("trajectory.csv", "report.txt"):
            assert (forked / name).read_bytes() == (inline / name).read_bytes()

    def test_a_failing_row_range_leaves_no_part_file(self, monkeypatch, tmp_path):
        # The second of two row ranges holds a value %.12g cannot format, so
        # the worker that writes its part file fails.
        from hssmmc.reports import write_trajectory_csv
        from hssmmc.simulate import Trajectory

        monkeypatch.setattr(workers, "usable_cpus", lambda: 3)
        states = np.zeros((9, 2), dtype=object)
        states[-1, -1] = "not a number"
        with pytest.raises(TypeError):
            write_trajectory_csv(tmp_path / "trajectory.csv", Trajectory(0.1, 4, 0, states), ["x", "y"], False)
        assert_no_worker_left(tmp_path)

    def test_a_leg_that_blows_up_in_a_worker_exits_3_without_a_traceback(
        self, monkeypatch, tmp_path, capsys
    ):
        # A 1e15 V step on phase b drives leg b, which a worker runs, past
        # the blow-up bound within a period; legs a and c stay bounded.
        config = tmp_path / "blowup.ini"
        config.write_text(FAST + "\n[step]\nperiod = 4\nphase = b\namplitude = 1e15\n", encoding="utf-8")
        errors = []
        for cpus in (1, 3):
            code, _ = run(monkeypatch, tmp_path, "simulate-closed", str(config), cpus)
            assert code == 3
            errors.append(capsys.readouterr().err)
        assert errors[1] == errors[0]
        assert errors[1].startswith("numerical failure: NumericalBlowupError: state magnitude ")
        assert "period 5" in errors[1]
        assert "Traceback" not in errors[1]
