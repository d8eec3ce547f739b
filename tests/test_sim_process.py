"""Unit tests for CPU resources and simulated processes."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.process import CpuResource, SimProcess


def test_single_core_serialises_jobs():
    sim = Simulator()
    cpu = CpuResource(sim, cores=1)
    done = []
    cpu.submit(1.0, lambda: done.append(("a", sim.now)))
    cpu.submit(1.0, lambda: done.append(("b", sim.now)))
    sim.run_until_idle()
    assert done == [("a", 1.0), ("b", 2.0)]


def test_multi_core_runs_jobs_in_parallel():
    sim = Simulator()
    cpu = CpuResource(sim, cores=2)
    done = []
    cpu.submit(1.0, lambda: done.append(sim.now))
    cpu.submit(1.0, lambda: done.append(sim.now))
    cpu.submit(1.0, lambda: done.append(sim.now))
    sim.run_until_idle()
    assert done == [1.0, 1.0, 2.0]


def test_fifo_ordering_of_queued_jobs():
    sim = Simulator()
    cpu = CpuResource(sim, cores=1)
    done = []
    for label, duration in (("first", 0.5), ("second", 0.1), ("third", 0.2)):
        cpu.submit(duration, lambda label=label: done.append(label))
    sim.run_until_idle()
    assert done == ["first", "second", "third"]


def test_zero_cost_job_completes_immediately():
    sim = Simulator()
    cpu = CpuResource(sim, cores=1)
    done = []
    cpu.submit(0.0, lambda: done.append("now"))
    assert done == ["now"]
    assert cpu.jobs_done == 0  # zero-cost jobs do not occupy the core


def test_busy_time_and_utilisation():
    sim = Simulator()
    cpu = CpuResource(sim, cores=2)
    cpu.submit(1.0, lambda: None)
    cpu.submit(3.0, lambda: None)
    sim.run_until_idle()
    assert cpu.busy_time == pytest.approx(4.0)
    assert cpu.utilisation(elapsed=4.0) == pytest.approx(0.5)
    assert cpu.utilisation(elapsed=0.0) == 0.0
    assert cpu.jobs_done == 2


def test_negative_service_time_rejected():
    sim = Simulator()
    cpu = CpuResource(sim, cores=1)
    with pytest.raises(SimulationError):
        cpu.submit(-1.0, lambda: None)


def test_cpu_requires_at_least_one_core():
    with pytest.raises(SimulationError):
        CpuResource(Simulator(), cores=0)


class _Recorder(SimProcess):
    def __init__(self, sim, cores=None):
        super().__init__(sim, "recorder", "us-west-1", cores=cores)
        self.messages = []

    def on_message(self, message, sender):
        self.messages.append((message, sender))


def test_process_without_cpu_runs_immediately():
    sim = Simulator()
    proc = _Recorder(sim, cores=None)
    done = []
    proc.process(5.0, lambda: done.append(sim.now))
    assert done == [0.0]


def test_process_with_cpu_consumes_time():
    sim = Simulator()
    proc = _Recorder(sim, cores=1)
    done = []
    proc.process(0.5, lambda: done.append(sim.now))
    sim.run_until_idle()
    assert done == [0.5]


def test_process_parallel_divides_by_usable_cores():
    sim = Simulator()
    proc = _Recorder(sim, cores=4)
    done = []
    proc.process_parallel(4.0, parallelism=8, on_done=lambda: done.append(sim.now))
    sim.run_until_idle()
    assert done == [pytest.approx(1.0)]


def test_process_parallel_limited_by_parallelism():
    sim = Simulator()
    proc = _Recorder(sim, cores=8)
    done = []
    proc.process_parallel(4.0, parallelism=2, on_done=lambda: done.append(sim.now))
    sim.run_until_idle()
    assert done == [pytest.approx(2.0)]


def test_set_timer_is_cancellable():
    sim = Simulator()
    proc = _Recorder(sim)
    hits = []
    timer = proc.set_timer(1.0, hits.append, "late")
    timer.cancel()
    sim.run_until_idle()
    assert hits == []


def test_speed_factor_stretches_service_time():
    sim = Simulator()
    cpu = CpuResource(sim, cores=1)
    done = []
    cpu.set_speed_factor(3.0)
    assert cpu.speed_factor == 3.0
    cpu.submit(0.1, lambda: done.append(sim.now))
    sim.run_until_idle()
    assert done == [pytest.approx(0.3)]
    # Restoring full speed affects only jobs submitted afterwards.
    cpu.set_speed_factor(1.0)
    cpu.submit(0.1, lambda: done.append(sim.now))
    sim.run_until_idle()
    assert done[-1] == pytest.approx(0.4)


def test_speed_factor_must_be_positive():
    cpu = CpuResource(Simulator(), cores=1)
    with pytest.raises(SimulationError):
        cpu.set_speed_factor(0.0)


def test_process_starts_and_queues_jobs_exactly_like_submit():
    """``SimProcess.process`` writes ``CpuResource.submit``'s start-or-queue
    step out inline: same completions, queueing, accounting and slow-down."""

    def drive(use_process: bool):
        sim = Simulator()
        proc = _Recorder(sim, cores=2)
        cpu = proc.cpu
        enqueue = proc.process if use_process else cpu.submit
        done = []
        enqueue(0.0, done.append, ("zero", 0.0))  # free: runs at once, no core taken
        for label, duration in (("a", 0.3), ("b", 0.1), ("c", 0.2), ("d", 0.4)):
            enqueue(duration, lambda label=label: done.append((label, sim.now)))
        queued_at_start = (cpu.busy_cores, cpu.queued_jobs)
        cpu.set_speed_factor(2.0)
        enqueue(0.05, done.append, ("slowed", None))
        sim.run_until_idle()
        return done, queued_at_start, cpu.busy_time, cpu.jobs_done, cpu.busy_cores, sim.now

    via_process, via_submit = drive(True), drive(False)
    assert via_process == via_submit
    assert via_process[1] == (2, 2) and via_process[3] == 5
