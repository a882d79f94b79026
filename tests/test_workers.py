"""The split that ``write_columns`` and ``train`` share, and each rule of
``workers.run`` checked once over every caller: ``workers.run`` itself, with
work that writes a share's items as bytes, ``write_columns`` and ``train``."""

import dataclasses
import functools
import io
import sys
from typing import Callable, NamedTuple

import numpy as np
import pytest

from modegap import Grid, TrainReport, network, reconstruct, spectral, uniform_channel
from modegap.spectral import _CHUNK_ROWS, write_columns
from modegap.workers import WorkerError, cores, run, split


def test_shares_join_back_into_the_items(harness):
    """Contiguous shares, in order, each of the items' type: one per core, at
    most one per item and one per ``floor`` of work, and at least one."""
    for count in (1, 2, 3, 4):
        harness.cores(count)
        for n in range(10):
            for cost in (1, 2, 3):
                for floor in (1, 2, 5, 7):
                    for items in (range(n), tuple(range(n)), list(range(n)), bytes(range(n))):
                        shares = split(items, cost, floor)
                        assert len(shares) == max(1, min(count, n, n * cost // floor))
                        assert all(type(share) is type(items) for share in shares)
                        assert [i for share in shares for i in share] == list(items)


def test_split_of_a_sweep(harness):
    """The shares of ten seeds on three cores, at the per-seed costs of the
    default xor sweep (80), the documented moons sweep (1,024) and a
    one-level moons stack (512), with ``train``'s floor of 4,096."""
    harness.cores(3)
    seeds = tuple(range(10))
    assert split(seeds, 80, 4096) == [seeds]
    assert split(seeds, 1024, 4096) == [seeds[:5], seeds[5:]]
    assert split(seeds[:8], 512, 4096) == [seeds[:8]]
    assert split(seeds[:3], 512, 4096) == [seeds[:3]]
    assert split((7, 0, 0), 16, 1) == [(7,), (0,), (0,)]
    assert split((3, 1), 16, 1) == [(3,), (1,)]


def write(share, out):
    out.write(bytes(share))


def write_items(directory):
    """Ten items after a header, through ``workers.run`` alone."""
    def name(share):
        return f"writing items {share[0]}-{share[-1]}"
    with open(directory / "out", "wb") as out:
        out.write(b"head")
        # ``write`` is looked up at each call, so that a spy put on it is the one called
        run(split(range(10), 1, 1), lambda share, out: write(share, out), out, name, directory)
    return (directory / "out").read_bytes()


ROWS = 2 * _CHUNK_ROWS + 1          # three chunks, the last of one row


def write_table(directory):
    write_columns(directory / "out", ["i"], [np.arange(ROWS)])
    return (directory / "out").read_bytes()


def report_bytes(report):
    """Every field of a report, each array as its shape, dtype and bytes."""
    arrays = [getattr(report, f.name) for f in dataclasses.fields(TrainReport)
              if f.name not in ("seeds", "weights")]
    arrays += [a for layer in report.weights for a in layer]
    return report.seeds, [(a.shape, a.dtype.str, a.tobytes()) for a in arrays]


@functools.cache
def stack():
    return reconstruct(uniform_channel(Grid(40.0, 4096), [0.5, 1.0]))


SEEDS = (4, 9, 4)                   # xor seeds, one duplicated, at the stack's two levels


def train_stack(directory):
    return report_bytes(network.train("xor", stack(), SEEDS))


@functools.cache
def trained_in_one_call():
    return report_bytes(network._train("xor", stack(), SEEDS))


class Caller(NamedTuple):
    job: Callable          # job(directory) runs the caller's job there; its output
    reference: Callable    # the job's output, computed in one process without workers.run
    work: tuple            # (owner, name) of the function that computes one share
    share: Callable        # share(args) of a call of that function -> the share, a tuple
    shares: list           # the job's shares on three cores
    failed: str            # the WorkerError when the job's worker fails on two cores


CALLERS = {
    "workers.run": Caller(
        write_items, lambda: b"head" + bytes(range(10)), (sys.modules[__name__], "write"),
        lambda args: tuple(args[0]), [(0, 1, 2), (3, 4, 5), (6, 7, 8, 9)],
        "the worker writing items 5-9 exited with 1"),
    "write_columns": Caller(
        write_table, lambda: b"i\r\n" + b"".join(b"%d\r\n" % i for i in range(ROWS)),
        (spectral, "_write_rows"), lambda args: tuple(args[2]),
        [(0,), (_CHUNK_ROWS,), (2 * _CHUNK_ROWS,)],
        # on two cores the worker's share is the last two chunks, named up to the last row
        "the worker formatting rows 8192-16384 of {directory}/out exited with 1"),
    "train": Caller(
        train_stack, trained_in_one_call, (network, "_train"), lambda args: args[2], [(4,), (9,), (4,)],
        "the worker training seeds 9,4 exited with 1"),
}
callers = pytest.mark.parametrize("caller", CALLERS.values(), ids=list(CALLERS))


@pytest.fixture
def directory(tmp_path):
    (tmp_path / "job").mkdir()
    return tmp_path / "job"


@callers
@pytest.mark.parametrize("count", [1, 2, 3])
def test_output_does_not_depend_on_the_core_count(directory, harness, caller, count):
    """On 1, 2 or 3 cores the job runs in as many shares, every share but
    the first in a forked worker, so one share forks nothing; its output is
    the one-process output."""
    harness.cores(count)
    assert caller.job(directory) == caller.reference()
    assert len(harness.forks) == count - 1
    harness.assert_nothing_left()


def test_a_single_share_forks_nothing(harness):
    """One share on three cores, and no directory for parts: the caller
    computes it alone."""
    harness.cores(3)
    out = io.BytesIO()
    run([range(10)], write, out, str)
    assert out.getvalue() == bytes(range(10))
    assert harness.forks == []


@callers
@pytest.mark.parametrize("refuse", [(1,), (2,), (1, 2)], ids=["first", "last", "every"])
def test_a_refused_fork_is_computed_by_the_caller(directory, harness, caller, refuse):
    """Three shares, the first fork refused (the caller then computes the
    middle share), the last, or every one: the caller computes each refused
    share in its place, and the output does not change."""
    expected = caller.reference()
    harness.cores(3)
    harness.refuse(*refuse)
    computed = harness.spy(*caller.work)
    assert caller.job(directory) == expected
    assert len(harness.forks) == 2
    assert [caller.share(args) for args in computed] == \
        [caller.shares[i] for i in (0, *refuse)]
    harness.assert_nothing_left()


@callers
@pytest.mark.parametrize("broken", [1, 2])
def test_a_broken_fork_closes_its_file_and_propagates(directory, harness, caller, broken):
    """A fork that raises anything but OSError, the first or the second: the
    error propagates, the worker already forked is reaped, and every part
    file is closed."""
    harness.cores(3)
    harness.refuse(broken, error=RuntimeError)
    with pytest.raises(RuntimeError, match="fork refused"):
        caller.job(directory)
    assert len(harness.forks) == len(harness.parts) == broken
    harness.assert_nothing_left()


@callers
@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_a_failure_leaves_no_worker_and_no_file(directory, harness, caller, failing):
    """Two shares.  A worker whose work raises makes the caller raise
    ``WorkerError`` naming that worker's work and its exit code, 1; a caller
    whose own work raises gets its own error back, and its worker is killed.
    Either way no worker and no part file is left, and the job's directory
    holds at most its own output."""
    harness.cores(2)
    harness.spy(*caller.work, fail=failing)
    with pytest.raises(RuntimeError) as caught:
        caller.job(directory)
    if failing == "worker":
        assert caught.type is WorkerError
        assert str(caught.value) == caller.failed.format(directory=directory)
    else:
        assert caught.type is RuntimeError and str(caught.value) == "work failed"
    harness.assert_nothing_left()
    assert [p.name for p in directory.iterdir()] in ([], ["out"])


@callers
@pytest.mark.parametrize("missing", ["sched_getaffinity", "fork"])
def test_a_platform_without_fork_computes_alone(directory, harness, caller, missing):
    """Where ``os.sched_getaffinity`` or ``os.fork`` is missing, the process
    has one core and the caller computes the whole job."""
    harness.cores(3)
    harness.without(missing)
    assert cores() == 1
    assert caller.job(directory) == caller.reference()
    assert harness.forks == []


@pytest.mark.parametrize("caller", [CALLERS["write_columns"], CALLERS["train"]],
                         ids=["write_columns", "train"])
def test_no_thread_is_started_before_a_fork(directory, harness, caller):
    """The fork on two cores sees the OS threads that the test started with
    (after ``import numpy``, the OpenBLAS pool's: 2, or 1 with
    ``OPENBLAS_NUM_THREADS=1``): the package starts none of its own."""
    harness.cores(2)
    threads = harness.thread_count()
    assert caller.job(directory) == caller.reference()
    assert harness.forks == [threads]
