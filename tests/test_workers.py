"""The split that ``write_columns`` and ``train`` share, checked once against
``workers`` itself with work that costs nothing: a share's items written as
bytes."""

import io
import os
import tempfile

import pytest

from modegap.workers import WorkerError, run, split

SHARES = [range(0, 3), range(3, 7), range(7, 10)]


def at_cores(monkeypatch, cores):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))


def write(share, out):
    out.write(bytes(share))


def name(share):
    return f"writing items {share[0]}-{share[-1]}"


def forks_through(monkeypatch, refuse=(), error=OSError):
    """Count the calls to ``os.fork``; the calls numbered in ``refuse``
    (from 1) raise ``error`` instead of forking."""
    calls, fork = [], os.fork

    def spy():
        calls.append(None)
        if len(calls) in refuse:
            raise error("fork refused")
        return fork()
    monkeypatch.setattr(os, "fork", spy)
    return calls


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_shares_join_back_into_the_items(monkeypatch):
    """Contiguous shares, in order, each of the items' type: one per core, at
    most one per item and one per ``floor`` of work, and at least one."""
    for cores in (1, 2, 3, 4):
        at_cores(monkeypatch, cores)
        for n in range(10):
            for cost in (1, 2, 3):
                for floor in (1, 2, 5, 7):
                    for items in (range(n), tuple(range(n)), list(range(n)), bytes(range(n))):
                        shares = split(items, cost, floor)
                        assert len(shares) == max(1, min(cores, n, n * cost // floor))
                        assert all(type(share) is type(items) for share in shares)
                        assert [i for share in shares for i in share] == list(items)


def test_split_of_a_sweep(monkeypatch):
    """The shares of ten seeds on three cores, at the per-seed costs of the
    default xor sweep (80), the documented moons sweep (1,024) and a
    one-level moons stack (512), with ``train``'s floor of 4,096."""
    at_cores(monkeypatch, 3)
    seeds = tuple(range(10))
    assert split(seeds, 80, 4096) == [seeds]
    assert split(seeds, 1024, 4096) == [seeds[:5], seeds[5:]]
    assert split(seeds[:8], 512, 4096) == [seeds[:8]]
    assert split(seeds[:3], 512, 4096) == [seeds[:3]]
    assert split((7, 0, 0), 16, 1) == [(7,), (0,), (0,)]
    assert split((3, 1), 16, 1) == [(3,), (1,)]


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_run_appends_every_share_in_order(tmp_path, monkeypatch, cores):
    """What ``out`` held before the call appears once, then every share in
    order; every share but the first is computed by a forked worker."""
    at_cores(monkeypatch, cores)
    forks = forks_through(monkeypatch)
    shares = split(range(10), 1, 1)
    with open(tmp_path / "out", "wb") as out:
        out.write(b"head")
        run(shares, write, out, name, tmp_path)
    assert (tmp_path / "out").read_bytes() == b"head" + bytes(range(10))
    assert len(forks) == len(shares) - 1 == cores - 1
    assert_no_child_left()


def test_a_single_share_forks_nothing(monkeypatch):
    forks = forks_through(monkeypatch)
    out = io.BytesIO()
    run([range(10)], write, out, name)
    assert out.getvalue() == bytes(range(10))
    assert forks == []


@pytest.mark.parametrize("refuse", [(1, 2), (1,)], ids=["every", "first"])
def test_a_refused_fork_is_computed_by_the_caller(tmp_path, monkeypatch, refuse):
    """Every fork refused, or only the first of two: the caller computes each
    refused share in its place, and the bytes do not change."""
    caller, computed = os.getpid(), []

    def recording(share, out):
        if os.getpid() == caller:
            computed.append(share)
        write(share, out)
    forks = forks_through(monkeypatch, refuse)
    out = io.BytesIO()
    run(SHARES, recording, out, name, tmp_path)
    assert out.getvalue() == bytes(range(10))
    assert len(forks) == 2
    assert computed == [SHARES[0]] + [SHARES[i] for i in refuse]
    assert_no_child_left()


@pytest.mark.parametrize("broken", [1, 2])
def test_a_broken_fork_closes_its_file_and_propagates(tmp_path, monkeypatch, broken):
    """A fork that raises anything but OSError, the first or the second:
    the error propagates, the worker already forked is reaped, and every
    unnamed file is closed."""
    made, temporary_file = [], tempfile.TemporaryFile

    def recording(**kwargs):
        made.append(temporary_file(**kwargs))
        return made[-1]
    monkeypatch.setattr(tempfile, "TemporaryFile", recording)
    forks = forks_through(monkeypatch, (broken,), RuntimeError)
    with pytest.raises(RuntimeError, match="fork refused"):
        run(SHARES, write, io.BytesIO(), name, tmp_path)
    assert len(forks) == len(made) == broken
    assert all(part.closed for part in made)
    assert_no_child_left()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("directory", ["given", None])
@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_a_failure_leaves_no_worker_and_no_file(tmp_path, monkeypatch, failing, directory):
    """A worker whose work raises makes the caller raise ``WorkerError``
    naming that worker's work and its exit code, 1; a caller whose own work
    raises gets its own error back, and its workers are killed.  Either way
    no worker is left unreaped and no file is left in the directory, the
    given one or the default temporary directory."""
    caller = os.getpid()

    def failing_work(share, out):
        if (os.getpid() == caller) == (failing == "caller"):
            raise RuntimeError("work failed")
        write(share, out)
    if directory is None:
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    with pytest.raises(RuntimeError) as caught:
        run(SHARES, failing_work, io.BytesIO(), name, tmp_path if directory else None)
    if failing == "worker":
        assert caught.type is WorkerError
        assert str(caught.value) == "the worker writing items 3-6 exited with 1"
    else:
        assert caught.type is RuntimeError and str(caught.value) == "work failed"
    assert_no_child_left()
    assert list(tmp_path.iterdir()) == []
