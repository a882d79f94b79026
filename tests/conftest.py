"""The process-level harness of every test that computes in forked workers:
``workers.run``, its callers ``write_columns`` and ``train``, and the
commands built on them.  No other test module patches ``os.fork`` or
``os.sched_getaffinity``, or reaps with ``os.waitpid``."""

import os
import tempfile

import pytest

from modegap import cli, network


class Harness:
    """Records the OS thread count at each ``os.fork`` and raises in place of
    the ones refused; records each part file ``tempfile.TemporaryFile`` makes,
    and gives the default temporary directory, where ``train``'s part files
    lie, to this test."""

    def __init__(self, monkeypatch, directory):
        self.monkeypatch, self.directory = monkeypatch, directory
        self.caller = os.getpid()
        self.forks = []      # the thread count at each call of os.fork
        self.refused = {}    # call number, from 1 -> the error raised in place of forking
        self.parts = []
        fork, temporary_file = os.fork, tempfile.TemporaryFile

        def counting_fork():
            self.forks.append(self.thread_count())
            if len(self.forks) in self.refused:
                raise self.refused[len(self.forks)]("fork refused")
            return fork()

        def recording(**kwargs):
            self.parts.append(temporary_file(**kwargs))
            return self.parts[-1]
        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(tempfile, "TemporaryFile", recording)
        monkeypatch.setattr(tempfile, "tempdir", str(directory))

    @staticmethod
    def thread_count():
        """This process's OS threads, from the ``Threads:`` line of
        ``/proc/self/status``; None where that file cannot be read."""
        try:
            with open("/proc/self/status") as status:
                for line in status:
                    if line.startswith("Threads:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return None

    def cores(self, count):
        """``count`` cores, and a training share for every seed however small its stack."""
        self.monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))
        self.monkeypatch.setattr(network, "_SHARE_VALUES", 1)

    def refuse(self, *calls, error=OSError):
        """The calls of ``os.fork`` numbered ``calls`` raise ``error``."""
        self.refused.update(dict.fromkeys(calls, error))

    def without(self, name):
        """A platform whose ``os`` has no ``name``."""
        self.monkeypatch.delattr(os, name)

    def spy(self, owner, name, fail=None):
        """Wrap ``owner.<name>``; the list returned gets the arguments of each
        call made in the caller.  ``fail``, "worker" or "caller", makes every
        call in a forked worker, or in the caller, raise ``RuntimeError``."""
        calls, real = [], getattr(owner, name)

        def spying(*args):
            in_caller = os.getpid() == self.caller
            if fail == ("caller" if in_caller else "worker"):
                raise RuntimeError("work failed")
            if in_caller:
                calls.append(args)
            return real(*args)
        self.monkeypatch.setattr(owner, name, spying)
        return calls

    def assert_nothing_left(self):
        """No child process is left, every part file is closed, none lies in
        the default temporary directory, and no staging directory of
        ``cli.write_run`` lies anywhere under this test's directory."""
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert all(part.closed for part in self.parts)
        assert os.listdir(self.directory) == []
        assert list(self.directory.parent.rglob(f"{cli.STAGE_PREFIX}*")) == []


@pytest.fixture
def harness(monkeypatch, tmp_path):
    """The harness of one test, which, once the test ends, leaves nothing."""
    (tmp_path / "temporary").mkdir()
    harness = Harness(monkeypatch, tmp_path / "temporary")
    yield harness
    harness.assert_nothing_left()
