"""Work split into contiguous shares, the later ones computed by forked workers.

``forked`` is the package's one ``os.fork``: ``write_columns`` formats the
later shares of a large table through it, and ``train`` trains the later
shares of its seeds.  A worker reads its inputs through the fork, writes its
result into an unnamed file, and hands that file back to the caller, which
joins the shares in order, so a result does not depend on the core count.
"""

import os
import signal
import tempfile
from contextlib import contextmanager


def cores():
    """Cores this process may run on; 1 where it cannot fork or read its affinity."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def _fork(work, share, directory):
    """Fork a worker that runs ``work(share, part)`` into an unnamed binary file
    ``part`` in ``directory``; [pid, part], or None when the fork raises
    OSError (the file is closed on any error).  The worker always leaves
    through ``os._exit``, so it never returns into its caller's stack: 0 once
    its file is flushed, 1 on any exception."""
    part = tempfile.TemporaryFile(dir=directory)
    try:
        pid = os.fork()
    except BaseException as exc:
        part.close()
        if isinstance(exc, OSError):
            return None
        raise
    if pid == 0:
        code = 1
        try:
            work(share, part)
            part.flush()
            code = 0
        finally:
            os._exit(code)
    return [pid, part]


def _parts(shares, workers, failure):
    """(share, part) per share in order, once its worker has exited: ``part``
    rewound to its start, or None where the fork failed."""
    for share, worker in zip(shares, workers):
        if worker is None:
            yield share, None
            continue
        pid, part = worker
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        worker[0] = None
        if code != 0:
            raise failure(share, code)
        part.seek(0)
        yield share, part


@contextmanager
def forked(shares, work, failure, directory=None):
    """Fork one worker per share that runs ``work(share, part)``, and yield an
    iterator of (share, part) in order.  Iterating waits for each worker and
    gives its file rewound; ``part`` is None where the fork raised OSError,
    and the caller computes that share itself.  A worker that exits with a
    nonzero code raises ``failure(share, code)``.  Leaving the block, on any
    error too, kills the workers still running, reaps every worker and
    closes every file."""
    workers = []                    # [pid, part] per share, None where its fork failed
    try:
        for share in shares:
            workers.append(_fork(work, share, directory))
        yield _parts(shares, workers, failure)
    finally:
        for pid, part in filter(None, workers):
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            part.close()
