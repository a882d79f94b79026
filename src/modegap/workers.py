"""Work split into contiguous shares, the later ones computed by forked workers.

``split`` cuts a job's items into shares, and ``run`` computes them into one
byte stream through the package's one ``os.fork``: ``write_columns`` formats
a large table's rows this way, and ``train`` trains a sweep's seeds.  A
worker reads its inputs through the fork, writes its share into an unnamed
file, and hands that file back to the caller, which joins the shares in
order, so a result does not depend on the core count.
"""

import os
import shutil
import signal
import tempfile


class WorkerError(RuntimeError):
    """A forked worker exited with a nonzero code."""


def cores():
    """Cores this process may run on; 1 where it cannot fork or read its affinity."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


def split(items, cost, floor):
    """``items`` in contiguous shares, in order, each a slice of ``items``:
    one per core this process may use, at most one per item and one per
    ``floor`` of work, an item costing ``cost``, and always at least one."""
    count = max(1, min(cores(), len(items), len(items) * cost // floor))
    bounds = [len(items) * i // count for i in range(count + 1)]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


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


def run(shares, work, out, name, directory=None):
    """Write every share, in order, into the binary file ``out`` with
    ``work(share, out)``.  The caller computes the first share, and any
    share whose fork raised OSError; a forked worker computes each other
    share into an unnamed file in ``directory``, which the caller appends
    once the worker exits 0.  A worker that exits with a nonzero code
    raises ``WorkerError`` naming its work, ``name(share)``.  On any error
    the workers still running are killed; every worker is reaped and every
    file closed."""
    first, *later = shares
    workers = []  # [pid, part] per later share, None where its fork failed
    try:
        for share in later:
            workers.append(_fork(work, share, directory))
        work(first, out)
        for share, worker in zip(later, workers):
            if worker is None:
                work(share, out)
                continue
            pid, part = worker
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            worker[0] = None
            if code != 0:
                raise WorkerError(f"the worker {name(share)} exited with {code}")
            part.seek(0)
            shutil.copyfileobj(part, out)
    finally:
        for pid, part in filter(None, workers):
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            part.close()
