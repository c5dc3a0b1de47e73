"""Host-speed sampling, so that times can be normalised to a quiet core.

The benchmark's host is a shared 2-vCPU virtual machine whose cores change
speed by up to 40 % from one second to the next, each on its own
(presumably other tenants' load on the physical cores), and CPU time runs
at the same rate as wall time, so neither clock alone says how much work a
pass did.  Timed back to back, one pass of the same code on the same
inputs spreads by ±15 % (more across runs minutes apart).

So while a pass runs, the benchmark samples the speed of every process
doing the work: on ``SIGALRM`` every :data:`INTERVAL_S` of wall time, a
fixed calibration kernel runs and its duration is appended to a
per-process file.  Processes forked while a sampler is active (the
campaign's pool workers) start their own timer and file.  A time interval of one process
is then normalised as

    normalised = (elapsed - sampler time) * mean(REF_LOOP_S / loop_s)

over that process's samples in the interval.  The samples are evenly spaced
in wall time, so the mean is the interval's time-averaged speed relative
to :data:`REF_LOOP_S`, the kernel's duration on a quiet core of the host the
benchmark was tuned on (an Intel Xeon 2-vCPU KVM guest): a normalised time
reads as the seconds the interval would have taken on that core.  The
sampler costs about 1 % of a core, and its own time is subtracted.

The kernel mixes the three kinds of work the program does: a tight
integer loop, interpreter-heavy object code (calls, attributes, dicts,
lists) and small numpy operations.  Contention on the host slows them by
different amounts.  Regressing the log of a pass's time on the log of the
kernel's speed over 8-14 passes of the compare and inference workloads
gave slopes of 0.97-1.05 for the mix, and 1.2-1.4 for the integer loop
alone, which over-corrects.
"""

import os
import signal
import time
from time import perf_counter

import numpy as np

INTERVAL_S = 0.025
#: Seconds :func:`kernel` takes on a quiet core of the reference host, run
#: from the signal handler in the middle of a pass (caches cold) and run
#: back to back (caches warm).
REF_LOOP_S = 2.1e-4
REF_WARM_LOOP_S = 1.65e-4
#: An interval with fewer samples than this borrows the nearest ones.
MIN_SAMPLES = 5

_X = np.arange(40, dtype=float)
_Y = np.linspace(0.0, 1.0, 40)
_Z = np.ones(40)


class _Cell:
    __slots__ = ("base", "log")

    def __init__(self, base):
        self.base = base
        self.log = []


def _visit(cell, key):
    cell.log.append(key)
    return cell.base + key


def kernel():
    """The fixed calibration work (its duration is one sample)."""
    total = 0
    for i in range(1000):
        total += i * i % 7
    table, cell = {}, _Cell(3)
    for i in range(150):
        table[i % 17] = _visit(cell, i)
        table.get(i % 5)
    for _ in range(12):
        row = _X * _Y + _Z
        total += float(row.sum()) + int(np.argmax(row)) + len(np.flatnonzero(row > 20))
    return total


class Sample:
    """One loop run: ``wall``/``mono`` are ``time.time()``/``perf_counter()``
    when it started; ``handler_s`` is the whole handler (loop, clocks,
    write)."""

    __slots__ = ("pid", "wall", "mono", "loop_s", "handler_s")

    def __init__(self, pid, wall, mono, loop_s, handler_s):
        self.pid, self.wall, self.mono = pid, wall, mono
        self.loop_s, self.handler_s = loop_s, handler_s

    @property
    def speed(self):
        return REF_LOOP_S / self.loop_s


_fd = None
#: The active sampler's directory, for children forked while it samples.
_directory = None


def _on_alarm(signum, frame):
    wall, mono = time.time(), perf_counter()
    kernel()
    loop_s = perf_counter() - mono
    if _fd is not None:
        line = f"{wall:.6f} {mono:.6f} {loop_s:.9f} {perf_counter() - mono:.9f}\n"
        os.write(_fd, line.encode())


def _open(directory):
    global _fd
    _fd = os.open(
        os.path.join(directory, f"hostspeed-{os.getpid()}.txt"),
        os.O_WRONLY | os.O_CREAT | os.O_APPEND,
        0o644,
    )


def _after_fork_in_child():
    """Give a child forked under an active sampler its own timer and file
    (timers are not inherited; the handler is)."""
    if _directory is None:
        return
    _open(_directory)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


os.register_at_fork(after_in_child=_after_fork_in_child)


class HostSpeed:
    """Samples host speed in this process and its forked children while
    entered; reads the samples back at any time."""

    def __init__(self, directory):
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self._previous = None

    def __enter__(self):
        global _directory
        if _directory is not None:
            raise RuntimeError("a host-speed sampler is already active")
        _open(self.directory)
        _directory = self.directory
        self._previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        global _directory, _fd
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        _directory = None
        if _fd is not None:
            os.close(_fd)
            _fd = None

    def samples(self):
        """Every sample so far as ``{pid: [Sample, ...]}``, in time order."""
        by_pid = {}
        for name in sorted(os.listdir(self.directory)):
            if not (name.startswith("hostspeed-") and name.endswith(".txt")):
                continue
            pid = int(name[len("hostspeed-"):-len(".txt")])
            rows = []
            with open(os.path.join(self.directory, name)) as handle:
                lines = handle.read().splitlines()
            for line in lines:
                fields = line.split()
                if len(fields) == 4:  # a line cut short by a killed worker
                    rows.append(Sample(pid, *map(float, fields)))
            by_pid[pid] = rows
        return by_pid


def window(samples, start, end, clock="mono"):
    """The samples taken in ``[start, end]``; when there are fewer than
    :data:`MIN_SAMPLES`, the :data:`MIN_SAMPLES` nearest its middle."""
    inside = [s for s in samples if start <= getattr(s, clock) <= end]
    if len(inside) >= MIN_SAMPLES or len(samples) <= len(inside):
        return inside
    middle = (start + end) / 2
    return sorted(samples, key=lambda s: abs(getattr(s, clock) - middle))[:MIN_SAMPLES]


def measure_speed():
    """Speed right now, from 40 kernel runs back to back (for a process
    too short-lived to sample while it works)."""
    total = 0.0
    for _ in range(40):
        start = perf_counter()
        kernel()
        total += REF_WARM_LOOP_S / (perf_counter() - start)
    return total / 40


def speed(samples):
    """Time-averaged speed relative to the reference core (1.0 if unknown)."""
    return sum(s.speed for s in samples) / len(samples) if samples else 1.0


def normalise(elapsed, samples, start, end, clock="mono"):
    """``elapsed`` seconds of one process over ``[start, end]``, less its
    sampler time, at the reference core's speed."""
    handler = sum(s.handler_s for s in samples if start <= getattr(s, clock) <= end)
    return (elapsed - handler) * speed(window(samples, start, end, clock))
