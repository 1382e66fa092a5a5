"""Host speed, sampled in-band while the program runs.

On a shared host the CPU the benchmark gets runs at a speed that changes by
up to half from one second to the next, and CPU time moves with wall time, so
the change is the host's and not the program's.  The two vCPUs change
independently, so a probe on the other CPU, or one run between executions,
does not see the speed the program saw.  ``Sampler`` therefore interrupts the
program itself every ``INTERVAL_S`` seconds (SIGALRM) and times one run of a
fixed reference kernel in the signal handler, on the same thread and CPU.  A
timed interval is then scaled by how long the kernel took inside it:

    reference seconds = (measured seconds - handler seconds)
                        * kernel reference seconds / mean kernel seconds

A reference second is a second on a host that runs the kernel in its
reference time.  The kernels depend on nothing of dpogl, so no change to the
program can move them.  ``python_kernel`` (dict updates and float arithmetic)
needs no import, so the set-up probe samples it before numpy is loaded.
``MixedKernel`` adds numpy calls on tiny arrays; the executions use it,
because across train_ri_plus, account_ri and account_string it tracked the
program's own slowdowns best of the kernels tried (log-log slope about 1).
This module imports no module that is not already loaded when Python starts
(``signal`` apart), so loading it before the probe's clock loads nothing that
dpogl would have to import.
"""

from __future__ import annotations

import math
import signal
import time

# Seconds of one kernel run on the reference host: the Intel Xeon 2-vCPU VM
# the benchmark was defined on, in its faster state.
PYTHON_REFERENCE_S = 0.0004
MIXED_REFERENCE_S = 0.0007
INTERVAL_S = 0.05  # one mixed sample per 50 ms costs about 2 % of the run


def python_kernel() -> float:
    """Interpreter work: about 0.35-0.7 ms."""
    table: dict = {}
    acc = 0.0
    for i in range(2_000):
        key = i & 31
        table[key] = table.get(key, 0.0) + math.sqrt(i)
        acc += i * 0.5
    return acc + len(table)


class MixedKernel:
    """``python_kernel`` and then 40 small numpy calls: about 0.6-1.3 ms."""

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        self.x = np.random.default_rng(1).standard_normal((16, 8))
        self.w = np.random.default_rng(2).standard_normal((8, 4))

    def __call__(self) -> float:
        np = self.np
        acc = python_kernel()
        for _ in range(40):
            z = self.x @ self.w
            z = np.exp(z - z.max(axis=1, keepdims=True))
            acc += float(z.sum())
        return acc


class Sampler:
    """Samples of ``kernel``, whose reference time is ``reference_s``, taken
    from a SIGALRM handler on the main thread every ``interval_s``."""

    def __init__(self, kernel, reference_s: float,
                 interval_s: float = INTERVAL_S) -> None:
        self.kernel = kernel
        self.reference_s = reference_s
        self.interval_s = interval_s
        self.samples: list[float] = []
        self.handler_s = 0.0  # time spent in the handler, taken off the run
        self._previous = None

    def _handle(self, signum, frame) -> None:
        start = time.perf_counter()
        self.kernel()
        mid = time.perf_counter()
        self.samples.append(mid - start)
        self.handler_s += time.perf_counter() - start

    def _bracket(self) -> None:
        """A sample outside the timed region, so that even a region shorter
        than the interval has two."""
        start = time.perf_counter()
        self.kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "Sampler":
        self.samples, self.handler_s = [], 0.0
        self._bracket()
        self._previous = signal.signal(signal.SIGALRM, self._handle)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        self._bracket()

    def to_reference(self, seconds: float) -> float:
        """``seconds``, timed inside the ``with`` block, in reference
        seconds."""
        return ((seconds - self.handler_s) * self.reference_s
                / self.mean_sample_s())

    def mean_sample_s(self) -> float:
        return sum(self.samples) / len(self.samples)
