"""Host-speed reference: a fixed pure-Python kernel timed around each
operation.

On a shared virtual machine the speed of the host swings: on the 2-vCPU VM
this benchmark was written on, the same fixed loop ran 1.4 to 1.8 times
slower for stretches of 5 to 30 seconds, with no steal time reported, so
raw times of one input differed by up to 40 % between runs minutes apart.
The kernel below uses none of the library; it does the kind of work the
library's hot paths do (small objects with slots, tuple arithmetic modulo a
small integer, dict updates keyed by tuples).  Timing it just before and
just after an operation gives the host's speed during that operation, and
``normalize`` rescales the operation's time to a host on which the kernel
takes REF_KERNEL_S.  Those rescaled times are the reported ones; the raw
times are printed beside them.
"""

import gc
import time

REF_KERNEL_S = 0.25e-3


class _Elem:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __add__(self, other):
        return _Elem(tuple((a + b) % 8 for a, b in zip(self.c, other.c)))

    def __mul__(self, other):
        res = [0, 0, 0]
        for i, a in enumerate(self.c):
            for j, b in enumerate(other.c):
                if i + j < 3:
                    res[i + j] = (res[i + j] + a * b) % 8
        return _Elem(tuple(res))


def _kernel():
    x, y = _Elem((1, 2, 3)), _Elem((3, 1, 2))
    acc = x
    for _ in range(60):
        acc = acc * y + x
    table = {}
    for i in range(300):
        key = ((i * 7) % 97, i & 15)
        table[key] = table.get(key, 0) + 1
    return acc, table


def kernel_seconds():
    """The kernel's time now: best of two runs, with the cyclic garbage
    collector off so that it never collects the library's garbage."""
    gc.disable()
    try:
        best = None
        for _ in range(2):
            start = time.perf_counter()
            _kernel()
            took = time.perf_counter() - start
            best = took if best is None else min(best, took)
    finally:
        gc.enable()
    return best


def normalize(seconds, kernel_before, kernel_after):
    """An operation's time rescaled to the reference host speed."""
    return seconds * 2 * REF_KERNEL_S / (kernel_before + kernel_after)
