"""How fast the host ran Python while an op ran, from a fixed reference kernel.

On a shared VM the CPU time of the same work drifts by a third or more
from one minute to the next: for stretches of tenths of a second to
seconds the core runs at about half speed, most likely as other
guests load its hyperthread sibling. ``Sampler`` runs a small fixed kernel every ``INTERVAL``
seconds on a thread of its own and times it. The kernel does the kind of
work bugnav does (a regex scanner feeding a dict, nested loops over
integer lists), always the same amount, and never calls bugnav. Its
samples fall into the same slow and fast stretches as the op, in
proportion to the time spent in each, so

    scaled = (op CPU time - kernel CPU time) * REFERENCE_S / mean(kernel pass time)

is the op's CPU time on a host that runs the kernel in ``REFERENCE_S``.
A change to bugnav moves the op's CPU time and not the kernel's; a
slower host moves both.
"""

from __future__ import annotations

import random
import re
import statistics
import threading
from time import thread_time
from typing import List, Tuple

# CPU time of a typical kernel pass on a 2-vCPU Xeon VM (CPython 3.11)
REFERENCE_S = 0.0005
INTERVAL = 0.05

_rng = random.Random(20261017)
_WORDS = ["get", "set", "View", "layout", "Activity", "onCreate", "int",
          "String", "return", "null", "this", "new", "final"]
_TEXT = " ".join(
    "".join(_rng.choice(_WORDS) for _ in range(_rng.randint(1, 3)))
    + _rng.choice(["(", ")", ";", ".", " = ", "{", "}"])
    for _ in range(150)
)
_A = [_rng.randrange(12) for _ in range(30)]
_B = [_rng.randrange(12) for _ in range(30)]
_IDENT = re.compile(r"[A-Za-z_$][A-Za-z0-9_$]*")


def reference_work() -> int:
    text, pos, counts = _TEXT, 0, {}
    end = len(text)
    while pos < end:
        m = _IDENT.match(text, pos)
        if m:
            word = m.group()
            counts[word] = counts.get(word, 0) + 1
            pos = m.end()
        else:
            pos += 1
    a, b, best = _A, _B, 0
    for i in range(len(a)):
        for j in range(len(b)):
            k = 0
            while i + k < len(a) and j + k < len(b) and a[i + k] == b[j + k]:
                k += 1
            if k > best:
                best = k
    return best + len(counts)


class Sampler:
    """While active, a thread of its own times the reference kernel
    every INTERVAL seconds. Take a ``mark()`` before and after the code
    to measure; ``window()`` gives the scale for it and the kernel's CPU
    time inside it, to take out of the process CPU time measured around
    the code."""

    def __init__(self):
        self.samples: List[float] = []
        self.spent = 0.0

    def _sample(self):
        t0 = thread_time()
        reference_work()
        dt = thread_time() - t0
        self.samples.append(dt)
        self.spent += dt

    def _loop(self):
        while not self._stop.wait(INTERVAL):
            self._sample()

    def __enter__(self):
        self._sample()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="hostspeed", daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def mark(self) -> Tuple[int, float]:
        return len(self.samples), self.spent

    def window(self, start, end) -> Tuple[float, float]:
        """Reference speed over the host's mean speed between two marks,
        and the kernel's CPU time between them. A window too short to
        hold a sample takes the latest one before it."""
        samples = self.samples[start[0]:end[0]] or self.samples[end[0] - 1:end[0]]
        scale = statistics.fmean(REFERENCE_S / t for t in samples)
        return scale, end[1] - start[1]
