"""A fixed yardstick that measures how fast the host runs tvbraid-like
Python at the moment.

The benchmark shares a 2-vCPU host whose speed flips between a fast and a
slow phase (about 1.7 times slower) every few seconds, so the same
operation's wall time spreads by 15-40% between runs.  The timed loop
therefore runs this yardstick in short bursts between operations (at most
EVERY_S apart, so each operation of a few tenths of a second sits between
two bursts taken in the same phase), and the gated timings are reported in
units of the mean of the two bursts around each operation.  The yardstick
is a miniature of tvbraid's own hot path, written here and frozen: words of
frozen dataclass letters are walked through a Schreier transversal of a
permutation group (slotted permutation objects composed by generator
expressions, dict lookups on tuple keys), and the Schreier generators met
are collected in a set.  A slow phase slows it and tvbraid alike, while a
change to tvbraid moves only the operations.  A workload whose operations
are child processes brings its own yardstick instead (see workloads.Cli).
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass
from typing import Callable

POINTS = 7
FIXED = 3  # cosets of the pointwise stabiliser of points 0..FIXED-1
WORDS, WORD_LEN = 30, 30
#: the yardstick's result, frozen; a different value means the code changed
CHECKSUM = 4494823
#: one burst of yardstick samples is taken at most every EVERY_S seconds
EVERY_S = 0.3


@dataclass(frozen=True)
class Letter:
    gen: int
    sign: int


class Perm:
    __slots__ = ("images",)

    def __init__(self, images):
        object.__setattr__(self, "images", tuple(images))

    def __mul__(self, other: "Perm") -> "Perm":
        return Perm(other.images[x] for x in self.images)

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for p, x in enumerate(self.images):
            inv[x] = p
        return Perm(inv)

    def __eq__(self, other) -> bool:
        return self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)


def _transposition(i: int) -> Perm:
    images = list(range(POINTS))
    images[i], images[i + 1] = i + 1, i
    return Perm(images)


GENS = [_transposition(i) for i in range(POINTS - 1)]


def _transversal() -> dict:
    """Coset (the images of points 0..FIXED-1) -> representative."""
    ident = Perm(range(POINTS))
    table, frontier = {ident.images[:FIXED]: ident}, [ident]
    while frontier:
        nxt = []
        for t in frontier:
            for g in GENS:
                u = t * g
                if u.images[:FIXED] not in table:
                    table[u.images[:FIXED]] = u
                    nxt.append(u)
        frontier = nxt
    return table


TABLE = _transversal()
_rng = random.Random(20231006)
INPUT = [
    [Letter(_rng.randrange(POINTS - 1), _rng.choice((1, -1))) for _ in range(WORD_LEN)]
    for _ in range(WORDS)
]


def work() -> int:
    seen = set()
    for word in INPUT:
        cur = Perm(range(POINTS))
        for a in word:
            g = GENS[a.gen]
            nxt = cur * g
            t = TABLE[(cur if a.sign == 1 else nxt).images[:FIXED]]
            u = TABLE[(t * g).images[:FIXED]]
            seen.add(t * g * u.inverse())  # a Schreier generator
            cur = nxt
    return len(seen) * 10**6 + sum(int("".join(map(str, s.images))) for s in seen) % 10**6


def checked_work() -> None:
    got = work()
    if got != CHECKSUM:
        raise RuntimeError(f"yardstick returned {got}, want {CHECKSUM}")


@dataclass(frozen=True)
class Yardstick:
    sample: Callable[[], None]
    burst: int  # samples per burst
    #: median sample time on a 2-vCPU x86-64 cloud host in its fast phase;
    #: set-up times are reported in seconds of such a host
    nominal_s: float


MINIATURE = Yardstick(checked_work, 5, 0.006)


class Reference:
    """Bursts of yardstick samples taken between timed operations."""

    def __init__(self, yardstick: Yardstick):
        self.yardstick = yardstick
        self.samples: list[float] = []
        #: median sample time of each burst, in the order taken
        self.bursts: list[float] = []
        self._last = float("-inf")
        yardstick.sample()  # warm-up, untimed

    def burst(self) -> None:
        times = []
        for _ in range(self.yardstick.burst):
            t0 = time.perf_counter()
            self.yardstick.sample()
            times.append(time.perf_counter() - t0)
        self.samples += times
        self.bursts.append(statistics.median(times))
        self._last = time.perf_counter()

    def units(self, seconds: float, before: int) -> float:
        """A time taken between bursts ``before`` and ``before + 1``, in
        yardstick units: divided by the mean of those two bursts."""
        return seconds * 2 / (self.bursts[before] + self.bursts[before + 1])

    def maybe(self) -> None:
        """A burst when EVERY_S seconds have passed since the last one."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.burst()
