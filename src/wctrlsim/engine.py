"""Deterministic run core: virtual clock, fixed-period cycle loop, RNG streams.

Virtual time is an integer count of microseconds since run start.  A run is
a sequence of equal-length cycles, stepped in order from time 0, and every
stochastic draw comes from a named substream of the master seed, so a run
replays bit-identically for the same seed and schedule.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator

import numpy as np

SimTime = int  # virtual microseconds since run start

_U64 = 0xFFFFFFFFFFFFFFFF

DRAW_BLOCK = 256  # values a buffered stream takes from numpy at a time


def stream_rng(master_seed: int, node: int | None, purpose: str) -> np.random.Generator:
    """Derive an independent RNG substream for (node, purpose) from the master seed.

    The stream identity is hashed into the seed material, so adding or removing
    a node (or purpose) never shifts the draws of any other stream.
    """
    digest = hashlib.sha256(f"{node}|{purpose}".encode()).digest()
    words = [int.from_bytes(digest[i : i + 8], "little") for i in (0, 8)]
    return np.random.default_rng(np.random.SeedSequence([master_seed & _U64, *words]))


def _blocks(master_seed: int, node: int | None, purpose: str,
            low: float, high: float) -> Iterator[list[float]]:
    rng = stream_rng(master_seed, node, purpose)  # seeded at the first draw
    while True:
        yield rng.uniform(low, high, DRAW_BLOCK).tolist()


@dataclass(frozen=True)
class RunSummary:
    events_processed: int


class Engine:
    """Virtual clock and buffered RNG substreams of one run.

    One-off draws, such as the hop permutations, take their own `stream_rng`.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.now: SimTime = 0
        self._buffered: dict[tuple[int | None, str], Iterator[float]] = {}

    def draws(self, node: int | None, purpose: str, low: float = 0.0,
              high: float = 1.0) -> Iterator[float]:
        """Return the (cached) buffered draws of the (node, purpose) substream:
        `uniform(low, high, DRAW_BLOCK)` gives exactly the values of as many
        single `uniform(low, high)` calls.  The first call's bounds hold, so a
        substream must have one consumer: the medium's "channel" and
        "burst:<sender>" and the MAC's "sync" streams each have exactly one
        call site."""
        key = (node, purpose)
        draws = self._buffered.get(key)
        if draws is None:  # chained in C, so a draw resumes no Python frame
            draws = self._buffered[key] = chain.from_iterable(
                _blocks(self.seed, node, purpose, low, high))
        return draws

    def run_until(self, period: SimTime, step: Callable[[], bool]) -> RunSummary:
        """Call `step()` at now = 0, period, 2*period, ... until it returns False."""
        processed = 0
        self.now = 0
        while True:
            processed += 1
            if not step():
                break
            self.now += period
        return RunSummary(events_processed=processed)
