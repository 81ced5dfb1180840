"""Workload definitions shared by the launcher, the input generator and the worker.

Standard library only: the launcher imports this module before it has pinned
the thread environment of the processes that import numpy and the program.
"""
from __future__ import annotations

from dataclasses import dataclass

FEATURE_SET = "gp_unknown_phoneme"  # 73 dims, the paper's best set
SPEAKERS = ("spk00", "spk01")
EMA_RATE = 500  # Hz, as recorded in MOCHA-TIMIT
PHONES_PER_UTTERANCE = (20, 40)  # inclusive; spread evenly over the utterances
PHONE_FRAMES = (3, 13)  # phone durations in 10 ms frames, inclusive
SILENCE_FRAMES = (20, 50)  # leading and trailing silence in 10 ms frames


@dataclass(frozen=True)
class Workload:
    name: str
    utterances: int  # per speaker
    splits: tuple[int, int, int]
    method: str
    optimize: bool = False
    grid: dict | None = None
    reruns: int = 3  # warm reruns timed after each cold run


_GRID = {"lambdas": [0.0, 1e4], "timing_lrs": [1e-5], "position_lrs": [1e-2]}

# A mocha rerun only reads the cache, in about 0.4 s.  A grid-hermite rerun
# re-evaluates the grid, in about two thirds of a cold run, so it has one:
# its rounds stay short enough that a run times three cold runs.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("mocha-linear", 460, (390, 20, 50), "linear"),
        Workload("mocha-natural", 460, (390, 20, 50), "natural_cubic"),
        Workload("grid-hermite", 8, (6, 1, 1), "cubic_hermite", True, _GRID, 1),
    )
}

# Smoke sizes: every workload and every check, in seconds rather than minutes.
SMOKE = {
    "mocha-linear": Workload("mocha-linear", 40, (28, 6, 6), "linear"),
    "mocha-natural": Workload("mocha-natural", 40, (28, 6, 6), "natural_cubic"),
    "grid-hermite": WORKLOADS["grid-hermite"],
}


def workload(name: str, smoke: bool = False) -> Workload:
    table = SMOKE if smoke else WORKLOADS
    if name not in table:
        raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    return table[name]

