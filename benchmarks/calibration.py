"""A fixed reference computation that measures how fast the machine runs now.

On a shared host the same code runs up to about 40% slower for minutes at a
time, and the benchmark's run times move with it.  ``kernel_s`` times a fixed
amount of the kinds of work eventnet's workloads do -- interpreter-bound
dict and loop work, small dense complex linear algebra, and numpy Generator
construction -- without calling eventnet, so its time follows the machine
and not the program.  ``run.py`` times the kernel before the first run and
after every run, and divides each run's wall time by the mean of the two
kernel times around it (``wall_rel``).
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.standard_normal((64, 64)) + 1j * _RNG.standard_normal((64, 64))


def kernel_s() -> float:
    """Seconds the reference computation takes (about 0.3 s on one 2 GHz vCPU)."""
    t0 = time.perf_counter()
    table: dict[int, float] = {}
    for i in range(200_000):
        table[i % 1000] = table.get(i % 1000, 0.0) + i * 0.5
    m = _MATRIX
    for i in range(200):
        h = m @ m.conj().T
        np.linalg.eigvalsh(h)
        m = _MATRIX * (1.0 + 1e-3 * i)
        np.einsum("ij,ji->", h, m)
    for child in np.random.SeedSequence(0).spawn(2_500):
        np.random.default_rng(child).random()
    return time.perf_counter() - t0
