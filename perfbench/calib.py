"""A fixed probe of the machine's speed, run beside the program's units.

A shared host changes speed under the benchmark: for a second or for
minutes, a CPU runs interpreted Python and BLAS alike about 1.1 to 2 times
slower, and each CPU at its own times; interpreted code slows more than
BLAS. The probe does the same small, fixed work each time, in two parts
timed apart: a greedy longest-match loop over strings like a WordPiece
encoder's, then tiny einsums like a hidden-32 encoder's and a matrix
product like a hidden-128 encoder's. It never calls the program, so a
change to the program cannot change the probe, and it never touches
numpy's global random state, so it cannot change the program's outputs.

Work of kind "python" (tokenizing, bookkeeping) follows the first part's
slowdowns, and work of kind "mixed" (the encoder: Python dispatch around
numpy calls) those of the whole probe. A run scales the time of each unit
of work by REFERENCE_S over the times of its kind's probe around it
(run.py, class Speed), so its figures read as on a machine whose probe
takes REFERENCE_S: about its times on the machine the bounds were set on,
at that machine's fast speed (README.md).
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = {"python": 0.42e-3, "mixed": 1.52e-3}

_rng = np.random.default_rng(0)
_SMALL = (_rng.standard_normal((8, 16, 32)), _rng.standard_normal((32, 32)))
_LARGE = (_rng.standard_normal((256, 128)), _rng.standard_normal((128, 512)))
_SYLLABLES = ("car", "di", "o", "neph", "ro", "hep", "a", "to", "gas", "tro", "en", "ter")
_WORDS = [_SYLLABLES[i % 12] + _SYLLABLES[(5 * i + 3) % 12] + _SYLLABLES[(7 * i + 1) % 12]
          + "itis" for i in range(96)]
_PIECES = frozenset(_SYLLABLES) | {"##" + s for s in _SYLLABLES} | {"##itis"}


def probe() -> tuple[float, float]:
    """Seconds the first part and the whole probe take now."""
    start = time.perf_counter()
    for word in _WORDS:
        begin = 0
        while begin < len(word):
            end = len(word)
            while end > begin + 1 and (word[begin:end] if begin == 0
                                       else "##" + word[begin:end]) not in _PIECES:
                end -= 1
            begin = end
    middle = time.perf_counter()
    x, w = _SMALL
    for _ in range(8):
        np.einsum("bld,de->ble", x, w)
    a, b = _LARGE
    a @ b
    return middle - start, time.perf_counter() - start
