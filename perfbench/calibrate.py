"""How fast the host runs Python right now, from fixed work outside sheetsmith.

The host's speed drifts: identical work took 1.36 s to 2.18 s in successive
blocks, and this kernel flips between about 1.1 ms and 2.0 ms within seconds,
with no steal time recorded. So the benchmark times every operation between
two runs of ``kernel()`` and reports the operation's time at the speed at
which the kernel takes REFERENCE_S. The kernel is the benchmark's own
evaluator (``oracle``) over a grading formula, so no change to sheetsmith can
make it faster; its mix of dict lookups, string building and small calls is
close to sheetsmith's own, so both slow down alike. ``oracle`` imports only
``re`` and ``math``, which the interpreter's start-up has loaded already, so
a fresh interpreter can run the kernel before ``import sheetsmith``.
"""

from time import perf_counter

import oracle

REFERENCE_S = 0.002  # about the kernel's time in the slower of the host's two states

_FORMULA = oracle.read(
    '=IF(MIN(C5:D5)<40,"Fail",IF(AVERAGE(C5:D5)>=70,"Dist",'
    'IF(AVERAGE(C5:D5)>=55,"Merit",IF(AVERAGE(C5:D5)>=40,"Pass"))))'
)
_GRIDS = [{"C5": float(a), "D5": float(b)} for a in range(0, 101, 10) for b in range(0, 101, 10)]


def kernel(repeat: int = 1) -> float:
    """Seconds the fixed work takes now: the least of ``repeat`` timings."""
    best = float("inf")
    for _ in range(repeat):
        started = perf_counter()
        for cells in _GRIDS:
            oracle.evaluate(_FORMULA, cells)
        best = min(best, perf_counter() - started)
    return best


# Starting an interpreter and importing (numpy's shared objects, .pyc
# reads, page faults) slows down less than the kernel: log-log fits gave
# exponents of 0.40 for ``import sheetsmith`` over 40 fresh interpreters and
# 0.42 to 0.56 for each of the five cli commands over 60 processes.
PROCESS_SENSITIVITY = 0.5


def speed(before: float, after: float, sensitivity: float = 1.0) -> float:
    """Raw time over reference-speed time for work done between two kernels.

    ``sensitivity`` is how strongly that work follows the kernel: 1 for
    Python work in a warm process, PROCESS_SENSITIVITY for process start-up
    and imports.
    """
    return ((before + after) / 2 / REFERENCE_S) ** sensitivity
