"""A fixed reference kernel that tracks the host's speed during a run.

The measuring host's speed swings by about 40% in bursts of seconds and in
slow epochs of minutes, so times taken minutes apart are not comparable as
they stand. The benchmark runs this kernel (about 5 ms) right before every
program call. Its code never changes with the program under test, so its
mean time over a pass shows how fast the host was during that pass, and
the benchmark reports a pass's times scaled to a host on which the kernel
takes `REFERENCE_S`.

The kernel mixes the two kinds of work the program does: interpreted
Python over dicts and tuples (routing, layout enumeration, the CLI) and
small numpy gate applications on a 12-qubit statevector (simulation and
sampling).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# The kernel's time on a fast burst of a 2-vCPU x86-64 VM (Python 3.11,
# numpy 2.4); the scale of the reported seconds, not a property of the host.
REFERENCE_S = 0.005

_QUBITS = 12
_rng = np.random.default_rng(0)
_STATE = (_rng.standard_normal(2**_QUBITS) + 1j * _rng.standard_normal(2**_QUBITS)) / 2**6
_GATE = np.linalg.qr(_rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4)))[0]


def _python_part() -> int:
    tally: dict = {}
    for i in range(8000):
        key = (i * 7919) % 1009, i % 13
        tally[key] = tally.get(key, 0) + 1
    return len(tally)


def _numpy_part() -> None:
    psi = _STATE
    for r in range(20):
        q = r % (_QUBITS - 1)
        view = psi.reshape(2 ** (_QUBITS - q - 2), 4, 2**q)
        psi = np.einsum("ab,ibj->iaj", _GATE, view).reshape(-1)


def kernel() -> float:
    """Run the reference kernel once; returns its time in seconds."""
    t0 = perf_counter()
    _python_part()
    _numpy_part()
    return perf_counter() - t0


def speed_factor(kernel_s: float, kernels: int) -> float:
    """How much slower than the reference the host ran: the kernel's mean
    time over `kernels` runs divided by `REFERENCE_S`. Divide a time taken
    alongside those runs by it to get reference seconds."""
    return kernel_s / kernels / REFERENCE_S
