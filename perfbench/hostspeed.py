"""Host-speed calibration: a fixed probe timed next to every measurement.

The benchmark runs on a shared host whose speed is not its own. On the
2-vCPU VM the benchmark was written on, a fixed pure-Python loop ran
between 1.2 and 2.1 ms from one moment to the next, and its mean over
20-second windows moved by 10% between windows; such states last from
seconds to minutes. Five runs of one seed in a row spread by 8-18%
(interquartile range over median) on every timing, because the host did.

So every timing is taken next to :func:`probe`, a fixed interpreter-bound
loop that allocates nothing the garbage collector tracks and touches no
program state, and is reported at the reference host speed::

    adjusted = measured * REFERENCE_PROBE_MS / probe_ms

One probe is short and reads up to 20% off the speed around it, so
``probe_ms`` is a median of several: of the probes before and after a
set-up or restart (:func:`timed`), and, for a batch, of the probes of the
batches around it (:func:`smooth`).

A change to the program moves an adjusted timing by its full amount,
since the probe does not run program code. A change in host speed moves
the probe with the timing and cancels. The measured values are printed
beside the adjusted ones (``raw`` in the details).
"""

from __future__ import annotations

from statistics import median
from time import perf_counter
from typing import Callable, List, NamedTuple, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: Loop rounds of one probe: about 6 ms on the reference host.
PROBE_ROUNDS = 40_000

#: Probes taken before and after one :func:`timed` call.
PROBES_EACH_SIDE = 5

#: Batches whose probes make one batch's host speed: the batch and two
#: on either side.
WINDOW = 5

#: About the probe's median on the reference host (the 2-vCPU VM above),
#: in ms.
#: Adjusted timings read as they would there.
REFERENCE_PROBE_MS = 6.0

_KEYS = tuple(f"probe-key-{i}" for i in range(64))
_TABLE = {key: i for i, key in enumerate(_KEYS)}


def probe() -> float:
    """One run of the fixed loop, in milliseconds."""
    keys, table = _KEYS, _TABLE
    started = perf_counter()
    total = 0
    for i in range(PROBE_ROUNDS):
        total += table[keys[i & 63]] ^ (i * 7) % 13
    return (perf_counter() - started) * 1000.0


def adjust(measured: float, probe_ms: float) -> float:
    """``measured`` at the reference host speed, given the probe next to it."""
    return measured * REFERENCE_PROBE_MS / probe_ms


class Timed(NamedTuple):
    """A measured duration and the host-speed probe taken around it."""

    seconds: float
    probe_ms: float

    @property
    def adjusted(self) -> float:
        return adjust(self.seconds, self.probe_ms)


def timed(call: Callable[[], T]) -> Tuple[T, Timed]:
    """Run ``call`` between probes; its duration goes with their median."""
    probes = [probe() for _ in range(PROBES_EACH_SIDE)]
    started = perf_counter()
    result = call()
    elapsed = perf_counter() - started
    probes += [probe() for _ in range(PROBES_EACH_SIDE)]
    return result, Timed(elapsed, median(probes))


def smooth(probes: Sequence[float]) -> List[float]:
    """Each probe replaced by the median of the :data:`WINDOW` around it."""
    half = WINDOW // 2
    return [
        median(probes[max(0, i - half):i + half + 1]) for i in range(len(probes))
    ]
