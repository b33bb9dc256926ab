"""The library's single wall-clock funnel.

Library code in ``core/``, ``lsh/``, ``structures/``, ``distance/`` and
``serve/`` must never read the clock directly (invariant rule R2 of
:mod:`repro.analysis`): all timing flows through :func:`monotonic`, so

* every timed quantity in the package shares one clock source and one
  unit (seconds on the process-wide monotonic clock), which keeps the
  calibrated cost model's predictions comparable with the measured
  wall-times the observability layer records against them; and
* tests can fake time deterministically by patching one function.
"""

from __future__ import annotations

import time


def monotonic() -> float:
    """Seconds on the process-wide monotonic clock.

    Backed by :func:`time.perf_counter`: monotonic, highest available
    resolution, unaffected by system clock adjustments.
    """
    return time.perf_counter()
