"""Tenancy probe: one single-core NumPy timing that says how busy the host is.

`perfbench/harness.py` runs `bench.tenancy_probe()` in a child interpreter
before and after each benchmark run and records the figures with it. The
benchmark itself is `perfbench/run.py`.
"""

from __future__ import annotations

import time


#: Single-core probe wall above which the tenancy window is "dirty"
#: (BASELINE.md protocol): the sandbox shares a host and its effective CPU
#: speed swings up to 50x under external load; a clean window probes
#: <= ~0.35-0.4 s on this box.
PROBE_CLEAN_S = 0.4


def tenancy_probe() -> float:
    """Single-core numpy probe (sqrt+sin over a warm 20M-element array).

    Emitted as probe_s_before/probe_s_after in the bench JSON so every
    recorded number is self-describing about window quality: wall times
    from a run whose probes exceed PROBE_CLEAN_S are tenancy-inflated with
    no code cause and must not be compared against clean-window records.
    """
    import numpy as np

    a = np.arange(20_000_000, dtype=np.float64)
    np.sqrt(a) * np.sin(a)  # warm-up: allocation + page faults
    t0 = time.time()
    np.sqrt(a) * np.sin(a)
    return round(time.time() - t0, 3)
