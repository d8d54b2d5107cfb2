"""Kernel work counters.

The simulator increments :data:`KERNEL_COUNTERS` on its hot path; the
external benchmark (``python -m bench``), the figure CLI's
``--metrics`` sidecars and the tests read them.  This package imports
nothing else from :mod:`repro`.
"""

from repro.perf.counters import KERNEL_COUNTERS, KernelCounters

__all__ = ["KERNEL_COUNTERS", "KernelCounters"]
