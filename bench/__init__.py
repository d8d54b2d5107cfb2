"""The external benchmark of the simulator: ``python -m bench``.

It measures the simulator from outside, through public APIs only, the
way a user runs it: every timed pass is a fresh child process.  See
``bench/README.md`` for the workloads, the metrics and their bounds.
"""
