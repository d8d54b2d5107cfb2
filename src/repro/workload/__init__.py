"""Sustained-traffic workloads on top of the scenario layer.

The paper measures one-shot broadcasts; this package runs the *serving*
regime those measurements argue for — many concurrent multicast groups,
continuous seeded arrivals, membership churn — declared through
:class:`~repro.scenario.spec.TrafficSpec` on a scenario and executed by
:class:`~repro.workload.serving.TrafficEngine`.

Layering: ``repro.workload`` sits above the engines and the scenario
layer (it may import ``repro.sim``/``repro.net``/``repro.mcast``/
``repro.scenario`` and friends, never ``repro.experiments`` or
``repro.obs``).  The scenario harness cannot import *us*, so importing
this package registers the serving runner with the harness's workload
registry — entry points that run serving scenarios (`python -m
repro.experiments --scenario`, ``python -m bench``) just import
``repro.workload`` first.
"""

from repro.scenario.harness import register_workload_runner
from repro.workload.serving import (
    GroupStats,
    ServingStats,
    TrafficEngine,
    run_serving,
)

__all__ = ["GroupStats", "ServingStats", "TrafficEngine", "run_serving"]

register_workload_runner("serving", run_serving)
