"""Bench: Figure 1 — feature axes, with live probes of the claims."""

from repro.experiments import fig1


def test_fig1_features():
    result = fig1.run()
    print()
    print(result.render())
    print()
    print(result.extra["table"])

    # All four dynamic probes must demonstrate their claim:
    # protection, LFC deadlock, ID-ordering immunity, FM/MC bottleneck.
    assert result.headlines["probes passing (of 4)"] == 4.0
