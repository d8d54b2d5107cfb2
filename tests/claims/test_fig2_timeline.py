"""Bench: Figure 2 — the timing diagrams, from simulation traces."""

from repro.experiments import fig2


def test_fig2_timeline():
    result = fig2.run()
    print()
    print(result.render())

    hb_gap = result.headlines["HB mean inter-replica gap (request processing)"]
    nb_gap = result.headlines["NB mean inter-replica gap (header rewrite)"]
    # Fig. 2a vs 2b: the NIC-based multisend replaces a full request
    # processing per destination with a cheap header rewrite.
    assert nb_gap < hb_gap / 2.5

    # Fig. 2c: the intermediate NIC forwards before its own host sees
    # the (complete) message.
    lead = result.headlines["NIC-1 forward lead over its own host delivery"]
    assert lead > 0

    timeline = result.extra["forwarding_timeline"]
    # Forwarding starts before the full message has even arrived at the
    # intermediate (per-packet pipelining on a multi-packet message).
    assert timeline["first_forward_queued"] < timeline["host1_delivery"]
    assert timeline["host2_delivery"] > timeline["host1_delivery"]
